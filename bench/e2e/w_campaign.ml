(* campaign: dynamic verification itself. Set-up builds the SCI battery
   through mine -> optimize -> identify; one operation is a seeded
   Pipeline.campaign of generated semantic mutants against that battery.
   Fault-hooked Cpu.Machine runs, Trace.Runner capture and the compiled
   monitors do the work; Daikon.Engine and Ml.Logreg do none. *)

module Pipeline = Scifinder_core.Pipeline

type size = {
  groups : string list list option;  (** [None]: the Figure 3 corpus *)
  bugs : Bugs.Registry.t list;       (** identification's ground truth *)
  mutants : int;
  triggers : int;
  tries : int;
  expect_mutants : int;  (** mutants every campaign must classify *)
}

(* Every mutant runs on triggers drawn from the pool; 384 of them rather
   than 96 make the programs a seed draws — and so a run's cost — vary
   less from seed to seed. *)
let full =
  { groups = None; bugs = Bugs.Table1.all; mutants = 2000; triggers = 384;
    tries = 3; expect_mutants = 2000 }

let toy =
  { groups = Some [ [ "pi" ]; [ "helloworld" ] ]; bugs = Bench.toy_bugs;
    mutants = 12; triggers = 4; tries = 2; expect_mutants = 12 }

(* One set-up: the mined invariants and the SCI battery built on them. *)
let battery size () =
  let mining, _, ident =
    W_paper.identify_phases ~groups:size.groups ~bugs:size.bugs ()
  in
  (mining.Pipeline.invariants, ident.Pipeline.summary.Sci.Identify.unique_sci)

let check size (c : Pipeline.campaign) =
  let classified = List.length c.Pipeline.outcomes in
  if c.Pipeline.mutant_total = size.expect_mutants
  && classified = size.expect_mutants
  then []
  else
    [ Printf.sprintf "campaign classified %d of %d mutants, expected %d"
        classified c.Pipeline.mutant_total size.expect_mutants ]

let run ?(size = full) (ctx : Bench.ctx) =
  let (invariants, sci), setup_samples =
    Bench.setups ctx ~release:ignore (battery size)
  in
  let phase ~traced ~seconds =
    Bench.loop ~seconds ~traced
      ~run:(fun _ ->
          Bench.span "Pipeline.campaign" (fun () ->
              Pipeline.campaign ~seed:ctx.seed ~mutants:size.mutants
                ~triggers:size.triggers ~tries:size.tries ~sci ()))
      ~inspect:(fun c ->
          ( List.length c.Pipeline.outcomes,
            Printf.sprintf "%s detected=%d" c.Pipeline.fingerprint
              c.Pipeline.detected_total,
            check size c ))
      ()
  in
  let kernels _ =
    Layers.run ctx
      { Layers.programs =
          List.init size.triggers (fun index ->
              Fuzz.Gen.candidate ~seed:ctx.seed ~index);
        lake = None; invariants; bugs = size.bugs; seed = ctx.seed }
      ~events:Bench.events
  in
  let phases, layers = Bench.phases ctx ~phase ~kernels in
  Bench.check_agreement phases;
  { Bench.workload = "campaign"; item = "mutants"; setup_samples; phases;
    rss_mb = Bench.peak_rss_mb (); layers; extras = [] }
