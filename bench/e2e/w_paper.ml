(* paper: the paper's Table 8 run. One operation is a cold four-phase
   pipeline — mine (jobs 1) -> optimize -> identify (the 17 Table 1
   bugs) -> infer — over the 17-program Figure 3 corpus. It is the only
   workload where Ml.Logreg, Invopt and Sci do real work; the engine is
   about a tenth of it. Its inputs are fixed: the seed is unused. *)

module Pipeline = Scifinder_core.Pipeline

type size = {
  groups : string list list option;  (** [None]: the Figure 3 corpus *)
  bugs : Bugs.Registry.t list;       (** identification's ground truth *)
  detected : int option;             (** bugs a run must detect *)
}

let full = { groups = None; bugs = Bugs.Table1.all; detected = Some 16 }

let toy =
  { groups = Some [ [ "pi" ]; [ "helloworld" ] ]; bugs = Bench.toy_bugs;
    detected = None }

(* The first three phases — also the campaign's set-up. *)
let identify_phases ~groups ~bugs () =
  let mining =
    Bench.span "Pipeline.mine" (fun () ->
        match groups with
        | None -> Pipeline.mine ~jobs:1 ()
        | Some groups ->
          Pipeline.mine ~jobs:1 ~groups
            ~labels:(List.map (String.concat "+") groups) ())
  in
  let optimized =
    (Bench.span "Pipeline.optimize" (fun () ->
         Pipeline.optimize mining.Pipeline.invariants))
      .Pipeline.result.Invopt.Pipeline.optimized
  in
  let ident =
    Bench.span "Pipeline.identify" (fun () ->
        Pipeline.identify ~invariants:optimized bugs)
  in
  (mining, optimized, ident)

let pipeline size () =
  let mining, optimized, ident =
    identify_phases ~groups:size.groups ~bugs:size.bugs ()
  in
  let inference =
    Bench.span "Pipeline.infer" (fun () ->
        Pipeline.infer ~all_invariants:optimized ident.Pipeline.summary)
  in
  (mining, ident, inference)

(* What every run must reproduce: the invariant set, per-bug Table 3
   counts, the chosen lambda and the recommended count. *)
let key (mining, ident, inference) =
  let table3 =
    List.map
      (fun (r : Sci.Identify.report) ->
         Printf.sprintf "%s:%d/%d/%b" r.bug.Bugs.Registry.id
           (List.length r.true_sci) (List.length r.false_positives) r.detected)
      ident.Pipeline.summary.Sci.Identify.reports
  in
  String.concat " "
    [ Digest.to_hex
        (Digest.string
           (String.concat "\n"
              (List.map Invariant.Expr.to_string mining.Pipeline.invariants)));
      string_of_int (List.length mining.Pipeline.invariants);
      Digest.to_hex (Digest.string (String.concat "," table3));
      Printf.sprintf "%h" inference.Pipeline.chosen_lambda;
      string_of_int (List.length inference.Pipeline.recommended) ]

let check size (_, ident, _) =
  let detected =
    List.length
      (List.filter
         (fun (r : Sci.Identify.report) -> r.detected)
         ident.Pipeline.summary.Sci.Identify.reports)
  in
  match size.detected with
  | Some want when detected <> want ->
    [ Printf.sprintf "detected %d/%d bugs, expected %d" detected
        (List.length size.bugs) want ]
  | _ -> []

(* The set-up users pay before the pipeline starts is starting the
   program itself: process creation plus every library's module
   initialisation (the corpus and the Table 1 triggers assemble then). *)
let start_program () =
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "noop" |] Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "program start failed"

let run ?(size = full) (ctx : Bench.ctx) =
  let (), setup_samples = Bench.setups ctx ~release:ignore start_program in
  let invariants = ref [] in
  let phase ~traced ~seconds =
    Bench.loop ~seconds ~traced
      ~run:(fun _ -> pipeline size ())
      ~inspect:(fun ((mining, _, _) as r) ->
          invariants := mining.Pipeline.invariants;
          (mining.Pipeline.record_count, key r, check size r))
      ()
  in
  let kernels _ =
    Layers.run ctx
      { Layers.programs = Bench.programs (Option.map List.concat size.groups);
        lake = None;
        invariants = !invariants; bugs = size.bugs; seed = ctx.seed }
      ~events:Bench.events
  in
  let phases, layers = Bench.phases ctx ~phase ~kernels in
  Bench.check_agreement phases;
  (* the four phases' own spans: self time per pipeline run *)
  let extras =
    match List.find_opt (fun p -> p.Bench.traced_phase) phases with
    | None -> []
    | Some traced ->
      let per_op name =
        Bench.self_s (Bench.events ()) traced.windows name
        /. float_of_int (List.length traced.ops)
      in
      [ ("core.mine_s", per_op "pipeline.mine", "s");
        ("core.infer_s", per_op "pipeline.infer", "s") ]
  in
  { Bench.workload = "paper"; item = "records"; setup_samples; phases;
    rss_mb = Bench.peak_rss_mb (); layers; extras }
