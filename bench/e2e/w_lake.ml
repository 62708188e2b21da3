(* lake: out-of-core mining of an on-disk trace lake. Set-up records the
   17 programs, copies each segment [replicas] times by byte
   concatenation — a re-recorded corpus where most records repeat — and
   streams one fuzz-<seed> segment of generated programs, whose fresh
   operand values repeat little, until it holds [fuzz_records] records:
   a record budget rather than a program count keeps the two kinds of
   record in the same proportion whatever the seed. One operation is a cold
   Pipeline.Session.mine_lake at jobs 2, Figure 3 rows and extraction
   included. Engine observe, Segment decode and the span merge do nearly
   all of the work; no CPU simulation or Logreg runs, and it is the only
   workload on the sharded replay path. *)

module Pipeline = Scifinder_core.Pipeline
module Session = Pipeline.Session

type size = {
  names : string list option;  (** [None]: the 17-program corpus *)
  replicas : int;
  fuzz_records : int;
  bugs : Bugs.Registry.t list;  (** the layer ledger's identification *)
}

let full =
  { names = None; replicas = 8; fuzz_records = 100_000; bugs = Bugs.Table1.all }

let toy =
  { names = Some [ "pi"; "helloworld" ]; replicas = 2; fuzz_records = 500;
    bugs = Bench.toy_bugs }

let jobs = 2

let lake_dir base = Filename.concat base "lake"

(* One set-up: a fresh lake under [base]; returns the generated
   programs. *)
let build (ctx : Bench.ctx) size base =
  let once = Filename.concat base "1x" and lake = lake_dir base in
  ignore
    (Bench.span "Pipeline.record_lake" (fun () ->
         Pipeline.record_lake ?names:size.names ~dir:once ()));
  Bench.mkdir_p lake;
  List.iter
    (fun path ->
       let bytes = Bench.read_file path in
       Out_channel.with_open_bin
         (Filename.concat lake (Filename.basename path))
         (fun oc -> for _ = 1 to size.replicas do output_string oc bytes done))
    (Trace.Segment.lake_segments once);
  Bench.rm_rf once;
  let workload = Printf.sprintf "fuzz-%d" ctx.seed in
  Trace.Segment.with_writer ~workload
    (Trace.Segment.segment_path ~dir:lake ~workload)
    (fun writer ->
       let rec go index acc =
         if Trace.Segment.written writer >= size.fuzz_records then List.rev acc
         else begin
           let w = Fuzz.Gen.candidate ~seed:ctx.seed ~index in
           ignore
             (Bench.span "Trace.Runner.stream_to_segment" (fun () ->
                  Trace.Runner.stream_to_segment ~tick_period:w.tick_period
                    ~entry:w.entry ~writer w.image));
           go (index + 1) (w :: acc)
         end
       in
       go 0 [])

let mine_lake ~jobs lake =
  let s = Session.create ~jobs () in
  let m =
    Bench.span "Pipeline.Session.mine_lake" (fun () -> Session.mine_lake s lake)
  in
  (s, m)

let run ?(size = full) (ctx : Bench.ctx) =
  let count = ref 0 in
  let (base, fuzz), setup_samples =
    Bench.setups ctx ~release:(fun (base, _) -> Bench.rm_rf base) (fun () ->
        incr count;
        let base =
          Filename.concat ctx.out_dir
            (Printf.sprintf "lake-%d-%d" (Unix.getpid ()) !count)
        in
        (base, build ctx size base))
  in
  Fun.protect ~finally:(fun () -> Bench.rm_rf base) @@ fun () ->
  let lake = lake_dir base in
  let invariants = ref [] in
  let phase ~traced ~seconds =
    Bench.loop ~seconds ~traced
      ~run:(fun _ -> mine_lake ~jobs lake)
      ~inspect:(fun (s, m) ->
          invariants := m.Pipeline.invariants;
          (m.Pipeline.record_count, Session.engine_digest s, []))
      ()
  in
  let kernels _ =
    Layers.run ctx
      { Layers.programs = Bench.programs size.names @ fuzz;
        lake = Some lake; invariants = !invariants; bugs = size.bugs;
        seed = ctx.seed }
      ~events:Bench.events
  in
  let phases, layers = Bench.phases ctx ~phase ~kernels in
  let rss_mb = Bench.peak_rss_mb () in
  (* Sharded replay must not show in the engine bytes: every jobs-2
     digest equals one sequential jobs-1 digest. *)
  let reference =
    let s, _ = mine_lake ~jobs:1 lake in
    Session.engine_digest s
  in
  List.iter
    (fun (p : Bench.phase) ->
       List.iter
         (fun (o : Bench.op) ->
            if o.errors = [] && not (String.equal o.key reference) then
              Bench.fail_op o
                (Printf.sprintf "jobs-%d digest %s, jobs-1 digest %s" jobs
                   o.key reference))
         p.ops)
    phases;
  { Bench.workload = "lake"; item = "records"; setup_samples; phases; rss_mb;
    layers; extras = [] }
