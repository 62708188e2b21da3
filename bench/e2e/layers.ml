(* The layer ledger: one timed kernel per layer of the program, run
   after a traced phase on the workload's own inputs — its programs, its
   lake (recorded from those programs when the workload has none) and
   the invariants it mined. Every workload reports every metric here, so
   a change to one layer shows on each workload's ledger, and the
   end-to-end numbers say which workloads it actually moved. *)

module Pipeline = Scifinder_core.Pipeline
module Session = Pipeline.Session

type inputs = {
  programs : Workloads.Rt.t list;
  lake : string option;
  invariants : Invariant.Expr.t list;
  bugs : Bugs.Registry.t list;  (** identification's ground truth *)
  seed : int;
}

(* Kernels that hold whole traces in memory, and the lake recorded for
   a workload that has none, use at most this many of the workload's
   programs: the 17-program corpus where the workload mines it, else its
   first 17 generated programs. (A lake of one segment per generated
   program would spend its replay on per-segment Figure 3 rows.) *)
let trace_sample = 17

let take n l = List.filteri (fun i _ -> i < n) l

(* The [k] invariants of [pool] a seed picks, in pool order. *)
let pick ~seed k pool =
  let arr = Array.of_list pool in
  let n = Array.length arr in
  let idx = Util.Prng.sample (Util.Prng.create seed) ~n ~k:(min k n) in
  Array.sort compare idx;
  Array.to_list (Array.map (fun i -> arr.(i)) idx)

let row_of (r : Pipeline.figure3_row) =
  { Serve.Proto.r_label = r.group_label; r_unmodified = r.unmodified;
    r_fresh = r.fresh; r_deleted = r.deleted; r_total = r.total }

(* [Pipeline.infer]'s default seed: it drives the class balance, the
   70/30 split and the cross-validation folds. *)
let infer_seed = 20170408

(* The labeled training matrix of phase 4, rebuilt the way
   [Pipeline.infer] builds it. *)
let training_matrix ~all_invariants (summary : Sci.Identify.summary) =
  let space = Invariant.Feature.build_space all_invariants in
  let sci = summary.Sci.Identify.unique_sci in
  let rng = Util.Prng.create infer_seed in
  let non_arr = Array.of_list summary.Sci.Identify.unique_fp in
  Util.Prng.shuffle rng non_arr;
  let n_non = min (Array.length non_arr) (List.length sci) in
  let non_sci = Array.to_list (Array.sub non_arr 0 (max 1 n_non)) in
  let labeled =
    Array.of_list
      (List.map (fun i -> (i, 0.0)) sci @ List.map (fun i -> (i, 1.0)) non_sci)
  in
  Util.Prng.shuffle rng labeled;
  let n_train = max 2 (Array.length labeled * 7 / 10) in
  let train = Array.sub labeled 0 n_train in
  ( Ml.Matrix.of_rows
      (Array.to_list
         (Array.map (fun (i, _) -> Invariant.Feature.vector space i) train)),
    Array.map snd train )

(* One run of every program; machines are created and loaded off the
   clock, so only [Cpu.Machine.run] is timed. *)
let machine_pass programs =
  let max_steps = Trace.Runner.default_config.Trace.Runner.max_steps in
  List.fold_left
    (fun (run_s, retired, hits, misses) (w : Workloads.Rt.t) ->
       let m = Cpu.Machine.create ~tick_period:w.tick_period () in
       Cpu.Machine.load_image m w.image;
       Cpu.Machine.set_pc m w.entry;
       let _, s =
         Bench.time (fun () -> Cpu.Machine.run ~max_steps ~observer:ignore m)
       in
       let h, mi, _ = Cpu.Machine.decode_cache_stats m in
       (run_s +. s, retired + m.Cpu.Machine.retired, hits + h, misses + mi))
    (0., 0, 0, 0) programs

let fold_into engine paths =
  List.iter
    (fun p ->
       ignore
         (Trace.Segment.fold ~init:()
            ~f:(fun () r -> Daikon.Engine.observe engine r) p))
    paths

(* [events] reads the traced run's span stream so far. *)
let run (ctx : Bench.ctx) inp ~events =
  let min_s = ctx.Bench.kernel_s in
  let out = ref [] in
  let add name value unit = out := (name, value, unit) :: !out in
  let ns_per s n = s *. 1e9 /. float_of_int (max 1 n) in
  let repeat name f = Bench.span name (fun () -> Bench.repeat ~min_s f) in
  let timed name f = Bench.time (fun () -> Bench.span name f) in
  let dir =
    Filename.concat ctx.Bench.out_dir
      (Printf.sprintf "kernels-%d" (Unix.getpid ()))
  in
  Bench.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Bench.rm_rf dir) @@ fun () ->
  (* cpu *)
  let total = ref (0., 0, 0, 0) in
  ignore
    (repeat "Cpu.Machine.run" (fun () ->
         let s, r, h, m = machine_pass inp.programs
         and s0, r0, h0, m0 = !total in
         total := (s0 +. s, r0 + r, h0 + h, m0 + m)));
  let run_s, retired, hits, misses = !total in
  add "cpu.ns_per_insn" (ns_per run_s retired) "ns";
  add "cpu.decode_cache_hit_ratio"
    (float_of_int hits /. float_of_int (max 1 (hits + misses))) "ratio";
  (* trace *)
  let stream_pass () =
    List.fold_left
      (fun acc (w : Workloads.Rt.t) ->
         let c = ref 0 in
         ignore
           (Trace.Runner.stream ~tick_period:w.tick_period ~entry:w.entry
              ~observer:(fun _ -> incr c) w.image);
         acc + !c)
      0 inp.programs
  in
  let s, n, records = repeat "Trace.Runner.stream" stream_pass in
  add "trace.runner_ns_per_record" (ns_per s (n * records)) "ns";
  let sample = take trace_sample inp.programs in
  let traces =
    List.map
      (fun (w : Workloads.Rt.t) ->
         fst (Trace.Runner.capture ~tick_period:w.tick_period ~entry:w.entry
                w.image))
      sample
  in
  let sample_records = List.fold_left (fun n t -> n + List.length t) 0 traces in
  let seg = Filename.concat dir "encode.seg" in
  let s, n, () =
    repeat "Trace.Segment.add" (fun () ->
        if Sys.file_exists seg then Sys.remove seg;
        Trace.Segment.with_writer ~workload:"kernel" seg (fun w ->
            List.iter (List.iter (Trace.Segment.add w)) traces))
  in
  add "trace.encode_ns_per_record" (ns_per s (n * sample_records)) "ns";
  let lake =
    match inp.lake with
    | Some d -> d
    | None ->
      let d = Filename.concat dir "lake" in
      ignore
        (Bench.span "Pipeline.record_lake" (fun () ->
             Pipeline.record_lake ~workloads:sample
               ~names:(List.map (fun (w : Workloads.Rt.t) -> w.name) sample)
               ~dir:d ()));
      d
  in
  let segments = Trace.Segment.lake_segments lake in
  let decode_pass () =
    List.fold_left
      (fun acc p ->
         let c = ref 0 in
         ignore (Trace.Segment.fold ~init:() ~f:(fun () _ -> incr c) p);
         acc + !c)
      0 segments
  in
  let s, n, lake_records = repeat "Trace.Segment.fold" decode_pass in
  let decode_ns = ns_per s (n * lake_records) in
  add "trace.decode_ns_per_record" decode_ns "ns";
  let lake_bytes =
    List.fold_left (fun acc p -> acc + (Unix.stat p).Unix.st_size) 0 segments
  in
  add "trace.lake_bytes_per_record"
    (float_of_int lake_bytes /. float_of_int (max 1 lake_records)) "bytes";
  (* daikon: replay folds decode too, so the decode cost is taken out *)
  let engine = Daikon.Engine.create () in
  let (), s = timed "Daikon.Engine.observe" (fun () -> fold_into engine segments) in
  add "daikon.observe_ns_per_record" (ns_per s lake_records -. decode_ns) "ns";
  let (), s = timed "Daikon.Engine.observe" (fun () -> fold_into engine segments) in
  add "daikon.observe_settled_ns_per_record" (ns_per s lake_records -. decode_ns)
    "ns";
  let s, n, _ =
    repeat "Daikon.Engine.invariants" (fun () -> Daikon.Engine.invariants engine)
  in
  add "daikon.extract_ms" (s *. 1e3 /. float_of_int n) "ms";
  let s, n, _ =
    repeat "Daikon.Engine.encode" (fun () -> Daikon.Engine.encode engine)
  in
  add "daikon.encode_ms" (s *. 1e3 /. float_of_int n) "ms";
  let born, live =
    List.fold_left
      (fun (b, l) (f : Daikon.Engine.family_stats) -> (b + f.born, l + f.live))
      (0, 0) (Daikon.Engine.candidate_stats engine)
  in
  add "daikon.live_candidate_ratio"
    (float_of_int live /. float_of_int (max 1 born)) "ratio";
  let half = List.length segments / 2 in
  let halves =
    List.map
      (fun part ->
         let e = Daikon.Engine.create () in
         Bench.span "Daikon.Engine.observe" (fun () -> fold_into e part);
         e)
      [ take half segments; List.filteri (fun i _ -> i >= half) segments ]
  in
  let (), s =
    timed "Daikon.Engine.merge_into" (fun () ->
        Daikon.Engine.merge_into (List.hd halves) (List.nth halves 1))
  in
  add "daikon.merge_ms" (s *. 1e3) "ms";
  (* core *)
  let mine_lake jobs =
    let session = Session.create ~jobs () in
    let t0 = Bench.now () in
    let _, s =
      timed "Pipeline.Session.mine_lake" (fun () -> Session.mine_lake session lake)
    in
    (s, (t0, Bench.now ()))
  in
  let s1, _ = mine_lake 1 in
  let s2, iv = mine_lake 2 in
  add "core.lake_par_speedup" (s1 /. s2) "ratio";
  add "core.lake_replay_share" (Bench.busy_s (events ()) iv "lake.replay" /. s2)
    "ratio";
  let session = Session.create () in
  let mined =
    List.map
      (fun (w : Workloads.Rt.t) ->
         timed "Pipeline.Session.mine" (fun () ->
             Session.mine session ~label:w.name ~row:true [ w ]))
      sample
  in
  add "core.session_mine_ms_p50" (Bench.median (List.map snd mined) *. 1e3) "ms";
  let picked = pick ~seed:inp.seed 64 (Session.invariants session) in
  let _, s =
    timed "Pipeline.Session.check" (fun () -> Session.check session picked)
  in
  add "core.session_check_ms" (s *. 1e3) "ms";
  (* invopt, sci *)
  let opt, s =
    timed "Pipeline.optimize" (fun () -> Pipeline.optimize inp.invariants)
  in
  add "invopt.optimize_s" s "s";
  let optimized = opt.Pipeline.result.Invopt.Pipeline.optimized in
  let ident, s =
    timed "Pipeline.identify" (fun () ->
        Pipeline.identify ~invariants:optimized inp.bugs)
  in
  add "sci.identify_s" s "s";
  let summary = ident.Pipeline.summary in
  let s, n, () =
    repeat "Sci.Identify.capture_trigger" (fun () ->
        List.iter
          (fun (b : Bugs.Registry.t) ->
             ignore (Sci.Identify.capture_trigger ~fault:b.fault b.trigger))
          inp.bugs)
  in
  add "sci.capture_ms"
    (s *. 1e3 /. float_of_int (n * List.length inp.bugs)) "ms";
  let index = Sci.Checker.index optimized in
  let s, n, () =
    repeat "Sci.Checker.violations" (fun () ->
        List.iter (fun t -> ignore (Sci.Checker.violations index t)) traces)
  in
  add "sci.check_ns_per_record" (ns_per s (n * sample_records)) "ns";
  (* ml *)
  let x, y = training_matrix ~all_invariants:optimized summary in
  let (_, _, table), s =
    timed "Ml.Logreg.cross_validate" (fun () ->
        Ml.Logreg.cross_validate ~alpha:0.5 ~folds:3 ~seed:infer_seed x y)
  in
  add "ml.cv_s" s "s";
  add "ml.cv_fits" (float_of_int (3 * List.length table)) "count";
  let s, n, _ = repeat "Ml.Pca.fit" (fun () -> Ml.Pca.fit ~k:2 x) in
  add "ml.pca_ms" (s *. 1e3 /. float_of_int n) "ms";
  (* assertions, fuzz *)
  let battery = Assertions.Ovl.of_invariants summary.Sci.Identify.unique_sci in
  let s, n, compiled =
    repeat "Assertions.Compile.compile" (fun () ->
        Assertions.Compile.compile battery)
  in
  add "assertions.compile_ms" (s *. 1e3 /. float_of_int n) "ms";
  let s, n, () =
    repeat "Assertions.Compile.run" (fun () ->
        List.iter (fun t -> ignore (Assertions.Compile.run compiled t)) traces)
  in
  add "assertions.compiled_ns_per_record" (ns_per s (n * sample_records)) "ns";
  let index = ref 0 in
  let s, n, () =
    repeat "Fuzz.Gen.candidate" (fun () ->
        ignore (Fuzz.Gen.candidate ~seed:inp.seed ~index:!index);
        incr index)
  in
  add "fuzz.gen_us_per_program" (s *. 1e6 /. float_of_int n) "us";
  (* serve: the wire cost of one mine request and its reply, with the
     rows the session kernel above produced *)
  let rows =
    List.concat_map
      (fun ((o : Session.outcome), _) -> List.map row_of o.Session.o_rows)
      mined
  in
  let request =
    { Serve.Proto.id = 1; session = Some "kernel";
      request =
        Serve.Proto.Mine
          { source =
              Serve.Proto.Names
                (List.map (fun (w : Workloads.Rt.t) -> w.name) sample);
            label = None; row = true; digest = true } }
  in
  let reply =
    Serve.Proto.Mined
      { id = 1; records = sample_records; total_records = sample_records; rows;
        invariants = List.length (Session.invariants session);
        digest = Some (Session.engine_digest session) }
  in
  let through payload decode =
    let dec = Serve.Frame.decoder () in
    Serve.Frame.feed dec (Serve.Frame.encode payload);
    match Serve.Frame.next dec with
    | `Frame p -> (match decode p with Ok _ -> () | Error e -> failwith e)
    | `Await | `Error _ -> failwith "frame did not round-trip"
  in
  let s, n, () =
    repeat "Serve.Proto" (fun () ->
        through (Serve.Proto.encode_request request) Serve.Proto.decode_request;
        through (Serve.Proto.encode_response reply) Serve.Proto.decode_response)
  in
  add "serve.roundtrip_us" (s *. 1e6 /. float_of_int n) "us";
  List.rev !out
