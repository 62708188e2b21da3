(* The zero-materialization hot path: streaming through [Runner.run_fold]
   must be bit-identical (SCIFSNAP bytes) to materialize-then-replay
   through the engine's reference observe path; the pre-decoded
   instruction cache must be architecturally invisible, including under
   self-modifying code (stores into fetched addresses, in and out of the
   branch delay slot); and the engine's cached sorted point view must
   track insertions. *)

module M = Cpu.Machine
module Var = Trace.Var
module Engine = Daikon.Engine
module B = Isa.Asm.Build

let qtest ?(count = 25) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* ---- streaming == materialize-then-replay, over random programs ---- *)

let mine_streaming ?provenance (w : Workloads.Rt.t) =
  let engine = Engine.create ?provenance () in
  ignore
    (Trace.Runner.stream ~tick_period:w.tick_period ~entry:w.entry
       ~observer:(Engine.observe engine) w.image);
  engine

let mine_replay ?provenance (w : Workloads.Rt.t) =
  let recs, _ =
    Trace.Runner.capture ~tick_period:w.tick_period ~entry:w.entry w.image
  in
  let engine = Engine.create ?provenance () in
  List.iter (Engine.observe_baseline engine) recs;
  engine

(* The candidate state of a provenance engine, as provenance-free
   SCIFSNAP bytes: a fresh plain engine adopts its points unchanged. *)
let candidate_bytes engine =
  let plain = Engine.create () in
  Engine.merge_into plain engine;
  Engine.encode plain

let prop_stream_replay_identical =
  qtest "stream == capture+observe_baseline (SCIFSNAP bytes), fuzz programs"
    QCheck.(pair (int_bound 1000) (int_bound 40))
    (fun (seed, index) ->
       let w = Fuzz.Gen.candidate ~seed ~index in
       let streamed = Engine.encode (mine_streaming w) in
       let recorded = mine_streaming ~provenance:true w in
       (* The flight recorder only watches: the same program mined with
          provenance on leaves byte-identical candidate state, and the
          reference path records the same deaths, witnesses and births
          (the v2 snapshot bytes carry all three). *)
       String.equal streamed (Engine.encode (mine_replay w))
       && String.equal streamed (candidate_bytes recorded)
       && String.equal (Engine.encode recorded)
            (Engine.encode (mine_replay ~provenance:true w)))

let test_stream_replay_workload () =
  (* The same identity on a real corpus program (exception handlers,
     tick timer, delay slots all exercised). *)
  let w = Option.get (Workloads.Suite.by_name "instru") in
  Alcotest.(check bool) "SCIFSNAP bytes equal" true
    (String.equal
       (Engine.encode (mine_streaming w))
       (Engine.encode (mine_replay w)))

let test_run_fold_matches_capture () =
  (* run_fold's accumulator sees exactly the records capture stores. *)
  let w = Option.get (Workloads.Suite.by_name "pi") in
  let machine = M.create ~tick_period:w.tick_period () in
  M.load_image machine w.image;
  M.set_pc machine w.entry;
  let folded, fold_outcome =
    Trace.Runner.run_fold ~init:[]
      ~f:(fun acc (r : Trace.Record.t) -> r :: acc)
      machine
  in
  let captured, cap_outcome =
    Trace.Runner.capture ~tick_period:w.tick_period ~entry:w.entry w.image
  in
  Alcotest.(check bool) "same outcome" true (fold_outcome = cap_outcome);
  Alcotest.(check int) "same record count"
    (List.length captured) (List.length folded);
  List.iter2
    (fun (a : Trace.Record.t) (b : Trace.Record.t) ->
       Alcotest.(check string) "same point" a.point b.point;
       Alcotest.(check bool) "same values" true (a.values = b.values);
       Alcotest.(check bool) "same mask" true (a.mask = b.mask))
    captured (List.rev folded)

(* ---- decode cache vs self-modifying code ---- *)

(* A program that executes the instruction at [x] twice and overwrites it
   with "l.addi r3, r3, 2" between the passes. With a correct decode
   cache the second pass must see the new instruction: r3 ends at 3
   (1 + 2); a stale cache would leave r3 at 2. [patch_in_delay_slot]
   places the store in the delay slot of the back-jump — the fetch of the
   patched word is the very next instruction the machine executes. *)
let smc_program ~patch_in_delay_slot =
  let patched = Isa.Code.encode (Isa.Insn.Alui (Isa.Insn.Addi, 3, 3, 2)) in
  let prologue =
    [ B.la 6 "x";
      B.movhi 5 (patched lsr 16);
      B.ori 5 5 (patched land 0xFFFF);
      B.addi 3 0 0;
      B.addi 7 0 0;
      B.label "x";
      B.addi 3 3 1;
      B.addi 7 7 1 ]
  and epilogue =
    if patch_in_delay_slot then
      [ B.sfeqi 7 2;
        B.bf "done";
        B.nop;
        B.j "x";
        B.sw 0 6 5; (* delay slot: patch the already-cached word at x *)
        B.label "done";
        I (Isa.Insn.Nop 1) ]
    else
      [ B.sw 0 6 5; (* plain store: patch the already-cached word at x *)
        B.sfeqi 7 2;
        B.bf "done";
        B.nop;
        B.j "x";
        B.nop;
        B.label "done";
        I (Isa.Insn.Nop 1) ]
  in
  Isa.Asm.assemble { Isa.Asm.origin = 0x100; items = prologue @ epilogue }

let run_smc ~decode_cache image =
  let machine = M.create ~decode_cache () in
  M.load_image machine image;
  M.set_pc machine 0x100;
  let records, outcome =
    Trace.Runner.run_fold ~init:[]
      ~f:(fun acc (r : Trace.Record.t) -> r :: acc)
      machine
  in
  (machine, List.rev records, outcome)

let check_smc ~patch_in_delay_slot () =
  let image = smc_program ~patch_in_delay_slot in
  let cached, recs_on, out_on = run_smc ~decode_cache:true image in
  let plain, recs_off, out_off = run_smc ~decode_cache:false image in
  Alcotest.(check bool) "halted by l.nop 1" true
    (out_on = `Halted M.Exit && out_off = `Halted M.Exit);
  (* The patched instruction really was re-decoded. *)
  Alcotest.(check int) "r3 = 1 + 2 with the cache" 3 cached.M.gpr.(3);
  Alcotest.(check int) "r3 = 1 + 2 without the cache" 3 plain.M.gpr.(3);
  let _, _, invalidates = M.decode_cache_stats cached in
  Alcotest.(check bool) "the store dropped a cached entry" true
    (invalidates >= 1);
  (* The cache must be architecturally invisible record for record. *)
  Alcotest.(check int) "same record count"
    (List.length recs_off) (List.length recs_on);
  List.iter2
    (fun (a : Trace.Record.t) (b : Trace.Record.t) ->
       Alcotest.(check string) "same point" a.point b.point;
       Alcotest.(check bool) "same values" true (a.values = b.values))
    recs_off recs_on

let test_smc_plain_store () = check_smc ~patch_in_delay_slot:false ()
let test_smc_delay_slot_store () = check_smc ~patch_in_delay_slot:true ()

let test_cache_transparent_on_workload () =
  (* Cache on vs off over a full corpus program: identical record
     streams, and the cache actually fires. *)
  let w = Option.get (Workloads.Suite.by_name "bitcount") in
  let run ~decode_cache =
    let machine = M.create ~tick_period:w.tick_period ~decode_cache () in
    M.load_image machine w.image;
    M.set_pc machine w.entry;
    let records, _ =
      Trace.Runner.run_fold ~init:[]
        ~f:(fun acc (r : Trace.Record.t) -> r :: acc)
        machine
    in
    (machine, List.rev records)
  in
  let m_on, on = run ~decode_cache:true in
  let _, off = run ~decode_cache:false in
  Alcotest.(check bool) "identical record streams" true
    (List.map (fun (r : Trace.Record.t) -> (r.point, r.values)) on
     = List.map (fun (r : Trace.Record.t) -> (r.point, r.values)) off);
  let hits, _, _ = M.decode_cache_stats m_on in
  Alcotest.(check bool) "cache hits observed" true (hits > 0)

(* ---- the cached sorted point view tracks insertions ---- *)

let record point =
  let values = Array.make Var.total 0 in
  let mask = Array.make Var.total false in
  mask.(Var.post_id (Var.Gpr 3)) <- true;
  { Trace.Record.point; values; mask }

let test_points_cache_invalidation () =
  let e = Engine.create () in
  Alcotest.(check (list string)) "empty" [] (Engine.points e);
  Engine.observe e (record "l.sub");
  Alcotest.(check (list string)) "one point" [ "l.sub" ] (Engine.points e);
  Alcotest.(check int) "count 1" 1 (Engine.point_count e);
  (* A new point must show up, sorted, even though the previous call
     cached the view. *)
  Engine.observe e (record "l.add");
  Alcotest.(check (list string)) "sorted after insertion"
    [ "l.add"; "l.sub" ] (Engine.points e);
  Alcotest.(check int) "count 2" 2 (Engine.point_count e);
  (* Re-observing an existing point must not disturb the view. *)
  Engine.observe e (record "l.add");
  Alcotest.(check (list string)) "unchanged on re-observation"
    [ "l.add"; "l.sub" ] (Engine.points e);
  Alcotest.(check int) "records" 3 (Engine.record_count e)

let () =
  Alcotest.run "hotpath"
    [ ("streaming",
       [ Alcotest.test_case "run_fold matches capture" `Quick
           test_run_fold_matches_capture;
         Alcotest.test_case "stream == replay on a corpus program" `Quick
           test_stream_replay_workload;
         prop_stream_replay_identical ]);
      ("decode-cache",
       [ Alcotest.test_case "self-modifying code, plain store" `Quick
           test_smc_plain_store;
         Alcotest.test_case "self-modifying code, delay-slot store" `Quick
           test_smc_delay_slot_store;
         Alcotest.test_case "transparent on a corpus program" `Quick
           test_cache_transparent_on_workload ]);
      ("points",
       [ Alcotest.test_case "sorted view tracks insertions" `Quick
           test_points_cache_invalidation ]) ]
