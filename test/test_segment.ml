(* The trace lake's segment codec: replaying a segment must be
   record-for-record bit-identical to the live [Runner.run_fold] stream
   that produced it (pinned via SCIFSNAP engine bytes, like
   streaming == replay in test_hotpath), appending must compose, and
   every torn or damaged byte of a segment file must surface as
   [Corrupt_segment] — never Invalid_argument, never garbage records. *)

module Engine = Daikon.Engine
module Segment = Trace.Segment
module R = Trace.Record
module Pipeline = Scifinder_core.Pipeline

let qtest ?(count = 20) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let with_tmp_dir f =
  let dir = Filename.temp_file "scifinder_lake" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
        Array.iter
          (fun n ->
             try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (try Sys.readdir dir with Sys_error _ -> [||]);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let workload name = Option.get (Workloads.Suite.by_name name)

(* Record one workload into [path] (appending), with a configurable
   block size so multi-block framing is exercised. *)
let record ?records_per_block (w : Workloads.Rt.t) path =
  Segment.with_writer ?records_per_block ~workload:w.name path (fun sw ->
      ignore
        (Trace.Runner.stream_to_segment ~tick_period:w.tick_period
           ~entry:w.entry ~writer:sw w.image))

let mine_live (ws : Workloads.Rt.t list) =
  let engine = Engine.create () in
  List.iter
    (fun (w : Workloads.Rt.t) ->
       ignore
         (Trace.Runner.stream ~tick_period:w.tick_period ~entry:w.entry
            ~observer:(Engine.observe engine) w.image))
    ws;
  engine

let mine_segment path =
  let engine = Engine.create () in
  let (), _info =
    Segment.fold ~init:() ~f:(fun () r -> Engine.observe engine r) path
  in
  engine

(* ---- round-trip exactness ---- *)

let test_roundtrip_records_exact () =
  with_tmp_dir (fun dir ->
      let w = workload "bitcount" in
      let path = Filename.concat dir "w.seg" in
      (* Tiny blocks force many framing boundaries. *)
      record ~records_per_block:7 w path;
      let live, _ =
        Trace.Runner.capture ~tick_period:w.tick_period ~entry:w.entry
          w.image
      in
      let replayed, info =
        Segment.fold ~init:[] ~f:(fun acc r -> r :: acc) path
      in
      let replayed = List.rev replayed in
      Alcotest.(check int) "record count"
        (List.length live) (List.length replayed);
      Alcotest.(check int) "info record count"
        (List.length live) info.Segment.records;
      Alcotest.(check bool) "multi-block" true (info.Segment.blocks > 1);
      Alcotest.(check (list string)) "workloads" [ w.name ]
        info.Segment.workloads;
      List.iter2
        (fun (a : R.t) (b : R.t) ->
           Alcotest.(check string) "point" a.point b.point;
           Alcotest.(check bool) "values bit-identical" true
             (a.values = b.values);
           Alcotest.(check bool) "mask identical" true (a.mask = b.mask))
        live replayed)

let test_stream_equals_replay_engine_bytes () =
  with_tmp_dir (fun dir ->
      let w = workload "instru" in
      let path = Filename.concat dir "w.seg" in
      record w path;
      Alcotest.(check bool) "SCIFSNAP bytes equal" true
        (String.equal
           (Engine.encode (mine_live [ w ]))
           (Engine.encode (mine_segment path))))

let prop_fuzz_roundtrip =
  qtest "segment replay == live stream (SCIFSNAP bytes), fuzz programs"
    QCheck.(pair (int_bound 1000) (int_bound 40))
    (fun (seed, index) ->
       let w = Fuzz.Gen.candidate ~seed ~index in
       with_tmp_dir (fun dir ->
           let path = Filename.concat dir "w.seg" in
           record ~records_per_block:64 w path;
           String.equal
             (Engine.encode (mine_live [ w ]))
             (Engine.encode (mine_segment path))))

let test_append_composes () =
  with_tmp_dir (fun dir ->
      let w = workload "pi" in
      let path = Filename.concat dir "w.seg" in
      (* Two writer sessions on the same path: blocks append, deltas
         reset per block, so the segment equals the trace played twice. *)
      record w path;
      record w path;
      Alcotest.(check bool) "append == live twice" true
        (String.equal
           (Engine.encode (mine_live [ w; w ]))
           (Engine.encode (mine_segment path))))

let test_concat_is_replication () =
  with_tmp_dir (fun dir ->
      let w = workload "helloworld" in
      let path = Filename.concat dir "w.seg" in
      record w path;
      let bytes = Util.Binio.read_file path in
      let path3 = Filename.concat dir "w3.seg" in
      let oc = open_out_bin path3 in
      for _ = 1 to 3 do output_string oc bytes done;
      close_out oc;
      Alcotest.(check bool) "3x concat == live 3x" true
        (String.equal
           (Engine.encode (mine_live [ w; w; w ]))
           (Engine.encode (mine_segment path3))))

(* ---- torn and hostile segments ---- *)

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: read instead of raising" what
  | exception Segment.Corrupt_segment _ -> ()
  | exception e ->
    Alcotest.failf "%s: raised %s instead of Corrupt_segment" what
      (Printexc.to_string e)

let drain path =
  let n = ref 0 in
  let info = Segment.iter ~f:(fun _ -> incr n) path in
  (!n, info)

(* An append to a damaged segment must raise and leave every byte of
   the file as it was: the writer cuts torn tails, nothing else. *)
let expect_append_refused what w path =
  let before = Util.Binio.read_file path in
  expect_corrupt what (fun () -> record w path);
  if not (String.equal before (Util.Binio.read_file path)) then
    Alcotest.failf "%s: the refused append changed the file" what

(* Block boundaries of a segment file, from the 4-byte big-endian
   payload length at offset 24 of each 28-byte frame header. *)
let block_boundaries bytes =
  let be32 off =
    (Char.code bytes.[off] lsl 24)
    lor (Char.code bytes.[off + 1] lsl 16)
    lor (Char.code bytes.[off + 2] lsl 8)
    lor Char.code bytes.[off + 3]
  in
  let rec go off acc =
    if off >= String.length bytes then List.rev acc
    else
      let next = off + 28 + be32 (off + 24) in
      go next (next :: acc)
  in
  go 0 []

let test_truncation_at_every_offset () =
  with_tmp_dir (fun dir ->
      (* A small fuzz program keeps the sweep affordable while still
         spanning several blocks. *)
      let w = Fuzz.Gen.candidate ~seed:7 ~index:3 in
      let path = Filename.concat dir "w.seg" in
      record ~records_per_block:16 w path;
      let bytes = Util.Binio.read_file path in
      let boundaries = block_boundaries bytes in
      Alcotest.(check bool) "spans several blocks" true
        (List.length boundaries > 2);
      let full, _ = drain path in
      let records p =
        List.rev (fst (Segment.fold ~init:[] ~f:(fun acc r -> r :: acc) p))
      in
      let trace = records path in
      let torn_cuts () =
        Obs.Metrics.counter_value (Obs.Metrics.counter "lake.torn_tails_cut")
      in
      let cut_path = Filename.concat dir "cut.seg" in
      for cut = 0 to String.length bytes - 1 do
        let oc = open_out_bin cut_path in
        output_string oc (String.sub bytes 0 cut);
        close_out oc;
        if List.mem cut boundaries then begin
          (* A cut on a block boundary is indistinguishable from a
             writer that simply appended fewer blocks: it must parse —
             as strictly fewer records, never garbage. *)
          let n, _ = drain cut_path in
          Alcotest.(check bool)
            (Printf.sprintf "boundary cut %d parses short" cut)
            true (n < full)
        end
        else
          expect_corrupt (Printf.sprintf "prefix of %d bytes" cut) (fun () ->
              drain cut_path);
        (* The cut as a crash mid-append: the next writer must cut the
           torn frame, so the fold sees the complete blocks before the
           cut and then the new append, whole. *)
        let cuts0 = torn_cuts () in
        Segment.with_writer ~records_per_block:16 ~workload:w.name cut_path
          (fun sw -> List.iter (Segment.add sw) trace);
        let torn = cut > 0 && not (List.mem cut boundaries) in
        if torn_cuts () - cuts0 <> Bool.to_int torn then
          Alcotest.failf "append after a cut at byte %d: torn %b not counted"
            cut torn;
        let kept = List.length (List.filter (fun b -> b <= cut) boundaries) in
        let expected = List.filteri (fun i _ -> i < 16 * kept) trace @ trace in
        if records cut_path <> expected then
          Alcotest.failf "append after a cut at byte %d: fold differs" cut
      done)

let test_bitflip_rejected () =
  with_tmp_dir (fun dir ->
      let w = workload "helloworld" in
      let path = Filename.concat dir "w.seg" in
      record w path;
      let bytes = Bytes.of_string (Util.Binio.read_file path) in
      (* Flip one payload byte mid-file: the digest must catch it. *)
      let off = Bytes.length bytes / 2 in
      Bytes.set bytes off (Char.chr (Char.code (Bytes.get bytes off) lxor 1));
      let bad = Filename.concat dir "bad.seg" in
      let oc = open_out_bin bad in
      output_bytes oc bytes;
      close_out oc;
      expect_corrupt "flipped byte" (fun () -> drain bad);
      expect_append_refused "append to flipped" w bad)

let test_foreign_and_future_rejected () =
  with_tmp_dir (fun dir ->
      let junk = Filename.concat dir "junk.seg" in
      let oc = open_out_bin junk in
      output_string oc "this is not a segment file at all.......";
      close_out oc;
      expect_corrupt "foreign bytes" (fun () -> drain junk);
      let w = workload "helloworld" in
      expect_append_refused "append to foreign bytes" w junk;
      (* Shorter than one frame header, alone or behind valid frames:
         still not a torn frame, so the writer must not cut it. *)
      let notes = Filename.concat dir "notes.txt" in
      let oc = open_out_bin notes in
      output_string oc "short notes\n";
      close_out oc;
      expect_append_refused "append to a short foreign file" w notes;
      let path = Filename.concat dir "w.seg" in
      record w path;
      let tailed = Filename.concat dir "tailed.seg" in
      let oc = open_out_bin tailed in
      output_string oc (Util.Binio.read_file path);
      output_string oc "junk";
      close_out oc;
      expect_corrupt "short junk tail" (fun () -> drain tailed);
      expect_append_refused "append behind short junk" w tailed;
      (* Bump the version byte of a real segment: readers must refuse
         rather than misparse a future layout. *)
      let bytes = Bytes.of_string (Util.Binio.read_file path) in
      Bytes.set bytes 7 (Char.chr (Segment.version + 1));
      let future = Filename.concat dir "future.seg" in
      let oc = open_out_bin future in
      output_bytes oc bytes;
      close_out oc;
      expect_corrupt "future version" (fun () -> drain future);
      expect_append_refused "append to future version" w future;
      expect_corrupt "empty file" (fun () ->
          let empty = Filename.concat dir "empty.seg" in
          close_out (open_out_bin empty);
          drain empty))

(* ---- the lake: record + out-of-core mining ---- *)

let test_lake_mine_matches_live () =
  with_tmp_dir (fun dir ->
      let names = [ "bitcount"; "helloworld"; "pi" ] in
      let stats = Pipeline.record_lake ~names ~dir () in
      Alcotest.(check int) "segments" 3 stats.Pipeline.lake_segments;
      Alcotest.(check bool) "bytes on disk" true
        (stats.Pipeline.lake_bytes > 0);
      let m = Pipeline.mine_lake dir in
      Alcotest.(check int) "records mined == records recorded"
        stats.Pipeline.lake_records m.Pipeline.record_count;
      (* Live sequential mining of the same workloads in lake (sorted
         filename) order must agree bit-for-bit. *)
      let sorted = List.sort String.compare names in
      let live = mine_live (List.map workload sorted) in
      Alcotest.(check (list string)) "invariant set identical"
        (List.map Invariant.Expr.to_string (Engine.invariants live))
        (List.map Invariant.Expr.to_string m.Pipeline.invariants);
      Alcotest.(check int) "one figure3 row per segment" 3
        (List.length m.Pipeline.figure3);
      (* Every job count replays to the live engine's exact bytes. *)
      List.iter
        (fun jobs ->
           let s = Pipeline.Session.create ~jobs () in
           ignore (Pipeline.Session.mine_lake s dir);
           Alcotest.(check string)
             (Printf.sprintf "SCIFSNAP digest at jobs %d" jobs)
             (Digest.to_hex (Digest.string (Engine.encode live)))
             (Pipeline.Session.engine_digest s))
        [ 1; 2; 4 ])

let test_lake_append_accumulates () =
  with_tmp_dir (fun dir ->
      let names = [ "helloworld" ] in
      let s1 = Pipeline.record_lake ~names ~dir () in
      let s2 = Pipeline.record_lake ~names ~dir () in
      Alcotest.(check int) "second pass appends the same count"
        s1.Pipeline.lake_records s2.Pipeline.lake_records;
      let m = Pipeline.mine_lake dir in
      Alcotest.(check int) "lake holds both passes"
        (2 * s1.Pipeline.lake_records) m.Pipeline.record_count;
      let w = workload "helloworld" in
      Alcotest.(check bool) "2x lake == live twice" true
        (String.equal
           (Engine.encode (mine_live [ w; w ]))
           (Engine.encode
              (mine_segment (Segment.segment_path ~dir ~workload:w.name)))))

let test_lake_slash_named_workload () =
  with_tmp_dir (fun dir ->
      (* A hostile workload name must stay inside the lake directory and
         still round-trip. *)
      let base = workload "helloworld" in
      let evil = { base with Workloads.Rt.name = "../evil/../w" } in
      let stats =
        Pipeline.record_lake ~workloads:[ evil ] ~names:[ evil.name ] ~dir ()
      in
      Alcotest.(check int) "one segment" 1 stats.Pipeline.lake_segments;
      Alcotest.(check (list string)) "segment is inside the lake dir"
        [ Segment.segment_path ~dir ~workload:evil.name ]
        (Segment.lake_segments dir);
      let m = Pipeline.mine_lake dir in
      Alcotest.(check int) "records survive"
        stats.Pipeline.lake_records m.Pipeline.record_count)

(* ---- sharded parallel replay ---- *)

let session_digest ?pre ~jobs dir =
  let s = Pipeline.Session.create ~jobs () in
  (match pre with
   | None -> ()
   | Some w -> ignore (Pipeline.Session.mine s [ w ]));
  let m = Pipeline.Session.mine_lake s dir in
  (Pipeline.Session.encode s, m)

let test_fold_range_partition_exact () =
  with_tmp_dir (fun dir ->
      (* records_per_block:7 over a 477-record trace leaves a partial
         final block, so every split point below exercises it. *)
      let w = workload "pi" in
      let path = Filename.concat dir "w.seg" in
      record ~records_per_block:7 w path;
      let full, info = Segment.fold ~init:[] ~f:(fun acc r -> r :: acc) path in
      let nblocks = info.Segment.blocks in
      Alcotest.(check bool) "several blocks" true (nblocks > 2);
      for k = 0 to nblocks do
        let head, hinfo =
          Segment.fold_range ~last_block:k ~init:[]
            ~f:(fun acc r -> r :: acc) path
        in
        let tail, tinfo =
          Segment.fold_range ~first_block:k ~init:[]
            ~f:(fun acc r -> r :: acc) path
        in
        Alcotest.(check int)
          (Printf.sprintf "blocks split at %d" k)
          nblocks
          (hinfo.Segment.blocks + tinfo.Segment.blocks);
        Alcotest.(check int)
          (Printf.sprintf "bytes split at %d" k)
          info.Segment.bytes
          (hinfo.Segment.bytes + tinfo.Segment.bytes);
        Alcotest.(check bool)
          (Printf.sprintf "records split at %d" k)
          true
          (full = tail @ head)
      done;
      (* A range past the end is empty, not an error. *)
      let past, pinfo =
        Segment.fold_range ~first_block:(nblocks + 3) ~init:[]
          ~f:(fun acc r -> r :: acc) path
      in
      Alcotest.(check bool) "past-end range is empty" true
        (past = [] && pinfo.Segment.blocks = 0);
      Alcotest.check_raises "inverted range"
        (Invalid_argument "Segment.fold_range: invalid block range")
        (fun () ->
           ignore (Segment.fold_range ~first_block:3 ~last_block:1 ~init:()
                     ~f:(fun () _ -> ()) path)))

let test_fold_range_empty_and_single_block () =
  with_tmp_dir (fun dir ->
      (* An empty segment: one self-describing empty block. *)
      let empty = Filename.concat dir "empty.seg" in
      Segment.with_writer ~workload:"nothing" empty (fun _ -> ());
      let n, info =
        Segment.fold_range ~init:0 ~f:(fun n _ -> n + 1) empty
      in
      Alcotest.(check int) "empty segment: no records" 0 n;
      Alcotest.(check int) "empty segment: one block" 1 info.Segment.blocks;
      Alcotest.(check (list string)) "empty segment: workload survives"
        [ "nothing" ] info.Segment.workloads;
      (* Single-block segment: the only valid proper split is trivial. *)
      let w = workload "helloworld" in
      let one = Filename.concat dir "one.seg" in
      record ~records_per_block:100000 w one;
      let full, finfo = Segment.fold ~init:0 ~f:(fun n _ -> n + 1) one in
      Alcotest.(check int) "single block" 1 finfo.Segment.blocks;
      let ranged, rinfo =
        Segment.fold_range ~first_block:0 ~last_block:1 ~init:0
          ~f:(fun n _ -> n + 1) one
      in
      Alcotest.(check int) "single block range == fold" full ranged;
      Alcotest.(check int) "single block range bytes" finfo.Segment.bytes
        rinfo.Segment.bytes)

let test_scratch_equal () =
  with_tmp_dir (fun dir ->
      let w = workload "bitcount" in
      let path = Filename.concat dir "w.seg" in
      record ~records_per_block:16 w path;
      let digest ?scratch () =
        let engine = Engine.create () in
        let (), info =
          Segment.fold ?scratch ~init:()
            ~f:(fun () r -> Engine.observe engine r) path
        in
        (Engine.encode engine, info)
      in
      let base, binfo = digest () in
      let scr, sinfo = digest ~scratch:(Segment.scratch ()) () in
      Alcotest.(check bool) "scratch identical" true (String.equal base scr);
      Alcotest.(check int) "infos agree" binfo.Segment.records
        sinfo.Segment.records;
      (* One scratch reused across segments must not leak state. *)
      let scratch = Segment.scratch () in
      let e2 = Engine.create () in
      let fold_into () =
        ignore
          (Segment.fold ~scratch ~init:()
             ~f:(fun () r -> Engine.observe e2 r) path)
      in
      fold_into ();
      fold_into ();
      Alcotest.(check bool) "scratch reuse == append semantics" true
        (String.equal (Engine.encode (mine_live [ w; w ])) (Engine.encode e2)))

let prop_shard_spans_partition =
  qtest ~count:30 "shard_spans partitions every block of every segment"
    QCheck.(pair (int_range 1 12) (int_range 3 40))
    (fun (jobs, records_per_block) ->
       with_tmp_dir (fun dir ->
           let names = [ "helloworld"; "pi" ] in
           List.iter
             (fun n ->
                record ~records_per_block (workload n)
                  (Segment.segment_path ~dir ~workload:n))
             names;
           let segments = Segment.lake_segments dir in
           let spans = Segment.shard_spans ~jobs segments in
           List.for_all
             (fun path ->
                let sizes = Array.of_list (Segment.block_sizes path) in
                let mine =
                  List.filter
                    (fun sp -> String.equal sp.Segment.sp_path path)
                    spans
                in
                (* Contiguous, ordered, covering [0, nblocks), with
                   byte counts matching the headers. *)
                let rec covers next = function
                  | [] -> next = Array.length sizes
                  | sp :: rest ->
                    sp.Segment.sp_first = next
                    && sp.Segment.sp_last > sp.Segment.sp_first
                    && sp.Segment.sp_bytes
                       = (let b = ref 0 in
                          for i = sp.Segment.sp_first
                            to sp.Segment.sp_last - 1 do
                            b := !b + sizes.(i)
                          done;
                          !b)
                    && covers sp.Segment.sp_last rest
                in
                covers 0 mine)
             segments))

let prop_parallel_lake_identical =
  qtest ~count:10 "mine_lake jobs=n == jobs=1 (SCIFSNAP bytes + rows)"
    QCheck.(triple (int_range 2 8) (int_bound 1000) (int_range 3 60))
    (fun (jobs, seed, records_per_block) ->
       with_tmp_dir (fun dir ->
           (* Two fuzz workloads with tiny blocks so the shard planner
              has real split points, plus an appended segment so one
              file holds two workloads' blocks. *)
           let w1 = Fuzz.Gen.candidate ~seed ~index:1 in
           let w2 = Fuzz.Gen.candidate ~seed ~index:2 in
           let p1 = Segment.segment_path ~dir ~workload:"a" in
           record ~records_per_block w1 p1;
           (* Append the second workload to the same file: one segment,
              two workload labels, so a span boundary can land between
              them and the row label must still stitch to "w1+w2". *)
           record ~records_per_block w2 p1;
           record ~records_per_block w2 (Segment.segment_path ~dir ~workload:"b");
           let seq, mseq = session_digest ~jobs:1 dir in
           let par, mpar = session_digest ~jobs dir in
           String.equal seq par
           && mseq.Pipeline.record_count = mpar.Pipeline.record_count
           && mseq.Pipeline.trace_bytes = mpar.Pipeline.trace_bytes
           && List.map (fun r -> r.Pipeline.group_label) mseq.Pipeline.figure3
              = List.map (fun r -> r.Pipeline.group_label) mpar.Pipeline.figure3))

let test_parallel_more_jobs_than_blocks () =
  with_tmp_dir (fun dir ->
      (* One single-block segment and one empty segment, replayed at
         jobs far beyond the block count. *)
      let w = workload "helloworld" in
      record ~records_per_block:100000 w
        (Segment.segment_path ~dir ~workload:w.Workloads.Rt.name);
      Segment.with_writer ~workload:"nothing"
        (Segment.segment_path ~dir ~workload:"nothing") (fun _ -> ());
      let seq, mseq = session_digest ~jobs:1 dir in
      let par, mpar = session_digest ~jobs:16 dir in
      Alcotest.(check bool) "jobs=16 == jobs=1 on a 2-block lake" true
        (String.equal seq par);
      Alcotest.(check int) "row per segment" 2
        (List.length mpar.Pipeline.figure3);
      Alcotest.(check int) "record counts agree" mseq.Pipeline.record_count
        mpar.Pipeline.record_count)

let test_parallel_incremental_session () =
  with_tmp_dir (fun dir ->
      (* A session that already holds live-mined state must absorb a
         parallel lake replay identically to a sequential one. *)
      let names = [ "bitcount"; "pi" ] in
      ignore (Pipeline.record_lake ~names ~dir ());
      let pre = workload "helloworld" in
      let seq, _ = session_digest ~pre ~jobs:1 dir in
      let par, _ = session_digest ~pre ~jobs:4 dir in
      Alcotest.(check bool) "incremental parallel == sequential" true
        (String.equal seq par))

let test_record_lake_parallel_identical () =
  with_tmp_dir (fun seq_dir ->
      with_tmp_dir (fun par_dir ->
          let names = [ "bitcount"; "helloworld"; "pi" ] in
          let s1 = Pipeline.record_lake ~names ~jobs:1 ~dir:seq_dir () in
          let s3 = Pipeline.record_lake ~names ~jobs:3 ~dir:par_dir () in
          Alcotest.(check int) "records agree" s1.Pipeline.lake_records
            s3.Pipeline.lake_records;
          Alcotest.(check int) "bytes agree" s1.Pipeline.lake_bytes
            s3.Pipeline.lake_bytes;
          List.iter
            (fun n ->
               let read dir =
                 Util.Binio.read_file (Segment.segment_path ~dir ~workload:n)
               in
               Alcotest.(check bool)
                 (Printf.sprintf "segment %s byte-identical" n)
                 true
                 (String.equal (read seq_dir) (read par_dir)))
            names))

let test_record_lake_duplicate_names_sequential () =
  with_tmp_dir (fun dir ->
      (* Duplicate names share one segment file: parallel recording must
         fall back to sequential appends rather than interleave. *)
      let stats =
        Pipeline.record_lake ~names:[ "pi"; "pi" ] ~jobs:4 ~dir ()
      in
      Alcotest.(check int) "two recordings" 2 stats.Pipeline.lake_segments;
      let w = workload "pi" in
      Alcotest.(check bool) "lake == live twice" true
        (String.equal
           (Engine.encode (mine_live [ w; w ]))
           (Engine.encode
              (mine_segment
                 (Segment.segment_path ~dir ~workload:w.Workloads.Rt.name)))))

let () =
  Alcotest.run "segment"
    [ ("roundtrip",
       [ Alcotest.test_case "records bit-identical across blocks" `Quick
           test_roundtrip_records_exact;
         Alcotest.test_case "stream == replay (SCIFSNAP bytes)" `Quick
           test_stream_equals_replay_engine_bytes;
         Alcotest.test_case "append composes" `Quick test_append_composes;
         Alcotest.test_case "file concat is corpus replication" `Quick
           test_concat_is_replication;
         prop_fuzz_roundtrip ]);
      ("hostile",
       [ Alcotest.test_case "truncation at every byte offset" `Quick
           test_truncation_at_every_offset;
         Alcotest.test_case "bit flip rejected" `Quick test_bitflip_rejected;
         Alcotest.test_case "foreign/future/empty rejected" `Quick
           test_foreign_and_future_rejected ]);
      ("lake",
       [ Alcotest.test_case "mine_lake == live sequential" `Quick
           test_lake_mine_matches_live;
         Alcotest.test_case "append accumulates" `Quick
           test_lake_append_accumulates;
         Alcotest.test_case "hostile workload name contained" `Quick
           test_lake_slash_named_workload ]);
      ("parallel",
       [ Alcotest.test_case "fold_range partitions exactly at every block"
           `Quick test_fold_range_partition_exact;
         Alcotest.test_case "empty segment and single block" `Quick
           test_fold_range_empty_and_single_block;
         Alcotest.test_case "scratch changes nothing" `Quick
           test_scratch_equal;
         prop_shard_spans_partition;
         prop_parallel_lake_identical;
         Alcotest.test_case "more jobs than blocks" `Quick
           test_parallel_more_jobs_than_blocks;
         Alcotest.test_case "parallel replay into a non-fresh session" `Quick
           test_parallel_incremental_session;
         Alcotest.test_case "parallel record_lake byte-identical" `Quick
           test_record_lake_parallel_identical;
         Alcotest.test_case "duplicate names record sequentially" `Quick
           test_record_lake_duplicate_names_sequential ]) ]
