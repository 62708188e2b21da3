(* The flight recorder's acceptance properties: provenance changes
   nothing about what the engine mines, deaths carry a usable evidence
   trail (workload + record + tick), the per-family first-death summary
   survives ring eviction, witnesses attribute surviving invariants,
   provenance round-trips through the v2 codec (and its absence keeps
   the v1 bytes), and shard merging accumulates both sides' records. *)

module Engine = Daikon.Engine
module Expr = Invariant.Expr
module Pipeline = Scifinder_core.Pipeline

let trace_into engine name =
  let w = Option.get (Workloads.Suite.by_name name) in
  Engine.set_workload engine name;
  ignore
    (Trace.Runner.stream ~tick_period:w.Workloads.Rt.tick_period
       ~entry:w.Workloads.Rt.entry
       ~observer:(Engine.observe engine) w.Workloads.Rt.image)

let mined ?(provenance = true) ?prov_capacity names =
  let e = Engine.create ~provenance ?prov_capacity () in
  List.iter (trace_into e) names;
  e

let strings engine = List.map Expr.to_string (Engine.invariants engine)

let total_deaths e =
  List.fold_left (fun acc (_, n, _) -> acc + n) 0 (Engine.death_families e)

(* ---- provenance is observer-only ---- *)

let test_provenance_neutral () =
  let plain = mined ~provenance:false [ "helloworld"; "pi" ] in
  let prov = mined [ "helloworld"; "pi" ] in
  Alcotest.(check bool) "flag reads back" true (Engine.provenance_enabled prov);
  Alcotest.(check bool) "flag off reads back" false
    (Engine.provenance_enabled plain);
  Alcotest.(check (list string)) "identical invariant set"
    (strings plain) (strings prov);
  Alcotest.(check bool) "identical candidate stats" true
    (Engine.candidate_stats plain = Engine.candidate_stats prov);
  Alcotest.(check int) "identical record count"
    (Engine.record_count plain) (Engine.record_count prov);
  (* Without provenance every reader degrades to the empty answer. *)
  Alcotest.(check int) "no deaths without provenance" 0
    (List.length (Engine.deaths plain));
  Alcotest.(check int) "no families without provenance" 0
    (List.length (Engine.death_families plain))

let test_pipeline_provenance_neutral () =
  let names = [ "helloworld"; "pi" ] in
  let plain = Pipeline.mine_invariants ~jobs:2 ~names () in
  let prov = Pipeline.mine_invariants ~jobs:2 ~provenance:true ~names () in
  Alcotest.(check (list string)) "sharded mining unchanged by provenance"
    (List.map Expr.to_string plain) (List.map Expr.to_string prov)

(* ---- the evidence trail ---- *)

let known_families = [ "oneof"; "mod"; "relation"; "diff"; "scale" ]

let test_deaths_have_evidence () =
  let e = mined [ "helloworld" ] in
  let deaths = Engine.deaths e in
  Alcotest.(check bool) "some candidates died" true (deaths <> []);
  List.iter
    (fun (d : Engine.death) ->
       Alcotest.(check bool) ("known family: " ^ d.d_family) true
         (List.mem d.d_family known_families);
       Alcotest.(check string) "killing workload named" "helloworld"
         d.d_workload;
       Alcotest.(check bool) "record ordinal positive" true (d.d_record > 0);
       Alcotest.(check bool) "tick within the workload" true
         (d.d_tick > 0 && d.d_tick <= d.d_record);
       Alcotest.(check bool) "candidate described" true
         (String.length d.d_desc > 0 && String.length d.d_point > 0))
    deaths;
  (* The per-family summary and the ring agree on the total. *)
  Alcotest.(check int) "families sum = ring + evicted"
    (List.length deaths + Engine.deaths_dropped e)
    (total_deaths e)

let test_first_death_survives_eviction () =
  let tiny = mined ~prov_capacity:8 [ "helloworld"; "basicmath" ] in
  let full = mined [ "helloworld"; "basicmath" ] in
  Alcotest.(check bool) "tiny ring actually evicted" true
    (Engine.deaths_dropped tiny > 0);
  Alcotest.(check int) "at most 8 deaths retained" 8
    (max 8 (List.length (Engine.deaths tiny)));
  (* Eviction loses ring entries, never the per-family accounting. *)
  List.iter2
    (fun (fam_t, n_t, first_t) (fam_f, n_f, first_f) ->
       Alcotest.(check string) "same families" fam_f fam_t;
       Alcotest.(check int) ("same death count: " ^ fam_t) n_f n_t;
       match (first_t, first_f) with
       | Some a, Some b ->
         Alcotest.(check string) "same first victim" b.Engine.d_desc
           a.Engine.d_desc;
         Alcotest.(check int) "same killing record" b.Engine.d_record
           a.Engine.d_record
       | None, None -> ()
       | _ -> Alcotest.fail ("first-death mismatch for " ^ fam_t))
    (Engine.death_families tiny) (Engine.death_families full)

let test_witnesses () =
  let e = mined [ "helloworld"; "pi" ] in
  let witnessed =
    List.filter_map (Engine.narrow_witness e) (Engine.invariants e)
  in
  Alcotest.(check bool) "some survivors carry witnesses" true
    (witnessed <> []);
  List.iter
    (fun (w : Engine.witness) ->
       Alcotest.(check bool) "witness names a real workload" true
         (List.mem w.w_workload [ "helloworld"; "pi" ]);
       Alcotest.(check bool) "witness record positive" true (w.w_record > 0))
    witnessed;
  (* Without provenance, no attribution. *)
  let plain = mined ~provenance:false [ "helloworld" ] in
  Alcotest.(check bool) "no witness without provenance" true
    (List.for_all
       (fun i -> Engine.narrow_witness plain i = None)
       (Engine.invariants plain))

(* ---- the codec ---- *)

let version_byte data = Char.code data.[8]

let test_codec_version_bytes () =
  let plain = Engine.encode (mined ~provenance:false [ "pi" ]) in
  let prov = Engine.encode (mined [ "pi" ]) in
  (* No provenance -> the exact pre-flight-recorder format: version 1.
     Enabling it appends the new section under a bumped version. *)
  Alcotest.(check int) "prov-off encodes as v1" 1 (version_byte plain);
  Alcotest.(check int) "prov-on encodes as v2" 2 (version_byte prov);
  Alcotest.(check int) "newest accepted version" 2 Engine.codec_version

let test_codec_roundtrip_provenance () =
  let e = mined [ "helloworld"; "pi" ] in
  let back = Engine.decode (Engine.encode e) in
  Alcotest.(check bool) "provenance survives the codec" true
    (Engine.provenance_enabled back);
  Alcotest.(check (list string)) "same invariants" (strings e) (strings back);
  Alcotest.(check int) "same dropped count" (Engine.deaths_dropped e)
    (Engine.deaths_dropped back);
  Alcotest.(check bool) "same death ring" true
    (Engine.deaths e = Engine.deaths back);
  Alcotest.(check bool) "same family summary" true
    (Engine.death_families e = Engine.death_families back);
  Alcotest.(check bool) "same witnesses" true
    (List.for_all
       (fun i -> Engine.narrow_witness e i = Engine.narrow_witness back i)
       (Engine.invariants e))

let test_codec_v1_still_decodes () =
  (* A v1 snapshot (prov-off bytes) loads into a provenance-less engine
     that behaves exactly like the original. *)
  let e = mined ~provenance:false [ "pi" ] in
  let back = Engine.decode (Engine.encode e) in
  Alcotest.(check bool) "v1 loads without provenance" false
    (Engine.provenance_enabled back);
  Alcotest.(check (list string)) "same invariants" (strings e) (strings back);
  (* And prov-off encoding is deterministic: same trace, same bytes —
     the property that keeps pre-existing shard caches hot. *)
  Alcotest.(check bool) "prov-off bytes canonical" true
    (String.equal (Engine.encode e)
       (Engine.encode (mined ~provenance:false [ "pi" ])))

(* ---- merging shards ---- *)

let test_merge_accumulates_provenance () =
  let a = mined [ "pi" ] in
  let b = mined [ "helloworld" ] in
  let a_total = total_deaths a and b_total = total_deaths b in
  let sequential = mined ~provenance:false [ "pi"; "helloworld" ] in
  Engine.merge_into a b;
  Alcotest.(check (list string)) "merged invariants = sequential"
    (strings sequential) (strings a);
  (* The merge keeps both shards' records and adds its own (the join
     itself falsifies candidates the shards disagreed on). *)
  Alcotest.(check bool) "the join itself killed candidates" true
    (total_deaths a > a_total + b_total);
  let merge_kills =
    List.filter
      (fun (d : Engine.death) ->
         String.length d.d_workload >= 6
         && String.equal (String.sub d.d_workload 0 6) "merge:")
      (Engine.deaths a)
  in
  Alcotest.(check bool) "merge-time kills are labelled" true
    (merge_kills <> []);
  (* The bounded ring plus the eviction count still accounts for every
     accumulated record. *)
  Alcotest.(check int) "ring + evicted = family totals"
    (List.length (Engine.deaths a) + Engine.deaths_dropped a)
    (total_deaths a)

(* ---- the pipeline report ---- *)

let test_pipeline_report () =
  let groups = [ [ "helloworld" ]; [ "basicmath" ] ] in
  let labels = [ "helloworld"; "basicmath" ] in
  let m = Pipeline.mine ~jobs:2 ~provenance:true ~groups ~labels () in
  let pr =
    match m.Pipeline.prov with
    | Some pr -> pr
    | None -> Alcotest.fail "provenance mining returned no report"
  in
  (* The acceptance bar: at least one fully attributed death per family
     that died at all, with the killing workload and record named. *)
  Alcotest.(check bool) "families died" true (pr.death_families <> []);
  List.iter
    (fun (fam, n, first) ->
       Alcotest.(check bool) ("family counted: " ^ fam) true (n > 0);
       match first with
       | Some (d : Engine.death) ->
         Alcotest.(check bool) ("first death attributed: " ^ fam) true
           (String.length d.d_workload > 0 && d.d_record > 0)
       | None -> Alcotest.fail ("family with no first death: " ^ fam))
    pr.death_families;
  Alcotest.(check bool) "witnesses attributed" true (pr.witnesses <> []);
  (* The prov-less run of the same corpus mines the same set. *)
  let plain = Pipeline.mine ~jobs:2 ~groups ~labels () in
  Alcotest.(check bool) "no report without the flag" true
    (plain.Pipeline.prov = None);
  Alcotest.(check (list string)) "identical invariants"
    (List.map Expr.to_string plain.Pipeline.invariants)
    (List.map Expr.to_string m.Pipeline.invariants)

let test_provenance_cache () =
  (* Shard caching composes with provenance: a warm provenance run is
     identical, and the v2 shard snapshots restore the death records. *)
  let dir = Filename.temp_file "scifinder_provcache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
        Array.iter
          (fun n ->
             try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
       let names = [ "helloworld" ] in
       let cold =
         Pipeline.mine_invariants ~jobs:1 ~provenance:true ~cache_dir:dir
           ~names ()
       in
       let warm =
         Pipeline.mine_invariants ~jobs:1 ~provenance:true ~cache_dir:dir
           ~names ()
       in
       let s = List.map Expr.to_string in
       Alcotest.(check (list string)) "warm equals cold" (s cold) (s warm);
       Alcotest.(check bool) "shard cached" true
         (Array.exists
            (fun n -> String.starts_with ~prefix:"shard-" n)
            (Sys.readdir dir));
       let plain =
         Pipeline.mine_invariants ~jobs:1 ~cache_dir:dir ~names ()
       in
       Alcotest.(check (list string))
         "provenance-off run never adopts a provenance shard (same set \
          re-mined)"
         (s cold) (s plain))

(* A lake replay attributes deaths and witnesses exactly as live mining
   of the same workloads in lake order does: ticks count records within
   a workload, not within a segment block. *)
let test_lake_provenance_matches_live () =
  let dir = Filename.temp_file "scifinder_provlake" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
        Array.iter
          (fun n ->
             try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
       (* Already in lake (sorted filename) order; 64-record blocks make
          every workload span several blocks. *)
       let names = [ "bitcount"; "helloworld"; "pi" ] in
       List.iter
         (fun name ->
            let w = Option.get (Workloads.Suite.by_name name) in
            Trace.Segment.with_writer ~records_per_block:64 ~workload:name
              (Trace.Segment.segment_path ~dir ~workload:name)
              (fun sw ->
                 ignore
                   (Trace.Runner.stream_to_segment ~tick_period:w.tick_period
                      ~entry:w.entry ~writer:sw w.image)))
         names;
       let report (m : Pipeline.mining) =
         match m.Pipeline.prov with
         | Some pr -> pr
         | None -> Alcotest.fail "provenance mining returned no report"
       in
       let lake = report (Pipeline.mine_lake ~provenance:true dir) in
       let live =
         report
           (Pipeline.mine ~jobs:1 ~provenance:true
              ~groups:(List.map (fun n -> [ n ]) names) ~labels:names ())
       in
       let death (d : Engine.death) =
         Printf.sprintf "%s %s %s by %s at record %d tick %d" d.d_point
           d.d_family d.d_desc d.d_workload d.d_record d.d_tick
       in
       let witness (i, (w : Engine.witness)) =
         Printf.sprintf "%s: %s record %d tick %d" (Expr.to_string i)
           w.w_workload w.w_record w.w_tick
       in
       Alcotest.(check bool) "ticks run past one block" true
         (List.exists (fun (d : Engine.death) -> d.d_tick > 64) live.deaths);
       Alcotest.(check (list string)) "deaths"
         (List.map death live.deaths) (List.map death lake.deaths);
       Alcotest.(check int) "deaths dropped" live.deaths_dropped
         lake.deaths_dropped;
       Alcotest.(check (list string)) "first death per family"
         (List.filter_map (fun (_, _, d) -> Option.map death d)
            live.death_families)
         (List.filter_map (fun (_, _, d) -> Option.map death d)
            lake.death_families);
       Alcotest.(check (list string)) "witnesses"
         (List.map witness live.witnesses) (List.map witness lake.witnesses))

let () =
  Alcotest.run "flightrec"
    [ ("neutrality",
       [ Alcotest.test_case "engine-level" `Quick test_provenance_neutral;
         Alcotest.test_case "pipeline-level" `Quick
           test_pipeline_provenance_neutral ]);
      ("evidence",
       [ Alcotest.test_case "deaths name their killer" `Quick
           test_deaths_have_evidence;
         Alcotest.test_case "first death survives eviction" `Quick
           test_first_death_survives_eviction;
         Alcotest.test_case "witnesses attribute survivors" `Quick
           test_witnesses ]);
      ("codec",
       [ Alcotest.test_case "version bytes" `Quick test_codec_version_bytes;
         Alcotest.test_case "v2 roundtrip" `Quick
           test_codec_roundtrip_provenance;
         Alcotest.test_case "v1 compatibility" `Quick
           test_codec_v1_still_decodes ]);
      ("merge",
       [ Alcotest.test_case "provenance accumulates" `Quick
           test_merge_accumulates_provenance ]);
      ("pipeline",
       [ Alcotest.test_case "provenance report" `Quick test_pipeline_report;
         Alcotest.test_case "cache composes" `Quick test_provenance_cache;
         Alcotest.test_case "lake replay matches live" `Quick
           test_lake_provenance_matches_live ])
    ]
