(* Engine snapshot persistence: save -> load must give an observationally
   identical engine (same invariants, stats, and behaviour under further
   observation or merging), damaged files must be rejected as corrupt,
   and mismatched config/version (or a keyed file from the old shard
   cache) as stale. On top of that sits the pipeline's cache store:
   warm mining over a cache directory must be bit-identical to cold
   mining, whatever entry kind serves it. *)

module Engine = Daikon.Engine
module Expr = Invariant.Expr
module Pipeline = Scifinder_core.Pipeline

let trace_into engine name =
  let w = Option.get (Workloads.Suite.by_name name) in
  ignore
    (Trace.Runner.stream ~tick_period:w.Workloads.Rt.tick_period
       ~entry:w.Workloads.Rt.entry
       ~observer:(Engine.observe engine) w.Workloads.Rt.image)

let mined name =
  let engine = Engine.create () in
  trace_into engine name;
  engine

let strings engine = List.map Expr.to_string (Engine.invariants engine)

let check_observationally_equal msg a b =
  Alcotest.(check (list string)) (msg ^ ": invariants") (strings a) (strings b);
  Alcotest.(check int) (msg ^ ": record count")
    (Engine.record_count a) (Engine.record_count b);
  Alcotest.(check (list string)) (msg ^ ": points")
    (Engine.points a) (Engine.points b);
  Alcotest.(check bool) (msg ^ ": candidate stats") true
    (Engine.candidate_stats a = Engine.candidate_stats b)

(* ---- encode/decode ---- *)

let test_roundtrip () =
  let e = mined "pi" in
  let back = Engine.decode (Engine.encode e) in
  check_observationally_equal "decode (encode e)" e back

let test_roundtrip_is_canonical () =
  (* Identical state must encode to identical bytes — the property that
     makes snapshot files diffable and digests meaningful. *)
  let a = Engine.encode (mined "pi") and b = Engine.encode (mined "pi") in
  Alcotest.(check bool) "same bytes" true (String.equal a b)

let test_continued_observation () =
  let live = mined "pi" in
  let restored = Engine.decode (Engine.encode live) in
  trace_into live "helloworld";
  trace_into restored "helloworld";
  check_observationally_equal "observe after load" live restored

let test_merge_after_load () =
  let sequential = Engine.create () in
  trace_into sequential "pi";
  trace_into sequential "helloworld";
  let dst = mined "pi" in
  let src = Engine.decode (Engine.encode (mined "helloworld")) in
  Engine.merge_into dst src;
  Alcotest.(check (list string)) "merge of a loaded shard"
    (strings sequential) (strings dst)

let test_save_load_file () =
  let path = Filename.temp_file "scifinder_snap" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
    (fun () ->
       let e = mined "helloworld" in
       Engine.save e path;
       check_observationally_equal "load (save e)" e (Engine.load path))

(* ---- rejection ---- *)

let expect_corrupt msg data =
  match Engine.decode data with
  | _ -> Alcotest.fail ("expected Corrupt_snapshot: " ^ msg)
  | exception Engine.Corrupt_snapshot _ -> ()

let expect_stale msg f =
  match f () with
  | _ -> Alcotest.fail ("expected Stale_snapshot: " ^ msg)
  | exception Engine.Stale_snapshot _ -> ()

let test_corrupt () =
  let data = Engine.encode (mined "pi") in
  expect_corrupt "empty" "";
  expect_corrupt "bad magic" ("XXXXXXXX" ^ String.sub data 8 64);
  expect_corrupt "truncated half"
    (String.sub data 0 (String.length data / 2));
  expect_corrupt "truncated by one byte"
    (String.sub data 0 (String.length data - 1));
  (* Flip one payload byte: the digest check must catch it. *)
  let flipped = Bytes.of_string data in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 1));
  expect_corrupt "bit flip" (Bytes.to_string flipped)

let test_stale () =
  let e = mined "pi" in
  let data = Engine.encode e in
  expect_stale "wrong config" (fun () ->
      Engine.decode
        ~config:{ Daikon.Config.default with min_samples = 7 } data);
  (* Bump the codec version byte (it sits right after the 8-byte magic
     as a one-byte varint while codec_version < 0x80). *)
  let bumped = Bytes.of_string data in
  Bytes.set bumped 8 (Char.chr (Engine.codec_version + 1));
  expect_stale "future codec version" (fun () ->
      Engine.decode (Bytes.to_string bumped));
  (* The empty key field follows the version byte; the old shard cache
     wrote a key there, and such a file is stale. *)
  Alcotest.(check char) "empty key field" '\000' data.[9];
  let keyed =
    String.sub data 0 9 ^ "\003old"
    ^ String.sub data 10 (String.length data - 10)
  in
  expect_stale "keyed file from the old cache" (fun () -> Engine.decode keyed)

(* ---- the pipeline cache store ---- *)

let with_cache_dir f =
  let dir = Filename.temp_file "scifinder_cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
        Array.iter
          (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let names = [ "pi"; "helloworld" ]

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let summary_hits () = counter "mine.cache.summary_hit"

let lake_session_digest ?cache_dir dir =
  let s = Pipeline.Session.create ?cache_dir () in
  ignore (Pipeline.Session.mine_lake s dir);
  Pipeline.Session.engine_digest s

(* The cache's entries of one kind, in name order. *)
let entries dir kind =
  List.filter
    (fun n -> String.starts_with ~prefix:(kind ^ "-") n)
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* Damage an entry in place: cut it in half, or flip its last byte. *)
let truncate path =
  let len = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (len / 2);
  Unix.close fd

let flip_last_byte path =
  let b = Bytes.of_string (Util.Binio.read_file path) in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_cache_warm_equals_cold () =
  with_cache_dir (fun dir ->
      let uncached = Pipeline.mine_invariants ~jobs:1 ~names () in
      let cold = Pipeline.mine_invariants ~jobs:1 ~cache_dir:dir ~names () in
      let warm = Pipeline.mine_invariants ~jobs:1 ~cache_dir:dir ~names () in
      let s = List.map Expr.to_string in
      Alcotest.(check (list string)) "cold equals uncached" (s uncached) (s cold);
      Alcotest.(check (list string)) "warm equals cold" (s cold) (s warm);
      Alcotest.(check int) "one shard entry per workload" (List.length names)
        (List.length (entries dir "shard")))

let test_cache_full_mine () =
  with_cache_dir (fun dir ->
      let groups = [ [ "pi" ]; [ "helloworld" ] ] in
      let labels = [ "pi"; "helloworld" ] in
      let cold = Pipeline.mine ~jobs:1 ~groups ~labels ~cache_dir:dir () in
      let warm = Pipeline.mine ~jobs:1 ~groups ~labels ~cache_dir:dir () in
      Alcotest.(check (list string)) "invariants"
        (List.map Expr.to_string cold.Pipeline.invariants)
        (List.map Expr.to_string warm.Pipeline.invariants);
      Alcotest.(check bool) "figure3 rows" true
        (cold.Pipeline.figure3 = warm.Pipeline.figure3);
      Alcotest.(check int) "records"
        cold.Pipeline.record_count warm.Pipeline.record_count)

(* Every entry kind, truncated or bit-flipped, is rejected as stale,
   re-mined, and the run equals an uncached one. *)
let test_cache_rejects_damage () =
  let s = List.map Expr.to_string in
  let groups = [ [ "pi" ]; [ "helloworld" ] ] and labels = names in
  let uncached_shards = s (Pipeline.mine_invariants ~jobs:1 ~names ()) in
  let uncached_mine = Pipeline.mine ~jobs:1 ~groups ~labels () in
  List.iter
    (fun (how, damage) ->
       let damaged dir kind run =
         ignore (run ());
         let stale = counter "mine.cache.stale" in
         damage (Filename.concat dir (List.hd (entries dir kind)));
         let again = run () in
         Alcotest.(check int) (how ^ " " ^ kind ^ " counted stale")
           (stale + 1) (counter "mine.cache.stale");
         again
       in
       with_cache_dir (fun dir ->
           Alcotest.(check (list string)) (how ^ " shard re-mined")
             uncached_shards
             (s (damaged dir "shard" (fun () ->
                  Pipeline.mine_invariants ~jobs:1 ~cache_dir:dir ~names ()))));
       with_cache_dir (fun dir ->
           let m =
             damaged dir "summary" (fun () ->
                 Pipeline.mine ~jobs:1 ~groups ~labels ~cache_dir:dir ())
           in
           Alcotest.(check (list string)) (how ^ " summary re-mined")
             (s uncached_mine.Pipeline.invariants) (s m.Pipeline.invariants);
           Alcotest.(check bool) (how ^ " summary rows") true
             (uncached_mine.Pipeline.figure3 = m.Pipeline.figure3
              && uncached_mine.Pipeline.record_count = m.Pipeline.record_count));
       with_cache_dir (fun lake ->
           with_cache_dir (fun cache ->
               ignore (Pipeline.record_lake ~names ~dir:lake ());
               Alcotest.(check string) (how ^ " lake re-mined")
                 (lake_session_digest lake)
                 (damaged cache "lake" (fun () ->
                      lake_session_digest ~cache_dir:cache lake)))))
    [ ("truncated", truncate); ("bit-flipped", flip_last_byte) ]

(* Runs that differ in provenance or config name different entries, so
   after one run of each, every further run of any of them hits every
   shard: nothing re-mines, nothing is overwritten. *)
let test_cache_keeps_every_run () =
  with_cache_dir (fun dir ->
      let tight = { Daikon.Config.default with min_samples = 500 } in
      let plain () = Pipeline.mine_invariants ~jobs:1 ~cache_dir:dir ~names ()
      and prov () =
        Pipeline.mine_invariants ~jobs:1 ~provenance:true ~cache_dir:dir
          ~names ()
      and other () =
        Pipeline.mine_invariants ~config:tight ~jobs:1 ~cache_dir:dir ~names ()
      in
      List.iter (fun run -> ignore (run ())) [ plain; prov; other ];
      List.iter
        (fun (label, run) ->
           let hit = counter "mine.cache.hit"
           and miss = counter "mine.cache.miss"
           and stale = counter "mine.cache.stale" in
           ignore (run ());
           Alcotest.(check (list int)) (label ^ ": hit/miss/stale")
             [ List.length names; 0; 0 ]
             [ counter "mine.cache.hit" - hit;
               counter "mine.cache.miss" - miss;
               counter "mine.cache.stale" - stale ])
        [ ("plain", plain); ("provenance", prov); ("plain again", plain);
          ("second config", other); ("provenance again", prov);
          ("second config again", other) ])

let test_cache_stale_config () =
  with_cache_dir (fun dir ->
      let tight = { Daikon.Config.default with min_samples = 500 } in
      let a = Pipeline.mine_invariants ~jobs:1 ~cache_dir:dir ~names () in
      (* Different fingerprint: must not serve the default-config shards. *)
      let b =
        Pipeline.mine_invariants ~config:tight ~jobs:1 ~cache_dir:dir ~names ()
      in
      let c = Pipeline.mine_invariants ~config:tight ~jobs:1 ~names () in
      let s = List.map Expr.to_string in
      Alcotest.(check (list string)) "tight config re-mined, not served stale"
        (s c) (s b);
      Alcotest.(check bool) "the two configs genuinely differ" true
        (s a <> s b))

let test_cache_slash_named_workload () =
  with_cache_dir (fun dir ->
      (* A registered/fuzz workload is free to carry '/' or '..' in its
         name; its shard must cache INSIDE the cache dir (entries are
         named by their key, never by the workload) and reload from
         there, never escape. *)
      let base = Option.get (Workloads.Suite.by_name "helloworld") in
      let evil = { base with Workloads.Rt.name = "../escapee/x" } in
      let groups = [ [ evil.Workloads.Rt.name ] ] and labels = [ "evil" ] in
      let mine () =
        Pipeline.mine ~workloads:[ evil ] ~groups ~labels ~jobs:1
          ~cache_dir:dir ()
      in
      let cold = mine () in
      Alcotest.(check int) "shard cached inside the cache dir" 1
        (List.length (entries dir "shard"));
      Alcotest.(check bool) "nothing escaped the cache dir" false
        (Sys.file_exists
           (Filename.concat (Filename.dirname dir) "escapee"));
      let warm = mine () in
      Alcotest.(check (list string)) "warm reload identical"
        (List.map Expr.to_string cold.Pipeline.invariants)
        (List.map Expr.to_string warm.Pipeline.invariants);
      Alcotest.(check int) "records identical"
        cold.Pipeline.record_count warm.Pipeline.record_count)

(* ---- the lake warm cache ----

   mine_lake over a cache directory keys its snapshot on the segment
   BLOCK digests (Segment.block_digests), so a warm hit is provably
   bound to the lake's bytes: byte-identical engine on a hit, and any
   appended or altered block changes the key and re-mines. *)

let test_lake_cache_warm_equals_cold () =
  with_cache_dir (fun lake ->
      with_cache_dir (fun cache ->
          ignore (Pipeline.record_lake ~names ~dir:lake ());
          let reference = lake_session_digest lake in
          let cold = Pipeline.mine_lake ~cache_dir:cache lake in
          let hits = summary_hits () in
          let warm = Pipeline.mine_lake ~cache_dir:cache lake in
          Alcotest.(check int) "warm run hit the summary cache"
            (hits + 1) (summary_hits ());
          let s = List.map Expr.to_string in
          Alcotest.(check (list string)) "invariants"
            (s cold.Pipeline.invariants) (s warm.Pipeline.invariants);
          Alcotest.(check bool) "figure3 rows identical" true
            (cold.Pipeline.figure3 = warm.Pipeline.figure3);
          Alcotest.(check int) "records"
            cold.Pipeline.record_count warm.Pipeline.record_count;
          Alcotest.(check int) "trace bytes"
            cold.Pipeline.trace_bytes warm.Pipeline.trace_bytes;
          Alcotest.(check string) "warm engine bytes == uncached sequential"
            reference (lake_session_digest ~cache_dir:cache lake);
          (* One file per lake result, named by its key. *)
          Alcotest.(check int) "one lake entry" 1
            (List.length (entries cache "lake"));
          Alcotest.(check bool) "every entry is <kind>-<md5>" true
            (Array.for_all
               (fun n ->
                  match String.index_opt n '-' with
                  | Some i ->
                    List.mem (String.sub n 0 i) [ "shard"; "summary"; "lake" ]
                    && String.length n - i - 1 = 32
                  | None -> false)
               (Sys.readdir cache))))

let test_lake_cache_append_invalidates () =
  with_cache_dir (fun lake ->
      with_cache_dir (fun cache ->
          let s1 = Pipeline.record_lake ~names ~dir:lake () in
          let cold = Pipeline.mine_lake ~cache_dir:cache lake in
          (* Appending to the lake changes the block digests: the stale
             snapshot must not be served. *)
          ignore (Pipeline.record_lake ~names ~dir:lake ());
          let grown = Pipeline.mine_lake ~cache_dir:cache lake in
          Alcotest.(check int) "appended records mined, not stale-served"
            (cold.Pipeline.record_count + s1.Pipeline.lake_records)
            grown.Pipeline.record_count;
          Alcotest.(check string) "grown engine == uncached over grown lake"
            (lake_session_digest lake)
            (lake_session_digest ~cache_dir:cache lake)))

(* ---- Figure 3 rows against the whole-set diff ----

   Sessions diff per-point key caches ([Daikon.Engine.point_keys]); the
   oracle is the diff they replaced: every canonical key of
   [Session.invariants] in one table, diffed against the previous row's
   table. *)

let oracle_row previous ~label invs =
  let current = Hashtbl.create 4096 in
  List.iter (fun i -> Hashtbl.replace current (Expr.canonical i) ()) invs;
  let unmodified = ref 0 and fresh = ref 0 and deleted = ref 0 in
  Hashtbl.iter
    (fun k () ->
       if Hashtbl.mem !previous k then incr unmodified else incr fresh)
    current;
  Hashtbl.iter
    (fun k () -> if not (Hashtbl.mem current k) then incr deleted)
    !previous;
  previous := current;
  { Pipeline.group_label = label; unmodified = !unmodified; fresh = !fresh;
    deleted = !deleted; total = Hashtbl.length current }

let pp_row (r : Pipeline.figure3_row) =
  Printf.sprintf "%s %d/%d/%d/%d" r.group_label r.unmodified r.fresh
    r.deleted r.total

let check_rows msg expected got =
  Alcotest.(check (list string)) msg (List.map pp_row expected)
    (List.map pp_row got)

let workload name = Option.get (Workloads.Suite.by_name name)

(* Random groupings and orders of 3-5 corpus programs through
   [Session.mine], each group with or without a row: every row equals the
   oracle's, and a skipped row leaves the oracle's baseline alone too. *)
let test_session_rows =
  let plan =
    QCheck.Gen.(
      let* k = 3 -- 5 in
      let* names = shuffle_l Workloads.Suite.names in
      let names = List.filteri (fun i _ -> i < k) names in
      let* cuts = list_repeat (k - 1) bool in
      let* rows = list_repeat k (frequency [ (3, return true); (1, return false) ]) in
      let groups, last =
        List.fold_left2
          (fun (groups, cur) name cut ->
             if cut then (List.rev (name :: cur) :: groups, [])
             else (groups, name :: cur))
          ([], []) names (cuts @ [ true ])
      in
      assert (last = []);
      return
        (List.combine (List.rev groups)
           (List.filteri (fun i _ -> i < List.length groups) rows)))
  in
  let print plan =
    String.concat " | "
      (List.map
         (fun (g, row) ->
            String.concat "+" g ^ if row then "" else " (no row)")
         plan)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6 ~name:"session rows = whole-set diff"
       (QCheck.make ~print plan)
       (fun plan ->
          let s = Pipeline.Session.create () in
          let previous = ref (Hashtbl.create 1) in
          List.for_all
            (fun (group, row) ->
               let o =
                 Pipeline.Session.mine s ~row (List.map workload group)
               in
               let expected =
                 if not row then []
                 else
                   [ oracle_row previous ~label:(String.concat "+" group)
                       (Pipeline.Session.invariants s) ]
               in
               o.Pipeline.Session.o_rows = expected)
            plan))

(* A 3-segment lake at jobs 1 and 2: one row per segment, each equal to
   the oracle's over the same programs mined live in segment order. *)
let test_lake_rows () =
  with_cache_dir (fun lake ->
      ignore
        (Pipeline.record_lake ~names:[ "pi"; "helloworld"; "bitcount" ]
           ~dir:lake ());
      List.iter
        (fun jobs ->
           let s = Pipeline.Session.create ~jobs () in
           let rows = (Pipeline.Session.mine_lake s lake).Pipeline.figure3 in
           Alcotest.(check int) "one row per segment" 3 (List.length rows);
           let live = Pipeline.Session.create () in
           let previous = ref (Hashtbl.create 1) in
           let expected =
             List.map
               (fun (r : Pipeline.figure3_row) ->
                  ignore
                    (Pipeline.Session.mine live ~row:false
                       [ workload r.group_label ]);
                  oracle_row previous ~label:r.group_label
                    (Pipeline.Session.invariants live))
               rows
           in
           check_rows (Printf.sprintf "lake rows at jobs %d" jobs) expected
             rows)
        [ 1; 2 ])

(* A warm lake-cache hit seeds the row baseline from the cached summary:
   the rows of the next mines equal the oracle's from that session. *)
let test_warm_lake_then_mine () =
  with_cache_dir (fun lake ->
      with_cache_dir (fun cache ->
          ignore (Pipeline.record_lake ~names ~dir:lake ());
          ignore
            (Pipeline.Session.mine_lake
               (Pipeline.Session.create ~cache_dir:cache ()) lake);
          let hits = summary_hits () in
          let s = Pipeline.Session.create ~cache_dir:cache () in
          ignore (Pipeline.Session.mine_lake s lake);
          Alcotest.(check int) "warm hit" (hits + 1) (summary_hits ());
          let previous = ref (Hashtbl.create 1) in
          ignore
            (oracle_row previous ~label:"" (Pipeline.Session.invariants s));
          List.iter
            (fun name ->
               let o = Pipeline.Session.mine s ~row:true [ workload name ] in
               check_rows ("after the warm hit: " ^ name)
                 [ oracle_row previous ~label:name
                     (Pipeline.Session.invariants s) ]
                 o.Pipeline.Session.o_rows)
            [ "fft"; "pi" ]))

let () =
  Alcotest.run "snapshot"
    [ ("engine",
       [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
         Alcotest.test_case "canonical bytes" `Quick test_roundtrip_is_canonical;
         Alcotest.test_case "continued observation" `Quick
           test_continued_observation;
         Alcotest.test_case "merge after load" `Quick test_merge_after_load;
         Alcotest.test_case "save/load file" `Quick test_save_load_file;
         Alcotest.test_case "corrupt rejected" `Quick test_corrupt;
         Alcotest.test_case "stale rejected" `Quick test_stale ]);
      ("pipeline cache",
       [ Alcotest.test_case "warm equals cold" `Quick test_cache_warm_equals_cold;
         Alcotest.test_case "full mine summary" `Quick test_cache_full_mine;
         Alcotest.test_case "damage re-mined" `Quick test_cache_rejects_damage;
         Alcotest.test_case "differing runs keep their shards" `Quick
           test_cache_keeps_every_run;
         Alcotest.test_case "config fingerprint" `Quick test_cache_stale_config;
         Alcotest.test_case "slash-named workload contained" `Quick
           test_cache_slash_named_workload ]);
      ("lake cache",
       [ Alcotest.test_case "warm equals cold (digest-keyed)" `Quick
           test_lake_cache_warm_equals_cold;
         Alcotest.test_case "append invalidates" `Quick
           test_lake_cache_append_invalidates ]);
      ("figure 3 rows",
       [ test_session_rows;
         Alcotest.test_case "lake segments at jobs 1 and 2" `Quick
           test_lake_rows;
         Alcotest.test_case "warm lake hit, then mine" `Quick
           test_warm_lake_then_mine ]) ]
