(* The tentpole's acceptance property: sharded parallel mining is
   observationally identical to the sequential run — same invariant set,
   same record accounting, same Figure 3 snapshots — for any job count,
   over the full 17-workload corpus. Plus unit coverage of the domain
   pool itself.

   [test_parallel_mine.exe golden] prints the sequential run instead:
   dune diffs that against [phase1.golden], which pins phase 1 exactly.
   [test_parallel_mine.exe pipeline] prints Tables 2 and 3, the seed-42
   campaign and phase 4 (the CV table, Tables 4-7 and §5.6) over that
   run, diffed against [pipeline.golden]. An intended change is
   reviewed as that diff and accepted with [dune promote]. *)

module Pipeline = Scifinder_core.Pipeline
module Experiments = Scifinder_core.Experiments
module Expr = Invariant.Expr

(* ---- Util.Parallel ---- *)

let test_map_order () =
  let tasks = Array.init 37 (fun i -> i) in
  let out = Util.Parallel.map ~jobs:4 (fun i -> i * i) tasks in
  Alcotest.(check (array int)) "results in task order"
    (Array.map (fun i -> i * i) tasks) out

let test_map_sequential_fallback () =
  Alcotest.(check (array int)) "jobs:1 is Array.map" [| 2; 4; 6 |]
    (Util.Parallel.map ~jobs:1 (fun x -> 2 * x) [| 1; 2; 3 |]);
  Alcotest.(check (array int)) "jobs above task count clamps" [| 1 |]
    (Util.Parallel.map ~jobs:16 (fun x -> x) [| 1 |])

let test_map_exception () =
  Alcotest.check_raises "worker exceptions propagate" Exit (fun () ->
      ignore
        (Util.Parallel.map ~jobs:3
           (fun i -> if i = 5 then raise Exit else i)
           (Array.init 8 (fun i -> i))))

(* ---- full-corpus equality ---- *)

let seq = lazy (Pipeline.mine ~jobs:1 ())

let strings m = List.map Expr.to_string m.Pipeline.invariants

let check_equal jobs =
  let s = Lazy.force seq in
  let p = Pipeline.mine ~jobs () in
  Alcotest.(check int) "record count" s.Pipeline.record_count
    p.Pipeline.record_count;
  Alcotest.(check (list string)) "invariant set" (strings s) (strings p);
  List.iter2
    (fun (a : Pipeline.figure3_row) (b : Pipeline.figure3_row) ->
       Alcotest.(check string) "row label" a.group_label b.group_label;
       Alcotest.(check (list int)) ("figure 3 row " ^ a.group_label)
         [ a.unmodified; a.fresh; a.deleted; a.total ]
         [ b.unmodified; b.fresh; b.deleted; b.total ])
    s.Pipeline.figure3 p.Pipeline.figure3;
  Alcotest.(check (list string)) "mnemonic coverage"
    s.Pipeline.mnemonic_coverage p.Pipeline.mnemonic_coverage

let test_jobs2 () = check_equal 2
let test_jobs4 () = check_equal 4

let test_mine_invariants_subset () =
  let names = [ "pi"; "bitcount"; "helloworld" ] in
  let s = Pipeline.mine_invariants ~jobs:1 ~names () in
  let p = Pipeline.mine_invariants ~jobs:3 ~names () in
  Alcotest.(check (list string)) "subset corpus equal"
    (List.map Expr.to_string s) (List.map Expr.to_string p)

(* ---- the phase-1 golden ---- *)

let print_golden (m : Pipeline.mining) =
  print_endline
    "# Phase 1 (Figure 3): Pipeline.mine ~jobs:1 over the full corpus.";
  print_endline
    "# Regenerate after an intended change: dune runtest; dune promote.";
  List.iter
    (fun (r : Pipeline.figure3_row) ->
       Printf.printf "row %s unmodified=%d fresh=%d deleted=%d total=%d\n"
         r.group_label r.unmodified r.fresh r.deleted r.total)
    m.Pipeline.figure3;
  Printf.printf "records %d\n" m.Pipeline.record_count;
  Printf.printf "final total %d\n" (List.length m.Pipeline.invariants);
  Printf.printf "unobserved mnemonics [%s]\n"
    (String.concat " " m.Pipeline.mnemonic_coverage);
  (* The digest and the semantics version sit together so a diff that
     changes one shows the other. *)
  print_endline
    "# A new invariant text digest means extraction changed: bump";
  print_endline
    "# Daikon.Engine.semantics_version too, so cached summaries miss.";
  Printf.printf "semantics version %d\n" Daikon.Engine.semantics_version;
  Printf.printf "invariant text md5 %s\n"
    (Digest.to_hex (Digest.string (String.concat "\n" (strings m))))

(* The flight recorder, pinned: a provenance session over the full
   corpus, streamed (jobs 1) and sharded then merged (jobs 2). The
   SCIFSNAP v2 bytes cover engine state, the death ring, first deaths,
   witnesses and births, so the digest moves if any of them does. *)
let print_provenance_golden () =
  print_endline
    "# Flight recorder: Session.create ~provenance:true, Session.mine";
  print_endline
    "# ~row:false over the full corpus; md5 of the SCIFSNAP v2 bytes.";
  List.iter
    (fun jobs ->
       let s = Pipeline.Session.create ~jobs ~provenance:true () in
       ignore (Pipeline.Session.mine s ~row:false Workloads.Suite.all);
       let bytes = Pipeline.Session.encode s in
       Printf.printf "provenance jobs=%d snapshot md5 %s\n" jobs
         (Digest.to_hex (Digest.string bytes));
       List.iter
         (fun (family, n, _) ->
            Printf.printf "provenance jobs=%d deaths %s=%d\n" jobs family n)
         (Daikon.Engine.death_families (Daikon.Engine.decode bytes)))
    [ 1; 2 ]

(* Phase 4, pinned: the CV table and the chosen model (Table 4), the
   recommendations (Table 5), property coverage (Tables 6 and 7) and
   unknown-bug detection (§5.6). Floats print at full precision, Table 4
   weights at the 3 decimals the paper reports. *)
let print_inference_golden ~optimized (summary : Sci.Identify.summary) =
  print_endline
    "# Phase 4: Pipeline.infer over the optimized set and Table 3's labels.";
  let inf = Pipeline.infer ~all_invariants:optimized summary in
  let table = inf.Pipeline.cv_table in
  List.iter
    (fun (lambda, acc) ->
       Printf.printf "cv lambda=%.17g accuracy=%.17g\n" lambda acc)
    table;
  Printf.printf "cv chosen lambda=%.17g accuracy=%.17g in table %b\n"
    inf.Pipeline.chosen_lambda inf.Pipeline.cv_accuracy
    (List.mem (inf.Pipeline.chosen_lambda, inf.Pipeline.cv_accuracy) table);
  Printf.printf "test accuracy %.17g\n" inf.Pipeline.test_accuracy;
  Printf.printf "table4 %d of %d features\n"
    (List.length inf.Pipeline.selected_features)
    (Invariant.Feature.dimension inf.Pipeline.space);
  List.iter
    (fun (name, beta) -> Printf.printf "table4 %s %+.3f\n" name beta)
    inf.Pipeline.selected_features;
  Printf.printf "table5 unlabeled=%d recommended=%d fp=%d surviving=%d \
                 properties=%d\n"
    (List.length optimized - inf.Pipeline.labeled_sci
     - inf.Pipeline.labeled_non_sci)
    (List.length inf.Pipeline.recommended)
    (List.length inf.Pipeline.inferred_fp)
    (List.length inf.Pipeline.surviving)
    inf.Pipeline.property_count;
  Printf.printf "table5 recommended md5 %s\n"
    (Digest.to_hex
       (Digest.string
          (String.concat "\n"
             (List.sort compare
                (List.map Invariant.Expr.canonical inf.Pipeline.recommended)))));
  let prior, fresh =
    List.partition
      (fun (c : Properties.Catalog.coverage) ->
         c.property.Properties.Catalog.origin
         <> Properties.Catalog.New_property)
      (Experiments.property_coverage summary inf)
  in
  let count p = List.length (List.filter p prior) in
  let in_scope (c : Properties.Catalog.coverage) =
    Properties.Catalog.in_scope c.property
  in
  Printf.printf "table6 identification=%d inference=%d in-scope found=%d/%d\n"
    (count (fun c -> c.Properties.Catalog.from_identification))
    (count (fun c ->
         c.Properties.Catalog.from_inference
         && not c.Properties.Catalog.from_identification))
    (count (fun c ->
         in_scope c
         && (c.Properties.Catalog.from_identification
             || c.Properties.Catalog.from_inference)))
    (count in_scope);
  List.iter
    (fun (c : Properties.Catalog.coverage) ->
       Printf.printf "table7 %s ident=[%s] infer=%b\n"
         c.property.Properties.Catalog.id
         (String.concat " " c.found_by_bugs)
         c.from_inference)
    fresh;
  let held_out =
    Experiments.holdout ~identified_sci:summary.Sci.Identify.unique_sci
      ~inferred_sci:inf.Pipeline.surviving Bugs.Amd_errata.all
  in
  Printf.printf "sec56 held out detected %d/%d\n"
    (List.length
       (List.filter (fun r -> r.Experiments.detected) held_out))
    (List.length held_out);
  let split = Experiments.random_split ~invariants:optimized () in
  Printf.printf "sec56 re-split detected %d/%d\n"
    split.Experiments.detected_count
    (List.length split.Experiments.reports)

(* Phases 2-4, pinned: Table 2's stages, Table 3 per bug, the seed-42
   campaign over the unique SCI and phase 4, all from the sequential
   run. *)
let print_pipeline_golden () =
  print_endline
    "# Tables 2 and 3 and the seed-42 campaign over Pipeline.mine ~jobs:1.";
  print_endline
    "# Regenerate after an intended change: dune runtest; dune promote.";
  let o = Pipeline.optimize (Lazy.force seq).Pipeline.invariants in
  List.iter
    (fun (s : Invopt.Pipeline.stage_stats) ->
       Printf.printf "table2 %s invariants=%d variables=%d\n" s.stage
         s.invariants s.variables)
    o.Pipeline.result.Invopt.Pipeline.stages;
  let summary =
    (Pipeline.identify ~invariants:o.Pipeline.result.Invopt.Pipeline.optimized
       Bugs.Table1.all).Pipeline.summary
  in
  let reports = summary.Sci.Identify.reports in
  List.iter
    (fun (r : Sci.Identify.report) ->
       Printf.printf "table3 %s true_sci=%d fp=%d detected=%b\n"
         r.bug.Bugs.Registry.id (List.length r.true_sci)
         (List.length r.false_positives) r.detected)
    reports;
  Printf.printf "table3 detected %d/%d\n"
    (List.length (List.filter (fun (r : Sci.Identify.report) -> r.detected)
                    reports))
    (List.length reports);
  Printf.printf "table3 unique sci %d, unique fp %d\n"
    (List.length summary.Sci.Identify.unique_sci)
    (List.length summary.Sci.Identify.unique_fp);
  let camp =
    Pipeline.campaign ~seed:42 ~mutants:200 ~sci:summary.Sci.Identify.unique_sci
      ()
  in
  Printf.printf "campaign seed=42 mutants=200 fingerprint %s\n"
    camp.Pipeline.fingerprint;
  Printf.printf "campaign detected %d/%d\n" camp.Pipeline.detected_total
    camp.Pipeline.mutant_total;
  print_inference_golden
    ~optimized:o.Pipeline.result.Invopt.Pipeline.optimized summary

let () =
  match Array.to_list Sys.argv with
  | [ _; "golden" ] ->
    print_golden (Lazy.force seq);
    print_provenance_golden ()
  | [ _; "pipeline" ] -> print_pipeline_golden ()
  | _ ->
    Alcotest.run "parallel_mine"
      [ ("parallel",
         [ Alcotest.test_case "map order" `Quick test_map_order;
           Alcotest.test_case "map sequential fallback" `Quick
             test_map_sequential_fallback;
           Alcotest.test_case "map exception" `Quick test_map_exception ]);
        ("corpus",
         [ Alcotest.test_case "subset, 3 shards" `Quick
             test_mine_invariants_subset;
           Alcotest.test_case "full corpus, 2 shards" `Slow test_jobs2;
           Alcotest.test_case "full corpus, 4 shards" `Slow test_jobs4 ]) ]
