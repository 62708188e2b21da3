(* The tentpole's acceptance property: sharded parallel mining is
   observationally identical to the sequential run — same invariant set,
   same record accounting, same Figure 3 snapshots — for any job count,
   over the full 17-workload corpus. Plus unit coverage of the domain
   pool itself.

   [test_parallel_mine.exe golden] prints the sequential run instead:
   dune diffs that against [phase1.golden], which pins phase 1 exactly.
   An intended change is reviewed as that diff and accepted with
   [dune promote]. *)

module Pipeline = Scifinder_core.Pipeline
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

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "golden" then begin
    print_golden (Lazy.force seq);
    print_provenance_golden ()
  end
  else
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
