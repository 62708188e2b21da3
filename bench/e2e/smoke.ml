(* Smoke test of scibench (dune runtest): every workload at toy size in
   one traced run, which also measures the untraced phase. It asserts
   the output schema against BENCHMARK.json, that every output check
   passes, and that a corrupted expectation is counted as failed.

     smoke.exe BENCHMARK.json *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let ctx ~traced =
  { Bench.seed = 7; seconds = 0.01; traced; out_dir = "smoke-out"; setup_s = 0.;
    kernel_s = 0.001 }

let same_metrics what (want : (string * string) list) (got : Ledger.metric list) =
  let got = List.map (fun (n, _, u) -> (n, u)) got in
  let sort = List.sort compare in
  if sort want <> sort got then
    fail "%s metrics differ from BENCHMARK.json:\n  want %s\n  got  %s" what
      (String.concat " " (List.map fst (sort want)))
      (String.concat " " (List.map fst (sort got)))

(* The machine-readable last line: exactly these keys, numbers with units. *)
let check_summary line =
  match Obs.Json.parse line with
  | Error e -> fail "summary line is not JSON: %s" e
  | Ok (Obs.Json.Obj fields) ->
    if List.map fst fields <> [ "correct"; "attempted"; "failed"; "metrics" ] then
      fail "summary keys: %s" (String.concat "," (List.map fst fields));
    (match List.assoc "metrics" fields with
     | Obs.Json.Obj ms ->
       List.iter
         (fun (name, m) ->
            match (Obs.Json.member "value" m, Obs.Json.member "unit" m) with
            | Some (Obs.Json.Num _), Some (Obs.Json.Str _) -> ()
            | _ -> fail "metric %s lacks a numeric value or a unit" name)
         ms
     | _ -> fail "metrics is not an object")
  | Ok _ -> fail "summary line is not an object"

let () =
  match Array.to_list Sys.argv with
  | [ _; "noop" ] -> exit 0
  | [ _; spec_path ] ->
    let spec = Ledger.load_spec spec_path in
    if spec.run_seconds <> Bench.default_seconds then
      fail "BENCHMARK.json run_seconds %g, scibench default %g" spec.run_seconds
        Bench.default_seconds;
    if spec.workloads <> [ "paper"; "lake"; "campaign"; "serve" ] then
      fail "BENCHMARK.json names other workloads";
    Bench.mkdir_p "smoke-out";
    let e2e = List.map (fun (b : Ledger.bound) -> (b.name, b.unit)) spec.e2e_spec in
    List.iter
      (fun (name, run) ->
         let ctx = ctx ~traced:true in
         let rep = Ledger.report ctx (run ctx) in
         if not (Ledger.correct rep) then
           fail "%s: %s" name (String.concat "; " rep.problems);
         same_metrics (name ^ " end-to-end") e2e rep.e2e;
         same_metrics (name ^ " per-layer") spec.per_layer_spec rep.ledger;
         check_summary (Ledger.summary_line ctx rep);
         check_summary (Ledger.summary_line { ctx with traced = false } rep);
         List.iter
           (fun ext ->
              if not (Sys.file_exists (Filename.concat "smoke-out" (name ^ ext)))
              then fail "%s: no %s" name ext)
           [ ".jsonl"; ".trace.json"; ".layers.json" ];
         Printf.printf "smoke: %s ok (%d operations)\n%!" name
           (Ledger.attempted rep.result))
      (* serve first: it forks, which no process may do once it has
         started a domain *)
      [ ("serve", fun ctx -> W_serve.run ~size:W_serve.toy ctx);
        ("paper", fun ctx -> W_paper.run ~size:W_paper.toy ctx);
        ("lake", fun ctx -> W_lake.run ~size:W_lake.toy ctx);
        ("campaign", fun ctx -> W_campaign.run ~size:W_campaign.toy ctx) ];
    (* A wrong expectation must fail its operation, not pass silently. *)
    let ctx = ctx ~traced:false in
    let corrupted =
      { W_campaign.toy with expect_mutants = W_campaign.toy.mutants + 1 }
    in
    let rep = Ledger.report ctx (W_campaign.run ~size:corrupted ctx) in
    if Ledger.correct rep || Ledger.failed_ratio rep <> 1.0 then
      fail "a corrupted expectation gave failed_ratio %g" (Ledger.failed_ratio rep);
    print_endline "smoke: corrupted expectation counted as failed"
  | _ -> fail "usage: smoke.exe BENCHMARK.json"
