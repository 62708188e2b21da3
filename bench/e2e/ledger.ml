(* From a workload's result to what a run reports: the end-to-end and
   per-layer metrics, the traced run's artifacts and checks, the run
   record kept in out/runs.jsonl, and the comparison of two sets of
   runs under the bounds BENCHMARK.json fixes. *)

type metric = string * float * string  (* name, value, unit *)

(* ---- end-to-end metrics (untraced phase) ---- *)

let op_seconds (p : Bench.phase) = List.map (fun (o : Bench.op) -> o.dur_s) p.ops

let attempted (r : Bench.result) = List.length (Bench.all_ops r)

let failed (r : Bench.result) =
  List.length (List.filter (fun (o : Bench.op) -> o.errors <> []) (Bench.all_ops r))

(* Items completed per second of the phase's windows: operation time for
   the one-at-a-time workloads, the whole load for serve's concurrent
   connections. *)
let items_per_s (p : Bench.phase) =
  let items = List.fold_left (fun n (o : Bench.op) -> n + o.items) 0 p.ops in
  let busy =
    List.fold_left
      (fun s (a, b) -> s +. (Int64.to_float (Int64.sub b a) /. 1e9))
      0. p.windows
  in
  float_of_int items /. busy

let end_to_end (r : Bench.result) : metric list =
  let p = Bench.untraced r in
  let secs = op_seconds p in
  [ ("setup_s", Bench.median r.setup_samples, "s");
    ("peak_rss_mb", r.rss_mb, "MiB");
    ("op_p50_ms", Bench.median secs *. 1e3, "ms");
    ("op_p90_ms", Bench.quantile 0.9 secs *. 1e3, "ms");
    ("items_per_s", items_per_s p, "1/s") ]

(* ---- per-layer metrics and the traced run's artifacts ---- *)

let check_json_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "check_json.exe"

(* The Chrome trace must pass bench/check_json.exe. *)
let validate_trace path =
  let exe = check_json_exe () in
  if not (Sys.file_exists exe) then
    [ exe ^ " is not built (dune build ./bench/check_json.exe)" ]
  else
    let pid =
      Unix.create_process exe [| exe; path |] Unix.stdin Unix.stderr Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> []
    | _ -> [ "check_json rejected " ^ path ]

let to_json (metrics : metric list) =
  Obs.Json.Obj
    (List.map
       (fun (name, value, unit) ->
          ( name,
            Obs.Json.Obj
              [ ("value", Bench.num value); ("unit", Obs.Json.Str unit) ] ))
       metrics)

(* Writes W.jsonl, W.trace.json and W.layers.json; returns the ledger
   (every workload's metrics, then this workload's own) and any check
   the traced run failed. *)
let finish_traced (ctx : Bench.ctx) (r : Bench.result) =
  Bench.flush_metrics ();
  let events = Bench.events () in
  let path ext = Filename.concat ctx.out_dir (r.workload ^ ext) in
  Out_channel.with_open_bin (path ".jsonl") (fun oc ->
      List.iter
        (fun ev ->
           output_string oc (Obs.Sink.json_of_event ev);
           output_char oc '\n')
        events);
  Out_channel.with_open_bin (path ".trace.json") (fun oc ->
      output_string oc (Obs.Trace_event.render events));
  let traced = Option.get (Bench.traced_phase r) in
  let pct, gap = Bench.coverage events traced.windows in
  let overhead =
    100.
    *. ((Bench.median (op_seconds traced)
         /. Bench.median (op_seconds (Bench.untraced r)))
        -. 1.)
  in
  let ledger =
    r.layers @ traced.gc
    @ [ ("obs.span_coverage_pct", pct, "%");
        ("obs.trace_overhead_pct", overhead, "%") ]
  in
  let coverage_failure =
    match gap with
    | Some (offset, len) when pct < 95. ->
      [ Printf.sprintf
          "bench spans cover %.1f%% of the traced operations; the longest \
           uncovered interval is %.1f ms long, %.1f ms into its operation"
          pct (Int64.to_float len /. 1e6) (Int64.to_float offset /. 1e6) ]
    | _ -> []
  in
  Out_channel.with_open_bin (path ".layers.json") (fun oc ->
      output_string oc
        (Bench.json_to_string
           (Obs.Json.Obj
              [ ("schema", Obs.Json.Str "scibench.layers/1");
                ("workload", Obs.Json.Str r.workload);
                ("seed", Bench.num (float_of_int ctx.seed));
                ("host", Bench.host ());
                ("metrics", to_json (ledger @ r.extras)) ]));
      output_char oc '\n');
  (ledger, coverage_failure @ validate_trace (path ".trace.json"))

(* ---- the run record ---- *)

type report = {
  result : Bench.result;
  e2e : metric list;
  ledger : metric list;  (** traced runs only *)
  problems : string list;  (** every failed check, operations included *)
}

let report (ctx : Bench.ctx) (r : Bench.result) =
  let ledger, traced_failures =
    if ctx.traced then finish_traced ctx r else ([], [])
  in
  let op_errors =
    List.concat_map
      (fun (o : Bench.op) -> o.errors)
      (Bench.all_ops r)
  in
  { result = r; e2e = end_to_end r; ledger;
    problems = op_errors @ traced_failures }

let correct rep = rep.problems = []

let failed_ratio rep =
  float_of_int (failed rep.result) /. float_of_int (max 1 (attempted rep.result))

(* The last line of a run's output, for tools that run the benchmark:
   end-to-end metrics untraced, the ledger traced. *)
let summary_line (ctx : Bench.ctx) rep =
  Bench.json_to_string
    (Obs.Json.Obj
       [ ("correct", Obs.Json.Bool (correct rep));
         ("attempted", Bench.num (float_of_int (attempted rep.result)));
         ("failed", Bench.num (float_of_int (failed rep.result)));
         ("metrics", to_json (if ctx.traced then rep.ledger else rep.e2e)) ])

let record (ctx : Bench.ctx) rep =
  let r = rep.result in
  let str s = Obs.Json.Str s in
  Obs.Json.Obj
    ([ ("schema", str "scibench.run/1");
       ("workload", str r.workload);
       ("seed", Bench.num (float_of_int ctx.seed));
       ("seconds", Bench.num ctx.seconds);
       ("traced", Obs.Json.Bool ctx.traced);
       ("host", Bench.host ());
       ("correct", Obs.Json.Bool (correct rep));
       ("attempted", Bench.num (float_of_int (attempted r)));
       ("failed", Bench.num (float_of_int (failed r)));
       ("problems", Obs.Json.Arr (List.map str rep.problems));
       ("item", str r.item);
       ("metrics", to_json rep.e2e);
       ("samples",
        Obs.Json.Obj
          ([ ("setup_s", Bench.nums r.setup_samples);
             ("op_s", Bench.nums (op_seconds (Bench.untraced r))) ]
           @
           match Bench.traced_phase r with
           | Some p -> [ ("traced_op_s", Bench.nums (op_seconds p)) ]
           | None -> [])) ]
     @ if ctx.traced then [ ("layers", to_json (rep.ledger @ r.extras)) ] else [])

let append_record (ctx : Bench.ctx) rep =
  let path = Filename.concat ctx.out_dir "runs.jsonl" in
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
    (fun oc ->
       output_string oc (Bench.json_to_string (record ctx rep));
       output_char oc '\n')

let human_lines rep =
  let r = rep.result in
  let line (name, value, unit) =
    Printf.sprintf "%s %s %.6g %s" r.workload name value unit
  in
  List.map line
    (rep.e2e
     @ [ ("failed_ratio", failed_ratio rep, "ratio");
         ("op_samples",
          float_of_int (List.length (Bench.untraced r).Bench.ops), "count") ]
     @ rep.ledger @ r.extras)
  @ List.map (fun p -> Printf.sprintf "%s problem: %s" r.workload p) rep.problems

(* ---- BENCHMARK.json ---- *)

type bound = { name : string; unit : string; lower_better : bool; bound : float }

type spec = {
  run_seconds : float;
  workloads : string list;
  e2e_spec : bound list;
  per_layer_spec : (string * string) list;  (* name, unit *)
}

let field name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> failwith ("BENCHMARK.json: missing " ^ name)

let str_field name j =
  match field name j with
  | Obs.Json.Str s -> s
  | _ -> failwith ("BENCHMARK.json: not a string: " ^ name)

let num_field name j =
  match field name j with
  | Obs.Json.Num f -> f
  | _ -> failwith ("BENCHMARK.json: not a number: " ^ name)

let arr_field name j =
  match field name j with
  | Obs.Json.Arr l -> l
  | _ -> failwith ("BENCHMARK.json: not a list: " ^ name)

let load_spec path =
  let j =
    match Obs.Json.parse (Bench.read_file path) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  { run_seconds = num_field "run_seconds" j;
    workloads = List.map (str_field "name") (arr_field "workloads" j);
    e2e_spec =
      List.map
        (fun m ->
           { name = str_field "name" m; unit = str_field "unit" m;
             lower_better = String.equal (str_field "better" m) "lower";
             bound = num_field "bound" m })
        (arr_field "end_to_end" j);
    per_layer_spec =
      List.map (fun m -> (str_field "name" m, str_field "unit" m))
        (arr_field "per_layer" j) }

(* ---- comparing two sets of runs ---- *)

(* A run set: a JSONL file of run records, or FILE:KEY naming an array
   of them inside a JSON object (how baseline.json holds its sets). *)
let load_runs arg =
  let path, key =
    match String.rindex_opt arg ':' with
    | Some i when not (Sys.file_exists arg) ->
      ( String.sub arg 0 i,
        Some (String.sub arg (i + 1) (String.length arg - i - 1)) )
    | _ -> (arg, None)
  in
  let parse s =
    match Obs.Json.parse s with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)
  in
  match key with
  | None ->
    String.split_on_char '\n' (Bench.read_file path)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map parse
  | Some k ->
    (match Obs.Json.member k (parse (Bench.read_file path)) with
     | Some (Obs.Json.Arr runs) -> runs
     | _ -> failwith (Printf.sprintf "%s has no run array %S" path k))

(* One value per untraced run. *)
let values runs ~workload ~metric =
  List.filter_map
    (fun run ->
       match
         ( Obs.Json.member "workload" run, Obs.Json.member "traced" run,
           Option.bind (Obs.Json.member "metrics" run) (Obs.Json.member metric) )
       with
       | Some (Obs.Json.Str w), Some (Obs.Json.Bool false), Some m
         when String.equal w workload -> (
           match Obs.Json.member "value" m with
           | Some (Obs.Json.Num v) -> Some v
           | _ -> None)
       | _ -> None)
    runs

type verdict = Ok_ | Regressed | Unresolved | Missing

let verdict_name = function
  | Ok_ -> "ok"
  | Regressed -> "REGRESSED"
  | Unresolved -> "UNRESOLVED"
  | Missing -> "MISSING"

(* Regressed: B's median is worse than A's by more than the bound.
   Unresolved: either side's quartile spread, as a share of its median,
   is wider than the bound — unless every B run beats every A run. *)
let judge (b : bound) a_vals b_vals =
  if a_vals = [] || b_vals = [] then Missing
  else
    let ma = Bench.median a_vals and mb = Bench.median b_vals in
    let worse = if b.lower_better then (mb -. ma) /. ma else (ma -. mb) /. ma in
    let spread xs =
      let q1, q3 = Bench.quartiles xs in
      (q3 -. q1) /. Bench.median xs
    in
    let better_everywhere =
      List.for_all
        (fun y ->
           List.for_all
             (fun x -> if b.lower_better then y < x else y > x)
             a_vals)
        b_vals
    in
    if worse > b.bound then Regressed
    else if Float.max (spread a_vals) (spread b_vals) > b.bound
         && not better_everywhere
    then Unresolved
    else Ok_

let compare_sets spec a b =
  let quart xs =
    let q1, q3 = Bench.quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g] n=%d" (Bench.median xs) q1 q3
      (List.length xs)
  in
  Printf.printf "%-9s %-12s %-34s %-34s %8s %6s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "bound" "verdict";
  let bad = ref 0 in
  List.iter
    (fun workload ->
       List.iter
         (fun (m : bound) ->
            let av = values a ~workload ~metric:m.name
            and bv = values b ~workload ~metric:m.name in
            let v = judge m av bv in
            if v <> Ok_ then incr bad;
            if av = [] || bv = [] then
              Printf.printf "%-9s %-12s %-34s %-34s %8s %6.2f  %s\n" workload
                m.name "-" "-" "-" m.bound (verdict_name v)
            else
              Printf.printf "%-9s %-12s %-34s %-34s %+7.1f%% %6.2f  %s\n"
                workload m.name (quart av) (quart bv)
                (100. *. ((Bench.median bv /. Bench.median av) -. 1.))
                m.bound (verdict_name v))
         spec.e2e_spec)
    spec.workloads;
  !bad
