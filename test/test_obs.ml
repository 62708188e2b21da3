(* The telemetry subsystem's acceptance properties: span nesting and
   emission order, exact counters under domain-parallel increments,
   worker-domain span isolation, a golden (schema-stable) JSONL encoding,
   and — the one that matters most — a JSONL sink changing nothing about
   what the pipeline computes. *)

module Pipeline = Scifinder_core.Pipeline
module Expr = Invariant.Expr

(* Every test leaves the global sink as it found it (null). *)
let with_sink sink f =
  Obs.Sink.set_global sink;
  Fun.protect ~finally:(fun () -> Obs.Sink.set_global Obs.Sink.null) f

let span_events events =
  List.filter_map
    (function
      | Obs.Sink.Span { name; parent; dur_ns; _ } ->
        Some (name, parent, dur_ns)
      | Obs.Sink.Metric _ -> None)
    events

(* ---- spans ---- *)

let test_span_nesting () =
  let sink, read = Obs.Sink.memory () in
  with_sink sink (fun () ->
      let v =
        Obs.Span.with_ ~name:"a" (fun () ->
            Alcotest.(check (option string)) "inside a"
              (Some "a") (Obs.Span.current ());
            let u = Obs.Span.with_ ~name:"b" (fun () -> 41) in
            Alcotest.(check (option string)) "back to a"
              (Some "a") (Obs.Span.current ());
            u + 1)
      in
      Alcotest.(check int) "with_ returns the body's value" 42 v);
  Alcotest.(check (option string)) "no open span left" None
    (Obs.Span.current ());
  match span_events (read ()) with
  | [ ("b", pb, db); ("a", pa, da) ] ->
    Alcotest.(check (option string)) "b's parent is a" (Some "a") pb;
    Alcotest.(check (option string)) "a is a root" None pa;
    Alcotest.(check bool) "durations are non-negative" true
      (Int64.compare db 0L >= 0 && Int64.compare da 0L >= 0);
    Alcotest.(check bool) "a lasted at least as long as b" true
      (Int64.compare da db >= 0)
  | evs ->
    Alcotest.failf "expected [b; a], got %d span events" (List.length evs)

let test_span_exception () =
  let sink, read = Obs.Sink.memory () in
  with_sink sink (fun () ->
      (try Obs.Span.with_ ~name:"boom" (fun () -> raise Exit)
       with Exit -> ());
      Alcotest.(check (option string)) "stack unwound" None
        (Obs.Span.current ()));
  match span_events (read ()) with
  | [ ("boom", None, _) ] -> ()
  | evs ->
    Alcotest.failf "expected the raising span, got %d events"
      (List.length evs)

let test_span_timed () =
  let (v, secs) = Obs.Span.timed ~name:"t" (fun () -> 7) in
  Alcotest.(check int) "timed returns the value" 7 v;
  Alcotest.(check bool) "monotonic duration" true (secs >= 0.0)

let test_span_context () =
  let sink, read = Obs.Sink.memory () in
  with_sink sink (fun () ->
      Obs.Span.with_context (Some "submitter") (fun () ->
          Alcotest.(check (option string)) "context visible via current"
            (Some "submitter") (Obs.Span.current ());
          Obs.Span.with_ ~name:"child" (fun () ->
              Obs.Span.with_ ~name:"grand" (fun () -> ())));
      Alcotest.(check (option string)) "context restored" None
        (Obs.Span.current ()));
  match span_events (read ()) with
  | [ ("grand", pg, _); ("child", pc, _) ] ->
    Alcotest.(check (option string))
      "empty local stack inherits the context" (Some "submitter") pc;
    Alcotest.(check (option string)) "an open local span still wins"
      (Some "child") pg
  | evs ->
    Alcotest.failf "expected [grand; child], got %d span events"
      (List.length evs)

(* ---- counters under Util.Parallel ---- *)

let test_counter_across_domains () =
  let c = Obs.Metrics.counter "test.obs.parallel_counter" in
  let tasks = Array.init 40 (fun i -> i) in
  ignore
    (Util.Parallel.map ~jobs:4
       (fun _ ->
          for _ = 1 to 1000 do Obs.Metrics.incr c done;
          Obs.Metrics.add c 10)
       tasks);
  Alcotest.(check int) "40 tasks x (1000 incr + add 10), exactly"
    (40 * 1010) (Obs.Metrics.counter_value c)

let test_worker_spans_do_not_corrupt_parent () =
  let sink, read = Obs.Sink.memory () in
  with_sink sink (fun () ->
      Obs.Span.with_ ~name:"outer" (fun () ->
          ignore
            (Util.Parallel.map ~jobs:4
               (fun i -> Obs.Span.with_ ~name:"w" (fun () -> i))
               (Array.init 16 (fun i -> i)));
          (* The pool is drained; the calling domain's stack is intact. *)
          Alcotest.(check (option string)) "outer still open"
            (Some "outer") (Obs.Span.current ())));
  let spans = span_events (read ()) in
  let workers = List.filter (fun (n, _, _) -> n = "w") spans in
  Alcotest.(check int) "one span per task" 16 (List.length workers);
  (* The calling domain doubles as a worker, so a worker span's parent is
     either the enclosing span (same domain) or nothing (fresh domain) —
     never a span of some *other* domain. *)
  List.iter
    (fun (_, parent, _) ->
       match parent with
       | None | Some "outer" -> ()
       | Some p -> Alcotest.failf "worker span adopted parent %S" p)
    workers

(* ---- metrics ---- *)

let test_gauge () =
  let g = Obs.Metrics.gauge "test.obs.gauge" in
  Obs.Metrics.set g 3.0;
  Obs.Metrics.set_max g 2.0;
  Alcotest.(check (float 0.0)) "set_max keeps the high water" 3.0
    (Obs.Metrics.gauge_value g);
  Obs.Metrics.set_max g 5.0;
  Alcotest.(check (float 0.0)) "set_max raises it" 5.0
    (Obs.Metrics.gauge_value g)

let test_histogram_snapshot () =
  let h = Obs.Metrics.histogram "test.obs.hist" in
  List.iter (Obs.Metrics.observe h) [ 1; 2; 3; 100 ];
  let s =
    List.find
      (fun (s : Obs.Metrics.snapshot) -> s.metric = "test.obs.hist")
      (Obs.Metrics.snapshot ())
  in
  Alcotest.(check string) "kind" "histogram" s.kind;
  Alcotest.(check (float 0.0)) "value is the count" 4.0 s.value;
  let attr k = List.assoc k s.attrs in
  Alcotest.(check bool) "count/sum/min/max" true
    (attr "count" = Obs.Sink.I 4 && attr "sum" = Obs.Sink.I 106
     && attr "min" = Obs.Sink.I 1 && attr "max" = Obs.Sink.I 100);
  Alcotest.(check bool) "mean" true (attr "mean" = Obs.Sink.F 26.5);
  (* Bucketed estimates: upper bound of the rank's bucket, clamped to the
     observed max. 2 has a bucket of its own; 100 lands in 96..103. *)
  Alcotest.(check bool) "p50 estimate" true (attr "p50" = Obs.Sink.I 2);
  Alcotest.(check bool) "p95 estimate" true (attr "p95" = Obs.Sink.I 100);
  Alcotest.(check bool) "p99 estimate" true (attr "p99" = Obs.Sink.I 100);
  Alcotest.(check bool) "no unit attr unless declared" true
    (List.assoc_opt "unit" s.attrs = None)

(* Observations within one power of two keep distinct percentiles: a
   bucket spans at most an eighth of its lower bound. *)
let test_histogram_resolution () =
  let h = Obs.Metrics.histogram "test.obs.hist_fine" in
  List.iter (fun k -> Obs.Metrics.observe h (1024 + (100 * k)))
    (List.init 10 Fun.id);
  let p q = Obs.Metrics.histogram_percentile h q in
  Alcotest.(check int) "p50: 1424 lands in 1408..1535" 1535 (p 0.50);
  Alcotest.(check int) "p95: 1924, the max, caps its bucket" 1924 (p 0.95);
  let small = Obs.Metrics.histogram "test.obs.hist_small" in
  List.iter (Obs.Metrics.observe small) [ 0; 0; 5; 7 ];
  Alcotest.(check (list int)) "values 0-7 are exact" [ 0; 5; 7 ]
    (List.map (Obs.Metrics.histogram_percentile small) [ 0.5; 0.75; 1.0 ])

let test_histogram_unit () =
  let h = Obs.Metrics.histogram ~unit:"ns" "test.obs.hist_ns" in
  Obs.Metrics.observe h 5;
  let s =
    List.find
      (fun (s : Obs.Metrics.snapshot) -> s.metric = "test.obs.hist_ns")
      (Obs.Metrics.snapshot ())
  in
  Alcotest.(check bool) "unit rides in the snapshot attrs" true
    (List.assoc_opt "unit" s.attrs = Some (Obs.Sink.S "ns"));
  let c = Obs.Metrics.counter ~unit:"bytes" "test.obs.counter_bytes" in
  Obs.Metrics.add c 9;
  let sc =
    List.find
      (fun (s : Obs.Metrics.snapshot) -> s.metric = "test.obs.counter_bytes")
      (Obs.Metrics.snapshot ())
  in
  Alcotest.(check bool) "counters carry units too" true
    (List.assoc_opt "unit" sc.attrs = Some (Obs.Sink.S "bytes"))

let test_counter_kind_collision () =
  ignore (Obs.Metrics.counter "test.obs.collision");
  Alcotest.check_raises "same name, different kind"
    (Invalid_argument
       "Obs.Metrics: test.obs.collision already registered as a counter")
    (fun () -> ignore (Obs.Metrics.gauge "test.obs.collision"))

(* ---- the JSONL schema (golden) ---- *)

let test_json_golden () =
  let span =
    Obs.Sink.Span
      { name = "pipeline.mine"; parent = Some "root"; domain = 0;
        start_ns = 123L; dur_ns = 456L;
        attrs =
          [ ("jobs", Obs.Sink.I 2); ("ratio", Obs.Sink.F 0.5);
            ("workload", Obs.Sink.S "a\"b\n"); ("ok", Obs.Sink.B true) ] }
  in
  Alcotest.(check string) "span object, fixed key order"
    ("{\"type\":\"span\",\"name\":\"pipeline.mine\",\"parent\":\"root\","
     ^ "\"domain\":0,\"start_ns\":123,\"dur_ns\":456,"
     ^ "\"attrs\":{\"jobs\":2,\"ratio\":0.5,\"workload\":\"a\\\"b\\n\","
     ^ "\"ok\":true}}")
    (Obs.Sink.json_of_event span);
  let metric =
    Obs.Sink.Metric
      { name = "mine.records"; kind = "counter"; value = 23931.0; attrs = [] }
  in
  Alcotest.(check string) "metric object; integral floats keep a digit"
    ("{\"type\":\"metric\",\"name\":\"mine.records\",\"kind\":\"counter\","
     ^ "\"value\":23931.0,\"attrs\":{}}")
    (Obs.Sink.json_of_event metric);
  let hist =
    Obs.Sink.Metric
      { name = "daikon.observe_ns"; kind = "histogram"; value = 4.0;
        attrs =
          [ ("p99", Obs.Sink.I 100); ("unit", Obs.Sink.S "ns") ] }
  in
  Alcotest.(check string) "histogram snapshot with p99 and unit"
    ("{\"type\":\"metric\",\"name\":\"daikon.observe_ns\","
     ^ "\"kind\":\"histogram\",\"value\":4.0,"
     ^ "\"attrs\":{\"p99\":100,\"unit\":\"ns\"}}")
    (Obs.Sink.json_of_event hist);
  (* All golden lines re-parse with the bundled reader. *)
  List.iter
    (fun ev ->
       match Obs.Json.parse (Obs.Sink.json_of_event ev) with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "golden line does not re-parse: %s" e)
    [ span; metric; hist ]

let test_json_parser () =
  (match Obs.Json.parse "{\"a\":[1,true,null,\"x\"],\"b\":-2.5e1}" with
   | Ok j ->
     Alcotest.(check bool) "member b" true
       (Obs.Json.member "b" j = Some (Obs.Json.Num (-25.0)))
   | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Obs.Json.parse "{\"a\":1} trailing" with
   | Ok _ -> Alcotest.fail "trailing garbage accepted"
   | Error _ -> ())

(* ---- the pipeline under a real sink ---- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_pipeline_sink_neutral () =
  let groups = [ [ "pi" ]; [ "bitcount" ] ] in
  let labels = [ "pi"; "bitcount" ] in
  let quiet = Pipeline.mine ~groups ~labels ~jobs:2 () in
  let path = Filename.temp_file "test_obs" ".jsonl" in
  let sink = Obs.Sink.jsonl path in
  let observed =
    Fun.protect ~finally:(fun () -> Obs.Sink.close sink) (fun () ->
        with_sink sink (fun () -> Pipeline.mine ~groups ~labels ~jobs:2 ()))
  in
  Alcotest.(check (list string)) "same invariant set"
    (List.map Expr.to_string quiet.Pipeline.invariants)
    (List.map Expr.to_string observed.Pipeline.invariants);
  Alcotest.(check int) "same record count"
    quiet.Pipeline.record_count observed.Pipeline.record_count;
  List.iter2
    (fun (a : Pipeline.figure3_row) (b : Pipeline.figure3_row) ->
       Alcotest.(check (list int)) ("figure 3 row " ^ a.group_label)
         [ a.unmodified; a.fresh; a.deleted; a.total ]
         [ b.unmodified; b.fresh; b.deleted; b.total ])
    quiet.Pipeline.figure3 observed.Pipeline.figure3;
  (* And the sink actually saw the run: a span per phase invocation and
     one per workload shard, every line schema-valid. *)
  let names =
    List.map
      (fun line ->
         match Obs.Json.parse line with
         | Error e -> Alcotest.failf "bad JSONL line %S: %s" line e
         | Ok j ->
           (match Obs.Json.(member "type" j, member "name" j) with
            | Some (Obs.Json.Str t), Some (Obs.Json.Str n) ->
              (t, n, Obs.Json.member "parent" j)
            | _ -> Alcotest.failf "line missing type/name: %s" line))
      (read_lines path)
  in
  Sys.remove path;
  let spans n =
    List.length (List.filter (fun (t, m, _) -> t = "span" && m = n) names)
  in
  Alcotest.(check int) "one pipeline.mine span" 1 (spans "pipeline.mine");
  Alcotest.(check int) "one shard span per workload" 2 (spans "mine.shard");
  (* Cross-domain parenting: shard spans run on pool domains, yet every
     one must still parent to the submitting pipeline.mine span (none
     may float as a root). *)
  List.iter
    (fun (t, n, parent) ->
       if t = "span" && n = "mine.shard" then
         Alcotest.(check bool) "mine.shard parents to pipeline.mine" true
           (parent = Some (Obs.Json.Str "pipeline.mine")))
    names

(* ---- Chrome trace-event rendering ---- *)

let test_trace_event_render () =
  let events =
    [ Obs.Sink.Span
        { name = "child"; parent = Some "root"; domain = 1;
          start_ns = 3_000L; dur_ns = 1_000L;
          attrs = [ ("workload", Obs.Sink.S "pi") ] };
      Obs.Sink.Span
        { name = "root"; parent = None; domain = 0; start_ns = 1_000L;
          dur_ns = 5_000L; attrs = [] };
      Obs.Sink.Metric
        { name = "mine.records"; kind = "counter"; value = 7.0; attrs = [] }
    ]
  in
  let doc =
    match Obs.Json.parse (Obs.Trace_event.render events) with
    | Ok d -> d
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  let evs =
    match Obs.Json.member "traceEvents" doc with
    | Some (Obs.Json.Arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let str k ev =
    match Obs.Json.member k ev with
    | Some (Obs.Json.Str s) -> Some s
    | _ -> None
  in
  let num k ev =
    match Obs.Json.member k ev with
    | Some (Obs.Json.Num f) -> Some f
    | _ -> None
  in
  let phase p = List.filter (fun ev -> str "ph" ev = Some p) evs in
  (* process_name + one thread_name per domain, both spans, one counter. *)
  Alcotest.(check int) "metadata events" 3 (List.length (phase "M"));
  Alcotest.(check int) "complete spans" 2 (List.length (phase "X"));
  Alcotest.(check int) "counter events" 1 (List.length (phase "C"));
  let span name =
    List.find (fun ev -> str "name" ev = Some name) (phase "X")
  in
  (* Timestamps are normalized to the earliest span start, in us. *)
  Alcotest.(check (option (float 1e-9))) "root at t0" (Some 0.0)
    (num "ts" (span "root"));
  Alcotest.(check (option (float 1e-9))) "child offset 2us" (Some 2.0)
    (num "ts" (span "child"));
  Alcotest.(check (option (float 1e-9))) "child duration 1us" (Some 1.0)
    (num "dur" (span "child"));
  Alcotest.(check bool) "child keeps its parent attr" true
    (match Obs.Json.member "args" (span "child") with
     | Some args ->
       Obs.Json.member "parent" args = Some (Obs.Json.Str "root")
       && Obs.Json.member "workload" args = Some (Obs.Json.Str "pi")
     | None -> false);
  List.iter
    (fun ev ->
       Alcotest.(check bool) "non-negative ts" true
         (match num "ts" ev with Some t -> t >= 0.0 | None -> false))
    evs

(* ---- the report reader under hostile input ---- *)

let test_report_hostile () =
  let good_span =
    "{\"type\":\"span\",\"name\":\"pipeline.mine\",\"parent\":null,"
    ^ "\"domain\":0,\"start_ns\":1,\"dur_ns\":5000000,\"attrs\":{}}"
  and good_metric =
    "{\"type\":\"metric\",\"name\":\"mine.cache.hit\",\"kind\":\"counter\","
    ^ "\"value\":2.0,\"attrs\":{}}"
  in
  let hostile =
    [ "{\"type\":\"span\",\"name\":\"trunc";                (* truncated *)
      "{\"type\":\"metric\",\"name\":\"n\",\"kind\":\"counter\","
      ^ "\"value\":NaN,\"attrs\":{}}";                      (* NaN literal *)
      "{\"type\":\"wat\",\"name\":\"x\"}";                  (* unknown type *)
      String.make 8192 '[';                                 (* huge nesting *)
      "[1,2,3]";                                            (* not an object *)
      "{\"type\":\"span\",\"name\":\"no_duration\"}"        (* missing field *)
    ]
  in
  let skip_counter = Obs.Metrics.counter "json.skipped" in
  let before = Obs.Metrics.counter_value skip_counter in
  let run =
    Obs.Report.load_lines
      ((good_span :: hostile) @ [ ""; "  "; good_metric ])
  in
  Alcotest.(check int) "one span survives" 1 (List.length run.spans);
  Alcotest.(check int) "one metric survives" 1 (List.length run.metrics);
  Alcotest.(check int) "every hostile line skip-and-counted" 6 run.skipped;
  Alcotest.(check int) "blank lines are not lines" 8 run.total;
  Alcotest.(check int) "json.skipped counter advanced" 6
    (Obs.Metrics.counter_value skip_counter - before);
  (* And the renderer works over whatever survived — both formats. *)
  List.iter
    (fun format ->
       let text = Obs.Report.render ~format run in
       Alcotest.(check bool) "report mentions the skip count" true
         (String.length text > 0
          && (let found = ref false in
              String.iteri
                (fun i _ ->
                   if i + 7 <= String.length text
                   && String.equal (String.sub text i 7) "skipped" then
                     found := true)
                text;
              !found)))
    [ `Text; `Md ]

let test_report_funnel () =
  let gauge fam field v =
    Printf.sprintf
      "{\"type\":\"metric\",\"name\":\"daikon.candidates.%s.%s\",\
       \"kind\":\"gauge\",\"value\":%.1f,\"attrs\":{}}"
      fam field v
  in
  let run =
    Obs.Report.load_lines
      [ gauge "oneof" "born" 100.0; gauge "oneof" "dead" 40.0;
        gauge "oneof" "live" 60.0 ]
  in
  Alcotest.(check int) "three metrics" 3 (List.length run.metrics);
  let text = Obs.Report.render run in
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub text i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "funnel row for oneof" true (contains "oneof");
  Alcotest.(check bool) "survival rate computed" true (contains "60.0%")

let () =
  Alcotest.run "obs"
    [ ("span",
       [ Alcotest.test_case "nesting and emission order" `Quick
           test_span_nesting;
         Alcotest.test_case "closes on exception" `Quick test_span_exception;
         Alcotest.test_case "timed" `Quick test_span_timed;
         Alcotest.test_case "inherited context parents orphans" `Quick
           test_span_context ]);
      ("domains",
       [ Alcotest.test_case "counter is exact across domains" `Quick
           test_counter_across_domains;
         Alcotest.test_case "worker spans isolate from parent" `Quick
           test_worker_spans_do_not_corrupt_parent ]);
      ("metrics",
       [ Alcotest.test_case "gauge high water" `Quick test_gauge;
         Alcotest.test_case "histogram snapshot" `Quick
           test_histogram_snapshot;
         Alcotest.test_case "percentiles within one power of two" `Quick
           test_histogram_resolution;
         Alcotest.test_case "units ride snapshots" `Quick
           test_histogram_unit;
         Alcotest.test_case "kind collision" `Quick
           test_counter_kind_collision ]);
      ("jsonl",
       [ Alcotest.test_case "golden encoding" `Quick test_json_golden;
         Alcotest.test_case "reader" `Quick test_json_parser ]);
      ("trace-event",
       [ Alcotest.test_case "Chrome trace rendering" `Quick
           test_trace_event_render ]);
      ("report",
       [ Alcotest.test_case "hostile input skip-and-count" `Quick
           test_report_hostile;
         Alcotest.test_case "candidate funnel" `Quick test_report_funnel ]);
      ("pipeline",
       [ Alcotest.test_case "JSONL sink is behavior-neutral" `Quick
           test_pipeline_sink_neutral ]) ]
