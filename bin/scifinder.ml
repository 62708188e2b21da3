(* The scifinder command line tool.

     scifinder mine              trace the corpus and print mined invariants
     scifinder identify [-b ID]  identify SCI for one or all Table 1 bugs
     scifinder infer             run the full pipeline and print inferred SCI
     scifinder verify -b ID      enforce SCI as assertions against a bug
     scifinder campaign          generated mutants vs the compiled battery
     scifinder verilog -o FILE   emit a synthesizable monitor for the SCI
     scifinder trace WORKLOAD    stream one workload's fused trace records
     scifinder report RUN.jsonl  digest a --metrics stream into a run report
     scifinder bugs              list the bug registry
     scifinder workloads         list the trace corpus

   Every command exits through a documented code (see --help): 0 on
   success, 1 on runtime errors (unreadable or malformed invariant
   files), 2 when a verified bug evades the assertion battery, 3 on an
   unknown bug id. Failures return through Cmdliner rather than
   aborting mid-term, so the at_exit --metrics flush always runs. *)

open Cmdliner

let setup_logs verbose =
  (* Everything — including App-level lines — goes to stderr, so the
     invariant/SCI listings on stdout stay pipeline-clean
     (`scifinder mine | sort` works even under -v). *)
  let err = Format.err_formatter in
  Logs.set_reporter (Logs.format_reporter ~app:err ~dst:err ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Info)

(* Install the telemetry sinks behind --metrics / --trace-out; counters
   and histograms are flushed into the same stream(s) when the command
   exits. The two sinks tee off one event stream, so a single run can
   feed both the JSONL report pipeline and a Perfetto-loadable trace. *)
let setup_metrics metrics trace_out =
  match (metrics, trace_out) with
  | None, None -> ()
  | _ ->
    let jsonl =
      match metrics with None -> Obs.Sink.null | Some p -> Obs.Sink.jsonl p
    in
    let trace =
      match trace_out with
      | None -> Obs.Sink.null
      | Some p -> Obs.Trace_event.sink p
    in
    let sink = Obs.Sink.tee jsonl trace in
    Obs.Sink.set_global sink;
    at_exit (fun () ->
        Obs.Metrics.emit_all sink;
        Obs.Sink.close sink;
        Obs.Sink.set_global Obs.Sink.null);
    (* at_exit only runs on an orderly exit: a SIGINT/SIGTERM would kill
       the process mid-write and truncate the JSONL tail. Route both
       through exit (128+signo, shell convention) so the flush above
       always runs. Commands with their own graceful shutdown — serve —
       install their handlers after this and win. *)
    let flush_on signal code =
      try Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit code))
      with Invalid_argument _ | Sys_error _ -> ()
    in
    flush_on Sys.sigint 130;
    flush_on Sys.sigterm 143

(* ---- exit codes ---- *)

let runtime_error_exit = 1
let evasion_exit = 2
let unknown_bug_exit = 3

let runtime_error_info =
  Cmd.Exit.info runtime_error_exit
    ~doc:"on runtime errors (unreadable or malformed invariant files)."

let unknown_bug_info =
  Cmd.Exit.info unknown_bug_exit ~doc:"on an unknown bug id."

let common_exits = runtime_error_info :: Cmd.Exit.defaults

(* Runtime failures land here instead of escaping as uncaught
   exceptions: the message goes to stderr through the log reporter and
   the process exits through Cmdliner with a documented code — which
   also lets the at_exit telemetry sink flush normally. *)
let run_guarded f =
  try f () with
  | Invariant.Io.Parse_error (msg, line) ->
    Logs.err (fun m -> m "line %d: %s" line msg);
    runtime_error_exit
  | Sys_error msg ->
    Logs.err (fun m -> m "%s" msg);
    runtime_error_exit

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write telemetry (phase/shard spans, counters, histograms) \
               as JSON lines to $(docv). One object per line; see \
               DESIGN.md for the schema.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Render the same telemetry as a Chrome trace-event JSON \
               file at $(docv) — load it in Perfetto or chrome://tracing. \
               Spans become one track per mining domain; counters become \
               counter events. Composes with $(b,--metrics).")

let jobs_arg =
  Arg.(value & opt int (Util.Parallel.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Trace-mining shards run on a pool of $(docv) domains \
               (default: the recommended domain count). The mined set is \
               identical for any N.")

(* --cache DIR persists per-workload engine shards, corpus summaries and
   lake results so warm re-runs skip tracing; --no-cache is the escape
   hatch when the directory is inherited from the environment or a
   wrapper script. *)
let cache_term =
  let cache =
    Arg.(value & opt (some string) None
         & info [ "cache" ] ~docv:"DIR"
           ~doc:"Reuse mining results under $(docv), one file per \
                 workload shard, corpus summary or lake result, named by \
                 a digest of everything that produced it: cache hits \
                 skip tracing entirely; damaged entries are rejected and \
                 re-mined. Results are bit-identical to an uncached run. \
                 See DESIGN.md for the cache store.")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ]
           ~doc:"Ignore $(b,--cache) and always re-trace the corpus.")
  in
  Term.(const (fun dir off -> if off then None else dir) $ cache $ no_cache)

(* Shared pipeline pieces. *)

let mine_invariants ?(names = None) ?cache_dir ~jobs () =
  Logs.info (fun m ->
      m "mining %s on %d domain%s%s"
        (match names with
         | None -> "the 17-workload corpus"
         | Some l -> String.concat " " l)
        jobs (if jobs = 1 then "" else "s")
        (match cache_dir with
         | None -> ""
         | Some d -> Printf.sprintf " (cache: %s)" d));
  Scifinder_core.Pipeline.mine_invariants ~jobs ?cache_dir ?names ()

(* Phases 2 and 3 as every SCI-deploying command runs them: through the
   pipeline, so --metrics and --trace-out carry the pipeline.optimize
   and pipeline.identify spans and gauges. Returns the optimized set and
   the identification summary. *)
let optimize_identify bugs invariants =
  let optimized =
    (Scifinder_core.Pipeline.optimize invariants).result.optimized
  in
  ( optimized,
    (Scifinder_core.Pipeline.identify ~invariants:optimized bugs).summary )

let find_bug id =
  match Bugs.Table1.by_id id with
  | Some b -> Ok b
  | None ->
    (match Bugs.Amd_errata.by_id id with
     | Some b -> Ok b
     | None -> Error (Printf.sprintf "unknown bug %S (b1..b17, a1..a14)" id))

(* ---- mine ---- *)

(* Case-insensitive substring match for --explain patterns; "" matches
   everything, which is how you dump the whole flight recorder. *)
let contains_ci hay needle =
  let hay = String.lowercase_ascii hay
  and needle = String.lowercase_ascii needle in
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let print_explain ~limit pat (pr : Scifinder_core.Pipeline.provenance_report) =
  let open Daikon.Engine in
  Printf.printf "flight recorder: %d deaths in the ring, %d evicted\n"
    (List.length pr.deaths) pr.deaths_dropped;
  List.iter
    (fun (fam, n, first) ->
       match first with
       | Some d ->
         Printf.printf
           "  %-8s %7d falsified; first: %s at %s, killed by %s \
            (record %d, tick %d)\n"
           fam n d.d_desc d.d_point d.d_workload d.d_record d.d_tick
       | None -> Printf.printf "  %-8s %7d falsified\n" fam n)
    pr.death_families;
  let death_matches d =
    contains_ci d.d_desc pat || contains_ci d.d_point pat
    || contains_ci d.d_family pat || contains_ci d.d_workload pat
  in
  let hits = List.filter death_matches pr.deaths in
  Printf.printf "%d deaths match %S:\n" (List.length hits) pat;
  List.iteri
    (fun i d ->
       if i < limit then
         Printf.printf "  %-8s %s at %s, killed by %s (record %d, tick %d)\n"
           d.d_family d.d_desc d.d_point d.d_workload d.d_record d.d_tick)
    hits;
  if List.length hits > limit then
    Printf.printf "  ... (%d more; raise --limit)\n" (List.length hits - limit);
  let survivors =
    List.filter
      (fun ((i : Invariant.Expr.t), _) ->
         contains_ci (Invariant.Expr.to_string i) pat
         || contains_ci i.point pat)
      pr.witnesses
  in
  Printf.printf "%d surviving SCI match %S (last-narrowed witness):\n"
    (List.length survivors) pat;
  List.iteri
    (fun n ((i : Invariant.Expr.t), (w : witness)) ->
       if n < limit then
         Printf.printf "  %s  <- last narrowed by %s (record %d, tick %d)\n"
           (Invariant.Expr.to_string i) w.w_workload w.w_record w.w_tick)
    survivors;
  if List.length survivors > limit then
    Printf.printf "  ... (%d more; raise --limit)\n"
      (List.length survivors - limit)

let mine_cmd =
  let run verbose metrics trace_out jobs cache_dir limit point workload_names
      output explain from_lake =
    setup_logs verbose;
    setup_metrics metrics trace_out;
    run_guarded @@ fun () ->
    if from_lake <> None && workload_names <> [] then begin
      Logs.err (fun m ->
          m "--from-lake mines every segment of the lake; it cannot be \
             combined with --workload");
      runtime_error_exit
    end
    else begin
    let names = match workload_names with [] -> None | l -> Some l in
    let invariants, prov =
      match from_lake with
      | Some dir ->
        (* Out-of-core: fold the on-disk segments through one engine,
           block by block, instead of re-simulating anything. *)
        let m =
          Scifinder_core.Pipeline.mine_lake
            ~provenance:(explain <> None) ~jobs ?cache_dir dir
        in
        Printf.printf
          "lake: %d records from %d segments (%d bytes on disk)\n"
          m.Scifinder_core.Pipeline.record_count
          (List.length m.Scifinder_core.Pipeline.figure3)
          m.Scifinder_core.Pipeline.trace_bytes;
        (m.invariants, m.prov)
      | None ->
      (match explain with
      | None -> (mine_invariants ~names ?cache_dir ~jobs (), None)
      | Some _ ->
        (* The flight recorder lives in the full mining result; shard
           caches still apply (keyed with the provenance marker). *)
        let m =
          match names with
          | None ->
            Scifinder_core.Pipeline.mine ~provenance:true ~jobs ?cache_dir ()
          | Some l ->
            Scifinder_core.Pipeline.mine ~provenance:true ~jobs ?cache_dir
              ~groups:[ l ] ~labels:[ String.concat "+" l ] ()
        in
        (m.invariants, m.prov))
    in
    (match output with
     | Some path ->
       Invariant.Io.save path invariants;
       Printf.printf "saved %d invariants to %s\n" (List.length invariants) path
     | None -> ());
    let invariants =
      match point with
      | None -> invariants
      | Some p ->
        List.filter (fun (i : Invariant.Expr.t) -> String.equal i.point p)
          invariants
    in
    Printf.printf "%d invariants\n" (List.length invariants);
    List.iteri
      (fun i inv ->
         if i < limit then print_endline (Invariant.Expr.to_string inv))
      invariants;
    if List.length invariants > limit then
      Printf.printf "... (%d more; raise --limit)\n"
        (List.length invariants - limit);
    (match explain, prov with
     | Some pat, Some pr -> print_explain ~limit pat pr
     | _ -> ());
    0
    end
  in
  let limit =
    Arg.(value & opt int 50 & info [ "limit" ] ~doc:"Invariants to print.")
  in
  let point =
    Arg.(value & opt (some string) None
         & info [ "point" ] ~docv:"MNEMONIC"
           ~doc:"Only invariants of this program point (e.g. l.rfe).")
  in
  let workloads =
    Arg.(value & opt_all string []
         & info [ "w"; "workload" ] ~docv:"NAME"
           ~doc:"Trace only this workload (repeatable; default: all 17).")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Save the mined set for later identify/verify runs.")
  in
  let explain =
    Arg.(value & opt (some string) None
         & info [ "explain" ] ~docv:"PAT"
           ~doc:"Mine with the flight recorder on and print evidence \
                 trails: per-family falsification counts with the first \
                 death of each, every recorded death matching $(docv) \
                 (case-insensitive substring over candidate, point, \
                 family and workload; \"\" matches all), and the \
                 last-narrowed witness of every surviving invariant \
                 matching $(docv). The mined set is identical either \
                 way.")
  in
  let from_lake =
    Arg.(value & opt (some dir) None
         & info [ "from-lake" ] ~docv:"DIR"
           ~doc:"Mine out-of-core from the on-disk trace lake at $(docv) \
                 (recorded with $(b,trace --record-out) or \
                 $(b,fuzz --lake)) instead of simulating workloads. \
                 Segments are replayed in sorted filename order, one \
                 block in memory at a time; with $(b,-j) N the replay \
                 shards into byte-balanced block ranges across N \
                 domains. The mined set — and the engine snapshot, byte \
                 for byte — is identical for any N and bit-identical \
                 to a live sequential run over the same traces.")
  in
  Cmd.v (Cmd.info "mine" ~exits:common_exits
           ~doc:"Mine likely processor invariants from the trace corpus.")
    Term.(const run $ verbose_arg $ metrics_arg $ trace_out_arg $ jobs_arg
          $ cache_term $ limit $ point $ workloads $ output $ explain
          $ from_lake)

(* ---- identify ---- *)

let load_or_mine ~jobs ?cache_dir = function
  | Some path ->
    let invs = Invariant.Io.load path in
    Logs.info (fun m -> m "loaded %d invariants from %s" (List.length invs) path);
    invs
  | None -> mine_invariants ?cache_dir ~jobs ()

let input_arg =
  Arg.(value & opt (some string) None
       & info [ "i"; "invariants" ] ~docv:"FILE"
         ~doc:"Load a saved invariant set instead of re-mining the corpus.")

let identify_cmd =
  let run verbose metrics trace_out jobs cache_dir bug_id input =
    setup_logs verbose;
    setup_metrics metrics trace_out;
    run_guarded @@ fun () ->
    match Option.fold ~none:(Ok Bugs.Table1.all)
            ~some:(fun id -> Result.map (fun b -> [ b ]) (find_bug id))
            bug_id
    with
    | Error e ->
      Logs.err (fun m -> m "%s" e);
      unknown_bug_exit
    | Ok bugs ->
      let _, summary =
        optimize_identify bugs (load_or_mine ~jobs ?cache_dir input)
      in
      List.iter
        (fun (r : Sci.Identify.report) ->
           Printf.printf "%s: %d SCI, %d false positives, %s\n"
             r.bug.Bugs.Registry.id
             (List.length r.true_sci)
             (List.length r.false_positives)
             (if r.detected then "detected" else "NOT detected");
           List.iteri
             (fun i inv ->
                if i < 10 then
                  Printf.printf "  %s\n" (Invariant.Expr.to_string inv))
             r.true_sci)
        summary.reports;
      0
  in
  let bug =
    Arg.(value & opt (some string) None
         & info [ "b"; "bug" ] ~docv:"ID" ~doc:"A single bug id (default: all of Table 1).")
  in
  Cmd.v (Cmd.info "identify"
           ~exits:(unknown_bug_info :: common_exits)
           ~doc:"Identify security-critical invariants from known errata.")
    Term.(const run $ verbose_arg $ metrics_arg $ trace_out_arg $ jobs_arg
          $ cache_term $ bug $ input_arg)

(* ---- infer ---- *)

let infer_cmd =
  let run verbose metrics trace_out jobs cache_dir limit =
    setup_logs verbose;
    setup_metrics metrics trace_out;
    run_guarded @@ fun () ->
    let mining = Scifinder_core.Pipeline.mine ~jobs ?cache_dir () in
    let optimized, summary =
      optimize_identify Bugs.Table1.all mining.invariants
    in
    let inf = Scifinder_core.Pipeline.infer ~all_invariants:optimized summary in
    Printf.printf
      "model: lambda %.4f, test accuracy %.0f%%, %d features selected\n"
      inf.chosen_lambda (100.0 *. inf.test_accuracy)
      (List.length inf.selected_features);
    Printf.printf "%d recommended, %d false positives, %d surviving (%d property classes)\n"
      (List.length inf.recommended) (List.length inf.inferred_fp)
      (List.length inf.surviving) inf.property_count;
    List.iteri
      (fun i (key, members) ->
         if i < limit then
           Printf.printf "%-40s (%d SCI) e.g. %s\n" key (List.length members)
             (Invariant.Expr.to_string (List.hd members)))
      (Scifinder_core.Shape.group inf.surviving);
    0
  in
  let limit =
    Arg.(value & opt int 40 & info [ "limit" ] ~doc:"Property classes to print.")
  in
  Cmd.v (Cmd.info "infer" ~exits:common_exits
           ~doc:"Run the full pipeline and print inferred security properties.")
    Term.(const run $ verbose_arg $ metrics_arg $ trace_out_arg $ jobs_arg
          $ cache_term $ limit)

(* ---- verify ---- *)

let verify_cmd =
  let run verbose metrics trace_out jobs cache_dir bug_id input =
    setup_logs verbose;
    setup_metrics metrics trace_out;
    run_guarded @@ fun () ->
    match find_bug bug_id with
    | Error e ->
      Logs.err (fun m -> m "%s" e);
      unknown_bug_exit
    | Ok bug ->
      let _, summary =
        optimize_identify Bugs.Table1.all (load_or_mine ~jobs ?cache_dir input)
      in
      let battery = Assertions.Ovl.of_invariants summary.unique_sci in
      let buggy = Sci.Identify.capture_trigger ~fault:bug.fault bug.trigger in
      let clean = Sci.Identify.capture_trigger bug.trigger in
      let fired = Assertions.Monitor.fired_assertions battery buggy in
      let fired_clean = Assertions.Monitor.fired_assertions battery clean in
      let clean_names = List.map (fun (a : Assertions.Ovl.t) -> a.name) fired_clean in
      let real =
        List.filter
          (fun (a : Assertions.Ovl.t) -> not (List.mem a.name clean_names))
          fired
      in
      Printf.printf "%d assertions deployed; %d fire on the %s exploit\n"
        (List.length battery) (List.length real) bug.Bugs.Registry.id;
      List.iteri
        (fun i (a : Assertions.Ovl.t) ->
           if i < 10 then Printf.printf "  %s\n" (Assertions.Ovl.to_ovl_string a))
        real;
      if real = [] then begin
        Printf.printf "bug %s evades the assertion battery\n" bug.id;
        evasion_exit
      end
      else 0
  in
  let bug =
    Arg.(required & opt (some string) None
         & info [ "b"; "bug" ] ~docv:"ID" ~doc:"Bug to attack (required).")
  in
  Cmd.v (Cmd.info "verify"
           ~exits:(Cmd.Exit.info evasion_exit
                     ~doc:"when the bug evades the assertion battery."
                   :: unknown_bug_info :: common_exits)
           ~doc:"Dynamic verification: enforce the SCI as assertions against an exploit.")
    Term.(const run $ verbose_arg $ metrics_arg $ trace_out_arg $ jobs_arg
          $ cache_term $ bug $ input_arg)

(* ---- campaign ---- *)

let campaign_cmd =
  let run verbose metrics trace_out jobs cache_dir input seed mutants triggers
      tries evidence =
    setup_logs verbose;
    setup_metrics metrics trace_out;
    run_guarded @@ fun () ->
    let _, summary =
      optimize_identify Bugs.Table1.all (load_or_mine ~jobs ?cache_dir input)
    in
    Logs.info (fun m ->
        m "campaign: %d mutants, %d triggers, %d assertions (seed %d)"
          mutants triggers (List.length summary.unique_sci) seed);
    let c =
      Scifinder_core.Pipeline.campaign ~seed ~mutants ~triggers ~tries
        ~sci:summary.unique_sci ()
    in
    Printf.printf
      "%d/%d mutants detected over %d fuzz triggers (%d clean-firing) in %.1fs\n"
      c.detected_total c.mutant_total c.trigger_count c.fp_trigger_count
      c.camp_seconds;
    Printf.printf "%-5s %8s %8s %12s %8s\n"
      "class" "mutants" "detected" "mean-latency" "fp-rate";
    List.iter
      (fun (cl : Scifinder_core.Pipeline.campaign_class) ->
         Printf.printf "%-5s %8d %8d %12s %8.2f\n"
           cl.class_name cl.class_total cl.class_detected
           (if Float.is_nan cl.class_mean_latency then "-"
            else Printf.sprintf "%.1f" cl.class_mean_latency)
           cl.class_fp_rate)
      c.classes;
    Printf.printf "fingerprint %s\n" c.fingerprint;
    if evidence then begin
      Printf.printf "evidence trails (%d detected mutants):\n"
        c.detected_total;
      List.iter
        (fun (o : Scifinder_core.Pipeline.mutant_outcome) ->
           if o.detected then
             Printf.printf
               "  %-5s %-4s caught by %s on trigger %s at record %d\n\
               \        %s\n"
               o.mutant.Bugs.Mutant.id
               (Bugs.Registry.category_name o.mutant.Bugs.Mutant.category)
               (Option.value o.assertion ~default:"?")
               o.trigger o.latency o.mutant.Bugs.Mutant.synopsis)
        c.outcomes
    end;
    0
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
           ~doc:"Campaign seed: mutants, triggers and results are a pure \
                 function of it.")
  in
  let mutants =
    Arg.(value & opt int 200
         & info [ "mutants" ] ~docv:"N" ~doc:"Generated semantic mutants.")
  in
  let triggers =
    Arg.(value & opt int 48
         & info [ "triggers" ] ~docv:"N"
           ~doc:"Fuzz-generated trigger programs in the shared pool.")
  in
  let tries =
    Arg.(value & opt int 3
         & info [ "tries" ] ~docv:"N"
           ~doc:"Triggers each mutant gets before counting as undetected.")
  in
  let evidence =
    Arg.(value & flag
         & info [ "evidence" ]
           ~doc:"After the class table, print one evidence line per \
                 detected mutant: the assertion that fired, the trigger \
                 program that exposed it, and the detection latency \
                 (first-firing record index).")
  in
  Cmd.v (Cmd.info "campaign" ~exits:common_exits
           ~doc:"Mutant-at-scale fault injection: generated semantic \
                 mutants vs the compiled SCI battery, reported per \
                 CF/XR/MA/IE/CR/RU class.")
    Term.(const run $ verbose_arg $ metrics_arg $ trace_out_arg $ jobs_arg
          $ cache_term $ input_arg $ seed $ mutants $ triggers $ tries
          $ evidence)

(* ---- verilog ---- *)

let verilog_cmd =
  let run verbose metrics trace_out jobs cache_dir input output =
    setup_logs verbose;
    setup_metrics metrics trace_out;
    run_guarded @@ fun () ->
    let _, summary =
      optimize_identify Bugs.Table1.all (load_or_mine ~jobs ?cache_dir input)
    in
    let reps = Scifinder_core.Shape.representatives summary.unique_sci in
    let battery = Assertions.Ovl.of_invariants reps in
    let cost = Assertions.Cost.battery_overhead battery in
    let text = Assertions.Verilog.emit battery in
    (match output with
     | Some path ->
       let oc = open_out path in
       Fun.protect ~finally:(fun () -> close_out oc)
         (fun () -> output_string oc text);
       Printf.printf "wrote %s: %d assertions, est. %d LUTs (%.2f%% of the SoC)\n"
         path (List.length battery) cost.total_luts cost.lut_pct
     | None -> print_string text);
    0
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the module here (default: stdout).")
  in
  Cmd.v (Cmd.info "verilog" ~exits:common_exits
           ~doc:"Emit a synthesizable monitor module for the identified SCI.")
    Term.(const run $ verbose_arg $ metrics_arg $ trace_out_arg $ jobs_arg
          $ cache_term $ input_arg $ output)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let run verbose metrics trace_out jobs cache_dir seed budget max_steps
      no_mine output lake =
    setup_logs verbose;
    setup_metrics metrics trace_out;
    run_guarded @@ fun () ->
    Logs.info (fun m ->
        m "baseline coverage: tracing the %d hand-written workloads"
          (List.length Workloads.Suite.all));
    let baseline = Fuzz.Coverage.of_workloads Workloads.Suite.all in
    let corpus =
      Fuzz.Corpus.run ~max_steps ~initial:baseline ~seed ~budget ()
    in
    let corpus = Fuzz.Corpus.minimize corpus in
    print_string (Fuzz.Corpus.report corpus);
    (match Fuzz.Corpus.to_workloads corpus with
     | [] -> Printf.printf "no accepted programs; nothing to mine\n"
     | workloads ->
       Fuzz.Corpus.register corpus;
       (match lake with
        | None -> ()
        | Some dir ->
          (* Appending each run's traces grows the lake across seeds —
             replication without re-simulation. Each accepted program
             owns its segment file, so recording shards across the
             domain pool. *)
          let s =
            Scifinder_core.Pipeline.record_lake ~workloads
              ~names:(Fuzz.Corpus.names corpus) ~jobs ~dir ()
          in
          Printf.printf
            "lake: appended %d records (%d bytes) across %d segments in %s\n"
            s.Scifinder_core.Pipeline.lake_records
            s.Scifinder_core.Pipeline.lake_bytes
            s.Scifinder_core.Pipeline.lake_segments dir);
       if not no_mine then begin
         let invariants =
           Scifinder_core.Pipeline.mine_invariants ~jobs ?cache_dir
             ~names:(Fuzz.Corpus.names corpus) ()
         in
         let canon =
           List.sort_uniq String.compare
             (List.map Invariant.Expr.to_string invariants)
         in
         Printf.printf "mined %d invariants from the fuzz corpus (set %s)\n"
           (List.length invariants)
           (Digest.to_hex (Digest.string (String.concat "\n" canon)));
         match output with
         | Some path ->
           Invariant.Io.save path invariants;
           Printf.printf "saved %d invariants to %s\n"
             (List.length invariants) path
         | None -> ()
       end);
    0
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
           ~doc:"PRNG seed; everything downstream is a pure function of \
                 ($(docv), --budget).")
  in
  let budget =
    Arg.(value & opt int 200
         & info [ "budget" ] ~docv:"K"
           ~doc:"Candidate programs to generate.")
  in
  let max_steps =
    Arg.(value & opt int Fuzz.Corpus.default_max_steps
         & info [ "max-steps" ] ~docv:"N"
           ~doc:"Per-candidate step budget; candidates that exhaust it \
                 are rejected as runaways (fuzz.timeout).")
  in
  let no_mine =
    Arg.(value & flag
         & info [ "no-mine" ]
           ~doc:"Stop after the corpus loop; skip mining the accepted \
                 programs.")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Save the fuzz-mined invariants for identify/verify runs.")
  in
  let lake =
    Arg.(value & opt (some string) None
         & info [ "lake" ] ~docv:"DIR"
           ~doc:"Append the accepted programs' traces to the on-disk \
                 trace lake at $(docv) (created if missing), one segment \
                 per workload, for later $(b,mine --from-lake) runs. \
                 Recording runs $(b,-j) workloads in parallel (each \
                 owns its segment file). Re-running with different \
                 seeds accumulates.")
  in
  Cmd.v (Cmd.info "fuzz" ~exits:common_exits
           ~doc:"Grow a coverage-guided corpus of generated OR1200 \
                 programs and mine it.")
    Term.(const run $ verbose_arg $ metrics_arg $ trace_out_arg $ jobs_arg
          $ cache_term $ seed $ budget $ max_steps $ no_mine $ output $ lake)

(* ---- trace ---- *)

let trace_cmd =
  let run verbose metrics trace_out jobs workload_name limit point_filter
      no_decode_cache record_out =
    setup_logs verbose;
    setup_metrics metrics trace_out;
    run_guarded @@ fun () ->
    (* Accepted for CLI uniformity with [fuzz --lake] and
       [mine --from-lake]: a single workload records on one domain. *)
    if jobs > 1 then
      Logs.info (fun m ->
          m "trace records one workload on one domain; -j %d shards \
             fuzz --lake recording and mine --from-lake replay" jobs);
    match Workloads.Suite.by_name workload_name with
    | None ->
      Logs.err (fun m ->
          m "unknown workload %S (try: scifinder workloads)" workload_name);
      runtime_error_exit
    | Some w ->
      let machine =
        Cpu.Machine.create ~tick_period:w.tick_period
          ~decode_cache:(not no_decode_cache) ()
      in
      Cpu.Machine.load_image machine w.image;
      Cpu.Machine.set_pc machine w.entry;
      let pc_slot = Trace.Var.dual_index Trace.Var.Pc in
      let shown = ref 0 in
      let writer =
        Option.map
          (fun path -> Trace.Segment.create ~workload:w.name path)
          record_out
      in
      (* The whole trace streams through the fold; nothing is
         materialised no matter how long the program runs — records
         headed for the lake leave through the segment writer's
         fixed-size block buffer. *)
      let (total, matched), outcome =
        Fun.protect
          ~finally:(fun () -> Option.iter Trace.Segment.close writer)
          (fun () ->
             Trace.Runner.run_fold ~init:(0, 0)
               ~f:(fun (total, matched) (r : Trace.Record.t) ->
                   Option.iter (fun sw -> Trace.Segment.add sw r) writer;
                   let wanted =
                     match point_filter with
                     | None -> true
                     | Some p -> String.equal r.Trace.Record.point p
                   in
                   if wanted && !shown < limit then begin
                     Printf.printf "%08x  %s\n"
                       r.Trace.Record.values.(pc_slot) r.Trace.Record.point;
                     incr shown
                   end;
                   (total + 1, if wanted then matched + 1 else matched))
               machine)
      in
      (match writer, record_out with
       | Some sw, Some path ->
         Printf.printf "recorded %d records to %s (%d bytes)\n"
           (Trace.Segment.written sw) path
           (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0)
       | _ -> ());
      if matched > !shown then
        Printf.printf "... (%d more; raise --limit)\n" (matched - !shown);
      Printf.printf "%d records (%d matching) from %s, outcome: %s\n"
        total matched w.name
        (match outcome with
         | `Halted Cpu.Machine.Exit -> "exit"
         | `Halted Cpu.Machine.Stalled -> "stalled"
         | `Halted Cpu.Machine.Double_fault -> "double fault"
         | `Max_steps -> "step budget exhausted");
      let hits, misses, invalidates =
        Cpu.Machine.decode_cache_stats machine
      in
      if hits + misses > 0 then
        Printf.printf
          "decode cache: %d hits, %d misses, %d invalidates (%.2f%% hit rate)\n"
          hits misses invalidates
          (100.0 *. float_of_int hits /. float_of_int (hits + misses));
      0
  in
  let workload =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"WORKLOAD"
           ~doc:"Workload to trace (see $(b,scifinder workloads)).")
  in
  let limit =
    Arg.(value & opt int 20 & info [ "limit" ] ~doc:"Records to print.")
  in
  let point =
    Arg.(value & opt (some string) None
         & info [ "point" ] ~docv:"MNEMONIC"
           ~doc:"Only records of this program point (e.g. l.rfe).")
  in
  let no_decode_cache =
    Arg.(value & flag
         & info [ "no-decode-cache" ]
           ~doc:"Disable the pre-decoded instruction cache (identical \
                 trace, baseline speed).")
  in
  let record_out =
    Arg.(value & opt (some string) None
         & info [ "record-out" ] ~docv:"FILE"
           ~doc:"Append every record (ignoring --point/--limit, which \
                 only shape what is printed) to the segment file $(docv) \
                 — a durable, replayable slice of the trace lake for \
                 $(b,mine --from-lake).")
  in
  Cmd.v (Cmd.info "trace" ~exits:common_exits
           ~doc:"Stream one workload's fused trace records without \
                 materialising the trace.")
    Term.(const run $ verbose_arg $ metrics_arg $ trace_out_arg $ jobs_arg
          $ workload $ limit $ point $ no_decode_cache $ record_out)

(* ---- report ---- *)

let report_cmd =
  let run verbose md top file =
    setup_logs verbose;
    run_guarded @@ fun () ->
    let r = Obs.Report.load_file file in
    print_string
      (Obs.Report.render ~top ~format:(if md then `Md else `Text) r);
    0
  in
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"RUN.jsonl"
           ~doc:"A telemetry stream written by $(b,--metrics).")
  in
  let md =
    Arg.(value & flag
         & info [ "md"; "markdown" ]
           ~doc:"Render GitHub-flavoured markdown tables instead of \
                 aligned text.")
  in
  let top =
    Arg.(value & opt int 5
         & info [ "top" ] ~docv:"N"
           ~doc:"Slowest workload shards to list.")
  in
  Cmd.v (Cmd.info "report" ~exits:common_exits
           ~doc:"Digest a --metrics telemetry stream into a run report: \
                 the span tree with self vs total time, the per-family \
                 candidate funnel, cache hit/stale rates and the slowest \
                 shards. Unparseable lines are skipped and counted, \
                 never fatal.")
    Term.(const run $ verbose_arg $ md $ top $ file)

(* ---- bugs / workloads listings ---- *)

let bugs_cmd =
  let run () =
    Printf.printf "%-5s %-4s %-6s %s\n" "Id" "Cls" "ISA?" "Synopsis";
    List.iter
      (fun (b : Bugs.Registry.t) ->
         Printf.printf "%-5s %-4s %-6s %s  [%s]\n"
           b.id
           (Bugs.Registry.category_name b.category)
           (if b.isa_visible then "yes" else "uarch")
           b.synopsis b.source)
      (Bugs.Table1.all @ Bugs.Amd_errata.all);
    0
  in
  Cmd.v (Cmd.info "bugs" ~doc:"List the security-critical bug registry.")
    Term.(const run $ const ())

let workloads_cmd =
  let run () =
    List.iter
      (fun (w : Workloads.Rt.t) ->
         Printf.printf "%-12s %5d words%s\n" w.name (List.length w.image)
           (if w.tick_period > 0 then
              Printf.sprintf "  (tick timer every %d insns)" w.tick_period
            else ""))
      Workloads.Suite.all;
    0
  in
  Cmd.v (Cmd.info "workloads" ~doc:"List the 17-program trace corpus.")
    Term.(const run $ const ())

(* ---- serve ---- *)

let serve_cmd =
  let run verbose metrics trace_out socket port host jobs queue idle_timeout
      cache_dir mine_jobs =
    setup_logs verbose;
    setup_metrics metrics trace_out;
    run_guarded @@ fun () ->
    match (socket, port) with
    | None, None | Some _, Some _ ->
      Logs.err (fun m ->
          m "serve needs exactly one of --socket PATH or --port N");
      runtime_error_exit
    | _ ->
      let listen =
        match socket with
        | Some path -> Serve.Server.Unix_sock path
        | None -> Serve.Server.Tcp (host, Option.get port)
      in
      let cfg =
        { Serve.Server.listen;
          jobs = max 1 jobs;
          max_inflight = max 1 queue;
          idle_timeout;
          cache_dir;
          mine_jobs = max 1 mine_jobs }
      in
      let srv = Serve.Server.create cfg in
      (* Override the exit-on-signal handlers from setup_metrics: the
         server has a real graceful path (drain queued jobs, flush every
         connection and the telemetry sink) and returns 0 here. *)
      List.iter
        (fun s ->
           Sys.set_signal s
             (Sys.Signal_handle (fun _ -> Serve.Server.stop srv)))
        [ Sys.sigint; Sys.sigterm ];
      (match Serve.Server.sockaddr srv with
       | Unix.ADDR_UNIX path ->
         Logs.app (fun m ->
             m "serving on %s (%d workers, inflight window %d)" path cfg.jobs
               cfg.max_inflight)
       | Unix.ADDR_INET (addr, p) ->
         Logs.app (fun m ->
             m "serving on %s:%d (%d workers, inflight window %d)"
               (Unix.string_of_inet_addr addr) p cfg.jobs cfg.max_inflight));
      Serve.Server.run srv;
      Logs.app (fun m -> m "server stopped");
      0
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on the Unix-domain socket $(docv) (a stale socket \
                 file is replaced).")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"N"
           ~doc:"Listen on TCP port $(docv) ($(b,0) picks a free port; \
                 the bound address is logged).")
  in
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"ADDR"
           ~doc:"Bind address for $(b,--port).")
  in
  let jobs =
    Arg.(value & opt int 2
         & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains executing jobs; sessions are scheduled \
                 over them fair round-robin.")
  in
  let queue =
    Arg.(value & opt int 4
         & info [ "queue" ] ~docv:"N"
           ~doc:"Per-session inflight bound (queued + running). Requests \
                 beyond it are refused with an explicit $(i,busy) \
                 response instead of queueing without limit.")
  in
  let idle_timeout =
    Arg.(value & opt float 300.
         & info [ "idle-timeout" ] ~docv:"SECONDS"
           ~doc:"Evict a session (and its engine state) after $(docv) \
                 without requests; $(b,0) keeps sessions forever.")
  in
  let mine_jobs =
    Arg.(value & opt int 1
         & info [ "mine-jobs" ] ~docv:"N"
           ~doc:"Trace-mining shards per job (default 1: the sequential \
                 byte-identity reference; see DESIGN.md).")
  in
  Cmd.v (Cmd.info "serve" ~exits:common_exits
           ~doc:"Run the persistent mining service: per-client sessions \
                 with incremental engine state, fair queueing across \
                 sessions, bounded inflight windows with explicit \
                 backpressure, idle eviction and graceful shutdown on \
                 SIGINT/SIGTERM. Speaks the length-framed JSONL protocol \
                 of $(b,scifinder client) (see DESIGN.md).")
    Term.(const run $ verbose_arg $ metrics_arg $ trace_out_arg $ socket
          $ port $ host $ jobs $ queue $ idle_timeout $ cache_term
          $ mine_jobs)

(* ---- client ---- *)

let busy_exit = 4

let busy_info =
  Cmd.Exit.info busy_exit
    ~doc:"when the server refuses the request (session inflight window \
          full); resubmit after a response frees a slot."

let client_exits = busy_info :: common_exits

let client_socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
         ~doc:"Connect to the Unix-domain socket $(docv).")

let client_port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"N" ~doc:"Connect to TCP port $(docv).")

let client_host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"Server address for $(b,--port).")

let client_session_arg =
  Arg.(value & opt (some string) None
       & info [ "session" ] ~docv:"NAME"
         ~doc:"Mining session to address (default: $(i,default)). Each \
               session accumulates engine state across requests \
               server-side.")

(* Connect, run [f], and map connection/protocol failures to exit 1.
   [f] receives the connected client and returns the exit code. *)
let with_client socket port host f =
  match (socket, port) with
  | None, None | Some _, Some _ ->
    Logs.err (fun m ->
        m "client needs exactly one of --socket PATH or --port N");
    runtime_error_exit
  | _ ->
    (match
       match socket with
       | Some path -> Serve.Client.connect_unix path
       | None -> Serve.Client.connect_tcp ~host ~port:(Option.get port)
     with
     | exception Unix.Unix_error (e, _, _) ->
       Logs.err (fun m -> m "cannot connect: %s" (Unix.error_message e));
       runtime_error_exit
     | c ->
       Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
       (try f c with
        | Serve.Client.Protocol_error msg ->
          Logs.err (fun m -> m "%s" msg);
          runtime_error_exit
        | Unix.Unix_error (e, fn, _) ->
          Logs.err (fun m -> m "%s: %s" fn (Unix.error_message e));
          runtime_error_exit))

let print_response = function
  | Serve.Proto.Mined { records; total_records; rows; invariants; digest; _ }
    ->
    List.iter
      (fun (r : Serve.Proto.row) ->
         Printf.printf "%-24s %6d unmodified %6d fresh %6d deleted %6d total\n"
           r.r_label r.r_unmodified r.r_fresh r.r_deleted r.r_total)
      rows;
    Printf.printf "mined %d records (session total %d)\n" records
      total_records;
    if invariants >= 0 then Printf.printf "%d invariants\n" invariants;
    Option.iter (fun d -> Printf.printf "engine digest %s\n" d) digest;
    0
  | Checked { supported; violated; vacuous; statuses; _ } ->
    List.iteri (fun i s -> Printf.printf "%3d %s\n" (i + 1) s) statuses;
    Printf.printf "%d supported, %d violated, %d vacuous\n" supported
      violated vacuous;
    0
  | Campaigned { mutants; detected; fp_triggers; fingerprint; _ } ->
    Printf.printf "%d/%d mutants detected, %d false-positive triggers [%s]\n"
      detected mutants fp_triggers fingerprint;
    0
  | Snapshotted { path; bytes; digest; _ } ->
    Printf.printf "snapshot %s (%d bytes, digest %s)\n" path bytes digest;
    0
  | Stats
      { uptime_ms; sessions; queued; running; completed; busy; evicted;
        p99_job_ms; _ } ->
    Printf.printf
      "uptime %d ms, %d sessions, %d queued, %d running, %d completed, \
       %d busy, %d evicted, p99 job %.1f ms\n"
      uptime_ms (List.length sessions) queued running completed busy evicted
      p99_job_ms;
    List.iter
      (fun (s : Serve.Proto.session_stat) ->
         Printf.printf "  %-16s %8d records %3d sources %3d queued%s\n"
           s.st_name s.st_records s.st_sources s.st_queued
           (if s.st_running then " (running)" else ""))
      sessions;
    0
  | Cancelled { target; found; _ } ->
    Printf.printf "cancel %d: %s\n" target
      (if found then "dropped" else "not queued");
    0
  | Busy { queued; limit; _ } ->
    Logs.err (fun m ->
        m "server busy: %d/%d inflight for this session" queued limit);
    busy_exit
  | Bye _ ->
    Printf.printf "server shutting down\n";
    0
  | Failed { message; _ } ->
    Logs.err (fun m -> m "%s" message);
    runtime_error_exit

let client_call socket port host session request =
  with_client socket port host @@ fun c ->
  print_response (Serve.Client.call c ?session request)

let client_mine_cmd =
  let run verbose socket port host session workloads fuzz seed lake label
      quick digest =
    setup_logs verbose;
    run_guarded @@ fun () ->
    let source =
      match (workloads, fuzz, lake) with
      | [], None, None ->
        Error "one of -w NAME, --fuzz N or --lake DIR is required"
      | ws, None, None -> Ok (Serve.Proto.Names ws)
      | [], Some count, None -> Ok (Serve.Proto.Fuzz { seed; count })
      | [], None, Some dir -> Ok (Serve.Proto.Lake dir)
      | _ -> Error "-w, --fuzz and --lake are mutually exclusive"
    in
    match source with
    | Error e ->
      Logs.err (fun m -> m "%s" e);
      runtime_error_exit
    | Ok source ->
      client_call socket port host session
        (Serve.Proto.Mine { source; label; row = not quick; digest })
  in
  let workloads =
    Arg.(value & opt_all string []
         & info [ "w"; "workload" ] ~docv:"NAME"
           ~doc:"Mine this workload into the session (repeatable).")
  in
  let fuzz =
    Arg.(value & opt (some int) None
         & info [ "fuzz" ] ~docv:"N"
           ~doc:"Mine $(docv) deterministic fuzz candidates instead of \
                 named workloads.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"S" ~doc:"Fuzz seed for $(b,--fuzz).")
  in
  let lake =
    Arg.(value & opt (some string) None
         & info [ "lake" ] ~docv:"DIR"
           ~doc:"Mine the trace-lake directory $(docv) ($(i,server-side) \
                 path) instead of simulating workloads.")
  in
  let label =
    Arg.(value & opt (some string) None
         & info [ "label" ] ~docv:"LABEL"
           ~doc:"Figure 3 row label (default: the workload names).")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
           ~doc:"Absorb the traces without extracting invariants — \
                 cheaper when batching many mine requests before one \
                 $(b,check) or final mine.")
  in
  let digest =
    Arg.(value & flag
         & info [ "digest" ]
           ~doc:"Also return the session engine's snapshot digest (for \
                 determinism checks against a batch run).")
  in
  Cmd.v (Cmd.info "mine" ~exits:client_exits
           ~doc:"Mine workloads, fuzz candidates or a lake into a session.")
    Term.(const run $ verbose_arg $ client_socket_arg $ client_port_arg
          $ client_host_arg $ client_session_arg $ workloads $ fuzz $ seed
          $ lake $ label $ quick $ digest)

let client_check_cmd =
  let run verbose socket port host session file =
    setup_logs verbose;
    run_guarded @@ fun () ->
    let text =
      if file = "-" then In_channel.input_all In_channel.stdin
      else In_channel.with_open_text file In_channel.input_all
    in
    client_call socket port host session (Serve.Proto.Check { text })
  in
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
           ~doc:"Invariant file in the $(b,mine -o) text grammar \
                 ($(b,-) reads stdin). Each invariant is validated \
                 against everything the session has mined.")
  in
  Cmd.v (Cmd.info "check" ~exits:client_exits
           ~doc:"Check invariants against a session's mined corpus.")
    Term.(const run $ verbose_arg $ client_socket_arg $ client_port_arg
          $ client_host_arg $ client_session_arg $ file)

let client_campaign_cmd =
  let run verbose socket port host session seed mutants triggers tries =
    setup_logs verbose;
    run_guarded @@ fun () ->
    client_call socket port host session
      (Serve.Proto.Campaign { seed; mutants; triggers; tries })
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Mutant seed.")
  in
  let mutants =
    Arg.(value & opt int 200
         & info [ "mutants" ] ~docv:"N" ~doc:"Mutants to generate.")
  in
  let triggers =
    Arg.(value & opt int 48
         & info [ "triggers" ] ~docv:"N"
           ~doc:"Trigger workloads per mutant.")
  in
  let tries =
    Arg.(value & opt int 3
         & info [ "tries" ] ~docv:"N" ~doc:"Generation attempts per slot.")
  in
  Cmd.v (Cmd.info "campaign" ~exits:client_exits
           ~doc:"Run the mutant campaign against the session's optimised \
                 SCIs.")
    Term.(const run $ verbose_arg $ client_socket_arg $ client_port_arg
          $ client_host_arg $ client_session_arg $ seed $ mutants $ triggers
          $ tries)

let client_snapshot_cmd =
  let run verbose socket port host session path =
    setup_logs verbose;
    run_guarded @@ fun () ->
    client_call socket port host session (Serve.Proto.Snapshot { path })
  in
  let path =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PATH"
           ~doc:"Where the $(i,server) writes the engine snapshot.")
  in
  Cmd.v (Cmd.info "snapshot" ~exits:client_exits
           ~doc:"Persist the session's engine state server-side.")
    Term.(const run $ verbose_arg $ client_socket_arg $ client_port_arg
          $ client_host_arg $ client_session_arg $ path)

let client_status_cmd =
  let run verbose socket port host =
    setup_logs verbose;
    run_guarded @@ fun () ->
    client_call socket port host None Serve.Proto.Status
  in
  Cmd.v (Cmd.info "status" ~exits:client_exits
           ~doc:"Print server uptime, queue depths, per-session state and \
                 the p99 job latency.")
    Term.(const run $ verbose_arg $ client_socket_arg $ client_port_arg
          $ client_host_arg)

let client_cancel_cmd =
  let run verbose socket port host session target =
    setup_logs verbose;
    run_guarded @@ fun () ->
    client_call socket port host session (Serve.Proto.Cancel { target })
  in
  let target =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"ID"
           ~doc:"Request id to drop from the session's queue (running \
                 jobs cannot be cancelled).")
  in
  Cmd.v (Cmd.info "cancel" ~exits:client_exits
           ~doc:"Drop a queued request from a session.")
    Term.(const run $ verbose_arg $ client_socket_arg $ client_port_arg
          $ client_host_arg $ client_session_arg $ target)

let client_shutdown_cmd =
  let run verbose socket port host =
    setup_logs verbose;
    run_guarded @@ fun () ->
    client_call socket port host None Serve.Proto.Shutdown
  in
  Cmd.v (Cmd.info "shutdown" ~exits:client_exits
           ~doc:"Ask the server to drain queued jobs and stop.")
    Term.(const run $ verbose_arg $ client_socket_arg $ client_port_arg
          $ client_host_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client" ~exits:client_exits
       ~doc:"Talk to a running $(b,scifinder serve) over its socket: \
             mine into sessions, check invariants, run campaigns, \
             snapshot engines, inspect or control the server.")
    [ client_mine_cmd; client_check_cmd; client_campaign_cmd;
      client_snapshot_cmd; client_status_cmd; client_cancel_cmd;
      client_shutdown_cmd ]

let () =
  let doc = "semi-automatic generation of security-critical processor invariants" in
  let info = Cmd.info "scifinder" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
                     [ mine_cmd; identify_cmd; infer_cmd; verify_cmd;
                       campaign_cmd; verilog_cmd; fuzz_cmd; trace_cmd;
                       serve_cmd; client_cmd; report_cmd; bugs_cmd;
                       workloads_cmd ]))
