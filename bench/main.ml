(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5) and runs the gated experiments.

     main.exe               every paper table and figure, in paper order
     main.exe <id>          one experiment of [registry] (at the end)
     main.exe export [DIR]  the figure series as CSV (default bench_data)
     main.exe -j N ...      mine the trace corpus on a pool of N domains
                            (default: the recommended domain count)

   A gated experiment prints its verdict as a PASS/FAIL line; the run
   exits 1 if any gate failed, and an unknown id exits 1 with the list
   of ids. Per-layer timings live in scibench (bench/e2e), not here.

   Absolute numbers differ from the paper (the substrate is an ISA-level
   simulator and a synthetic trace corpus, see DESIGN.md); the shapes are
   the reproduction target and are recorded in EXPERIMENTS.md. *)

module Pipeline = Scifinder_core.Pipeline
module Experiments = Scifinder_core.Experiments
module Expr = Invariant.Expr

let pf = Printf.printf

let header title =
  pf "\n===== %s =====\n" title

(* The timed lanes report the fastest of three runs, with the last
   run's result. *)
let best_of_3 f =
  let best_s = ref infinity and res = ref None in
  for _ = 1 to 3 do
    let r, s = Obs.Clock.time f in
    if s < !best_s then best_s := s;
    res := Some r
  done;
  (Option.get !res, !best_s)

(* Two lanes timed in alternation, round by round, so drift on the host
   hits both alike; each keeps its fastest of three runs. *)
let best_of_3_alternating f g =
  let a = ref (None, infinity) and b = ref (None, infinity) in
  let run slot lane =
    let r, s = Obs.Clock.time lane in
    slot := (Some r, Float.min (snd !slot) s)
  in
  for _ = 1 to 3 do run a f; run b g done;
  let get slot = (Option.get (fst !slot), snd !slot) in
  (get a, get b)

(* Run [f] on a fresh temporary directory, removed with its files
   however [f] ends. *)
let with_temp_dir tag f =
  let dir = Filename.temp_file tag "" in
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

(* The command line: "-j N" anywhere; the rest are the experiment id
   and its optional argument (export's directory). *)
let jobs, positional =
  let usage msg = prerr_endline msg; exit 1 in
  let rec go jobs acc = function
    | ("-j" | "--jobs") :: rest ->
      (match rest with
       | [] -> usage "-j needs a count"
       | n :: rest ->
         (match int_of_string_opt n with
          | Some j when j >= 1 -> go j acc rest
          | Some _ | None -> usage ("bad job count: " ^ n)))
    | arg :: rest -> go jobs (arg :: acc) rest
    | [] -> (jobs, List.rev acc)
  in
  go (Util.Parallel.default_jobs ()) [] (List.tl (Array.to_list Sys.argv))

(* ---- the shared pipeline run (computed lazily, used by many tables) ---- *)

let mining = lazy (Pipeline.mine ~jobs ())

let optimization =
  lazy (Pipeline.optimize (Lazy.force mining).Pipeline.invariants)

let optimized_invariants =
  lazy (Lazy.force optimization).Pipeline.result.Invopt.Pipeline.optimized

let identification =
  lazy (Pipeline.identify ~invariants:(Lazy.force optimized_invariants)
          Bugs.Table1.all)

let inference =
  lazy
    (Pipeline.infer ~all_invariants:(Lazy.force optimized_invariants)
       (Lazy.force identification).Pipeline.summary)

(* ---- Figure 3 ---- *)

let fig3 () =
  header "Figure 3: unique invariants per cumulatively added program";
  let m = Lazy.force mining in
  pf "%-11s %10s %10s %10s %10s\n" "program" "total" "unmodified" "new" "deleted";
  List.iter
    (fun (r : Pipeline.figure3_row) ->
       pf "%-11s %10d %10d %10d %10d\n"
         r.group_label r.total r.unmodified r.fresh r.deleted)
    m.Pipeline.figure3;
  (* The paper's qualitative claim: the set stabilises as programs are
     added (late programs add/remove far less than early ones). *)
  (match m.Pipeline.figure3 with
   | first :: rest when rest <> [] ->
     let last = List.nth rest (List.length rest - 1) in
     pf "churn first program: %d, last program: %d (paper: converging)\n"
       (first.fresh + first.deleted) (last.fresh + last.deleted)
   | _ -> ());
  pf "trace corpus: %d records (~%.1f MB of trace data; paper used 26 GB)\n"
    m.Pipeline.record_count
    (float_of_int m.Pipeline.trace_bytes /. 1048576.0)

(* ---- Table 2 ---- *)

let tab2 () =
  header "Table 2: effect of invariant optimizations";
  let o = Lazy.force optimization in
  let stages = o.Pipeline.result.Invopt.Pipeline.stages in
  pf "%-12s %12s %12s\n" "" "Invariants" "Variables";
  List.iter
    (fun (s : Invopt.Pipeline.stage_stats) ->
       pf "%-12s %12d %12d\n" s.stage s.invariants s.variables)
    stages;
  (match stages with
   | [ raw; _; _; er ] ->
     pf "reduction: %.1f%% invariants, %.1f%% variables (paper: 17%% / 20%%)\n"
       (100.0 *. (1.0 -. (float_of_int er.invariants /. float_of_int raw.invariants)))
       (100.0 *. (1.0 -. (float_of_int er.variables /. float_of_int raw.variables)))
   | _ -> ())

(* ---- Table 3 ---- *)

let tab3 () =
  header "Table 3: SCI identified per security-critical bug";
  let ident = Lazy.force identification in
  pf "%-5s %9s %6s %9s\n" "Bug" "True SCI" "FP" "Detected";
  List.iter
    (fun (r : Sci.Identify.report) ->
       pf "%-5s %9d %6d %9s\n"
         r.bug.Bugs.Registry.id
         (List.length r.true_sci)
         (List.length r.false_positives)
         (if r.detected then "yes" else "NO"))
    ident.Pipeline.summary.Sci.Identify.reports;
  let detected =
    List.length
      (List.filter (fun (r : Sci.Identify.report) -> r.detected)
         ident.Pipeline.summary.Sci.Identify.reports)
  in
  pf "detected %d/17 (paper: 16/17, b2 needs microarchitectural state)\n" detected;
  pf "unique SCI %d, unique FP %d (paper labels: 54 SCI / 48 non-SCI)\n"
    (List.length ident.Pipeline.summary.Sci.Identify.unique_sci)
    (List.length ident.Pipeline.summary.Sci.Identify.unique_fp)

(* ---- Table 4 ---- *)

let tab4 () =
  header "Table 4: elastic-net features with non-zero coefficients";
  let inf = Lazy.force inference in
  pf "lambda = %.4f (3-fold CV, alpha = 0.5; paper: lambda = 0.08)\n"
    inf.Pipeline.chosen_lambda;
  pf "test accuracy = %.0f%% (paper: 90%%)\n" (100.0 *. inf.Pipeline.test_accuracy);
  pf "%d of %d features selected (paper: 24 of 158)\n"
    (List.length inf.Pipeline.selected_features)
    (Invariant.Feature.dimension inf.Pipeline.space);
  let neg, pos =
    List.partition (fun (_, b) -> b < 0.0) inf.Pipeline.selected_features
  in
  let names fs = String.concat " " (List.map fst fs) in
  pf "negative weights (SCI-associated):\n  %s\n" (names neg);
  pf "positive weights (non-SCI-associated):\n  %s\n" (names pos)

(* ---- Figure 4 ---- *)

let fig4 () =
  header "Figure 4: PCA of labeled invariants on the selected features";
  let inf = Lazy.force inference in
  pf "%d labeled invariants projected on PC1/PC2\n"
    (List.length inf.Pipeline.pca_points);
  (* Print per-class centroids and the separation ratio: the textual
     equivalent of the scatter plot. *)
  let centroid cls =
    let pts = List.filter (fun (_, c) -> c = cls) inf.Pipeline.pca_points in
    let n = float_of_int (max 1 (List.length pts)) in
    let sx = List.fold_left (fun a (p, _) -> a +. p.(0)) 0.0 pts /. n in
    let sy = List.fold_left (fun a (p, _) -> a +. p.(1)) 0.0 pts /. n in
    (sx, sy, List.length pts)
  in
  let (x1, y1, n1) = centroid 1 and (x0, y0, n0) = centroid 0 in
  pf "SC centroid      (%+.2f, %+.2f) over %d invariants\n" x1 y1 n1;
  pf "non-SC centroid  (%+.2f, %+.2f) over %d invariants\n" x0 y0 n0;
  pf "between/within separation ratio: %.2f\n" inf.Pipeline.pca_separation;
  pf "(the class centroids sit at opposite signs of PC2: the clusters are\n";
  pf " visible though, with 10x more labels than the paper's 102, less\n";
  pf " crisply separated than its Figure 4; see fig4.csv via 'export')\n"

(* ---- Table 5 ---- *)

let tab5 () =
  header "Table 5: SCI inference results";
  let inf = Lazy.force inference in
  let unlabeled =
    List.length (Lazy.force optimized_invariants)
    - inf.Pipeline.labeled_sci - inf.Pipeline.labeled_non_sci
  in
  pf "%-12s %10s %6s %20s\n" "Invariants" "Inferred" "FP" "Security properties";
  pf "%-12d %10d %6d %20d\n"
    unlabeled
    (List.length inf.Pipeline.recommended)
    (List.length inf.Pipeline.inferred_fp)
    inf.Pipeline.property_count;
  pf "(paper: 88,199 -> 3,146 inferred, 852 FP, 33 properties)\n"

(* ---- Tables 6 and 7 ---- *)

let coverage =
  lazy
    (Experiments.property_coverage
       (Lazy.force identification).Pipeline.summary
       (Lazy.force inference))

let tab6 () =
  header "Table 6: coverage of the SPECS / Security-Checker properties";
  let cov = Lazy.force coverage in
  pf "%-5s %-5s %-6s %-14s %s\n" "Prop" "Class" "Ident" "Infer/bugs" "Description";
  let in_scope_found = ref 0 and in_scope_total = ref 0 in
  List.iter
    (fun (c : Properties.Catalog.coverage) ->
       let p = c.property in
       if p.Properties.Catalog.origin <> Properties.Catalog.New_property then begin
         let status =
           match p.Properties.Catalog.expectation with
           | Properties.Catalog.Needs_microarch -> "*"
           | Properties.Catalog.Outside_core -> "#"
           | Properties.Catalog.Reachable | Properties.Catalog.Not_generated ->
             if c.from_identification then String.concat " " c.found_by_bugs
             else if c.from_inference then "infer"
             else "N"
         in
         if Properties.Catalog.in_scope p then begin
           incr in_scope_total;
           if c.from_identification || c.from_inference then incr in_scope_found
         end;
         pf "%-5s %-5s %-6s %-14s %s\n"
           p.Properties.Catalog.id
           (Bugs.Registry.category_name p.Properties.Catalog.category)
           (if c.from_identification then "yes" else "-")
           status
           p.Properties.Catalog.description
       end)
    cov;
  pf "found %d of %d in-scope prior-work properties (paper: 19 of 22, 86.4%%)\n"
    !in_scope_found !in_scope_total

let tab7 () =
  header "Table 7: new security properties not covered by prior work";
  let cov = Lazy.force coverage in
  List.iter
    (fun (c : Properties.Catalog.coverage) ->
       let p = c.property in
       if p.Properties.Catalog.origin = Properties.Catalog.New_property then
         pf "%-5s %-5s ident=[%s] infer=%b  %s\n"
           p.Properties.Catalog.id
           (Bugs.Registry.category_name p.Properties.Catalog.category)
           (String.concat " " c.found_by_bugs)
           c.from_inference
           p.Properties.Catalog.description)
    cov;
  pf "(paper: p28 from b6/b7, p29 from b3/b10, p30 from inference)\n"

(* ---- Section 5.6 ---- *)

let sec56 () =
  header "Section 5.6: detecting unknown bugs (14 held-out AMD-class errata)";
  let ident = Lazy.force identification in
  let inf = Lazy.force inference in
  let reports =
    Experiments.holdout
      ~identified_sci:ident.Pipeline.summary.Sci.Identify.unique_sci
      ~inferred_sci:inf.Pipeline.surviving
      Bugs.Amd_errata.all
  in
  pf "%-5s %-10s %-10s %-9s %s\n" "Bug" "Identified" "Inferred" "Detected" "Synopsis";
  List.iter
    (fun (r : Experiments.holdout_report) ->
       pf "%-5s %-10s %-10s %-9s %s\n"
         r.bug.Bugs.Registry.id
         (if r.by_identified then "fires" else "-")
         (if r.by_inferred then "fires" else "-")
         (if r.detected then "yes" else "NO")
         r.bug.Bugs.Registry.synopsis)
    reports;
  let detected = List.length (List.filter (fun r -> r.Experiments.detected) reports) in
  pf "detected %d/14 (paper: 12/14; two are timing-only microarchitectural)\n" detected;
  header "Section 5.6 (repeat): random 14/14 split over the 28-bug pool";
  let split =
    Experiments.random_split ~invariants:(Lazy.force optimized_invariants) ()
  in
  pf "training: %s\n" (String.concat " " split.Experiments.training_ids);
  pf "test:     %s\n" (String.concat " " split.Experiments.test_ids);
  List.iter
    (fun (r : Experiments.holdout_report) ->
       pf "  %-5s detected=%s\n" r.bug.Bugs.Registry.id
         (if r.detected then "yes" else "NO"))
    split.Experiments.reports;
  pf "detected %d/%d (paper: 13/14 with only b6 missed)\n"
    split.Experiments.detected_count
    (List.length split.Experiments.reports)

(* ---- Table 8 ---- *)

let tab8 () =
  header "Table 8: execution time of each step";
  let m = Lazy.force mining in
  let o = Lazy.force optimization in
  let ident = Lazy.force identification in
  let inf = Lazy.force inference in
  let rows =
    [ ( "Invariant Generation",
        Printf.sprintf "%d records (%.1f MB)" m.Pipeline.record_count
          (float_of_int m.Pipeline.trace_bytes /. 1048576.0),
        m.Pipeline.seconds );
      ( "Optimization",
        Printf.sprintf "%d invariants" (List.length m.Pipeline.invariants),
        o.Pipeline.opt_seconds );
      ( "SCI Identification",
        Printf.sprintf "%d invariants + %d bugs"
          (List.length (Lazy.force optimized_invariants))
          (List.length Bugs.Table1.all),
        ident.Pipeline.ident_seconds );
      ( "SCI Inference",
        Printf.sprintf "%d invariants"
          (List.length (Lazy.force optimized_invariants)),
        inf.Pipeline.infer_seconds ) ]
  in
  let width =
    List.fold_left
      (fun w (_, data, _) -> max w (String.length data))
      (String.length "Data size") rows
  in
  pf "%-22s %-*s %12s\n" "Step" width "Data size" "Time";
  List.iter
    (fun (step, data, seconds) ->
       pf "%-22s %-*s %11.1fs\n" step width data seconds)
    rows;
  pf "(paper: 11:21:00 generation over 26 GB, 4 s optimization,\n";
  pf " 44:52 identification, <1 s inference; same ordering of magnitudes)\n"

(* ---- Table 9 ---- *)

let tab9 () =
  header "Table 9: hardware overhead of the synthesized assertions";
  let ident = Lazy.force identification in
  let inf = Lazy.force inference in
  let r =
    Experiments.hardware_overhead
      ~identified_sci:ident.Pipeline.summary.Sci.Identify.unique_sci
      ~inferred_sci:inf.Pipeline.surviving
  in
  pf "baseline: OR1200 SoC, %d LUTs, %.2f W, %.1f ns (xupv5-lx110t)\n"
    Assertions.Cost.baseline_luts Assertions.Cost.baseline_power_w
    Assertions.Cost.baseline_delay_ns;
  pf "%-22s %14s %14s %8s\n" "" "Initial SCI" "Final SCI" "";
  pf "%-22s %14d %14d\n" "Assertions" r.Experiments.initial_assertions
    r.Experiments.final_assertions;
  pf "%-22s %13.2f%% %13.2f%%  (paper: 1.6%% / 4.4%%)\n" "Logic (LUT overhead)"
    r.Experiments.initial.Assertions.Cost.lut_pct
    r.Experiments.final.Assertions.Cost.lut_pct;
  pf "%-22s %13.2f%% %13.2f%%  (paper: 0.13%% / 0.31%%)\n" "Power"
    r.Experiments.initial.Assertions.Cost.power_pct
    r.Experiments.final.Assertions.Cost.power_pct;
  pf "%-22s %13.1fns %13.1fns (paper: 0%%)\n" "Added delay"
    r.Experiments.initial.Assertions.Cost.delay_ns_added
    r.Experiments.final.Assertions.Cost.delay_ns_added

(* ---- ablation: the jump effective-address derived variable ----

   The paper reports property p10 as not generated and notes that adding
   the effective address as a derived variable would generate it (§5.4).
   This ablation flips that configuration switch and shows p10 appear. *)

let ablation () =
  header "Ablation: jump effective-address derived variable (fixes p10)";
  let matcher = (Option.get (Properties.Catalog.by_id "p10")).matcher in
  let run jump_ea =
    let config =
      { Trace.Runner.default_config with
        mask_config = { Trace.Record.jump_ea } }
    in
    let engine = Daikon.Engine.create () in
    List.iter
      (fun name ->
         let w = Option.get (Workloads.Suite.by_name name) in
         let machine = Cpu.Machine.create ~tick_period:w.tick_period () in
         Cpu.Machine.load_image machine w.image;
         Cpu.Machine.set_pc machine w.entry;
         ignore (Trace.Runner.run ~config
                   ~observer:(Daikon.Engine.observe engine) machine))
      [ "vmlinux"; "instru"; "mcf" ];
    List.exists matcher (Daikon.Engine.invariants engine)
  in
  pf "p10 (jumps update the PC correctly) generated without EA: %b (paper: no)\n"
    (run false);
  pf "p10 generated with the EA derived variable:              %b (paper's fix)\n"
    (run true)

(* ---- ablation: trace coverage vs. false positives ----

   §3.5: "Increasing test coverage reduces the number of false positives."
   Re-run identification with invariant sets mined from growing corpus
   prefixes and report the clean-run false positives of Table 3. *)

let ablation_coverage () =
  header "Ablation: trace coverage vs. identification false positives (§3.5)";
  let prefixes =
    [ (2, [ "vmlinux"; "basicmath" ]);
      (5, [ "vmlinux"; "basicmath"; "parser"; "mesa"; "ammp" ]);
      (17, Workloads.Suite.names) ]
  in
  pf "%-10s %12s %12s %14s\n" "programs" "invariants" "unique SCI" "clean-run FPs";
  List.iter
    (fun (n, names) ->
       let engine = Daikon.Engine.create () in
       List.iter
         (fun name ->
            let w = Option.get (Workloads.Suite.by_name name) in
            ignore (Trace.Runner.stream ~tick_period:w.Workloads.Rt.tick_period
                      ~entry:w.Workloads.Rt.entry
                      ~observer:(Daikon.Engine.observe engine)
                      w.Workloads.Rt.image))
         names;
       let invariants = Daikon.Engine.invariants engine in
       let summary = Sci.Identify.run_all ~invariants Bugs.Table1.all in
       pf "%-10d %12d %12d %14d\n" n (List.length invariants)
         (List.length summary.Sci.Identify.unique_sci)
         (List.length summary.Sci.Identify.unique_fp))
    prefixes;
  pf "(expected: false positives shrink as coverage grows)\n"

(* ---- ablation: the instruction-integrity derived variables ----

   Bug b11 (wrong instruction fetched after an LSU stall) is caught through
   the IR / MEM_AT_PC / OPCODE derived variables — the ISA-level shadow of
   the paper's "microarchitectural information" extension discussion.
   Remove them from the invariant set and b11's detection collapses. *)

let ablation_instruction_integrity () =
  header "Ablation: instruction-integrity derived variables (IR/MEM_AT_PC/OPCODE)";
  let invariants = Lazy.force optimized_invariants in
  let mentions_integrity (i : Expr.t) =
    List.exists
      (fun id ->
         match Trace.Var.id_base_name id with
         | "IR" | "MEM_AT_PC" | "OPCODE" -> true
         | _ -> false)
      (Expr.vars i)
  in
  let without = List.filter (fun i -> not (mentions_integrity i)) invariants in
  let b11 = Option.get (Bugs.Table1.by_id "b11") in
  let run invs =
    let index = Sci.Checker.index invs in
    let report = Sci.Identify.run ~index b11 in
    (List.length report.Sci.Identify.true_sci, report.Sci.Identify.detected)
  in
  let full_sci, full_detected = run invariants in
  let abl_sci, abl_detected = run without in
  pf "with the derived variables:    %4d SCI, detected %b\n" full_sci full_detected;
  pf "without them:                  %4d SCI, detected %b\n" abl_sci abl_detected;
  pf "(the integrity variables carry %d of b11's SCI; removing the whole\n"
    (full_sci - abl_sci);
  pf " class would reproduce the paper's p12/p18 microarchitectural gap)\n"

(* ---- CSV export of the figure series, for external plotting ---- *)

let export dir =
  header ("Exporting figure data to " ^ dir);
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write name emit =
    let path = Filename.concat dir name in
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> emit oc);
    pf "wrote %s\n" path
  in
  let m = Lazy.force mining in
  write "fig3.csv" (fun oc ->
      output_string oc "program,total,unmodified,new,deleted\n";
      List.iter
        (fun (r : Pipeline.figure3_row) ->
           Printf.fprintf oc "%s,%d,%d,%d,%d\n"
             r.group_label r.total r.unmodified r.fresh r.deleted)
        m.Pipeline.figure3);
  let inf = Lazy.force inference in
  write "fig4.csv" (fun oc ->
      output_string oc "pc1,pc2,class\n";
      List.iter
        (fun (p, cls) ->
           Printf.fprintf oc "%.6f,%.6f,%s\n" p.(0) p.(1)
             (if cls = 1 then "SC" else "nonSC"))
        inf.Pipeline.pca_points);
  let o = Lazy.force optimization in
  write "tab2.csv" (fun oc ->
      output_string oc "stage,invariants,variables\n";
      List.iter
        (fun (s : Invopt.Pipeline.stage_stats) ->
           Printf.fprintf oc "%s,%d,%d\n" s.stage s.invariants s.variables)
        o.Pipeline.result.Invopt.Pipeline.stages);
  let ident = Lazy.force identification in
  write "tab3.csv" (fun oc ->
      output_string oc "bug,true_sci,fp,detected\n";
      List.iter
        (fun (r : Sci.Identify.report) ->
           Printf.fprintf oc "%s,%d,%d,%b\n" r.bug.Bugs.Registry.id
             (List.length r.true_sci) (List.length r.false_positives)
             r.detected)
        ident.Pipeline.summary.Sci.Identify.reports);
  write "tab4.csv" (fun oc ->
      output_string oc "feature,coefficient\n";
      List.iter
        (fun (n, b) -> Printf.fprintf oc "%s,%.6f\n" n b)
        inf.Pipeline.selected_features)

(* ---- incremental mining: cold vs. warm snapshot cache ---- *)

let cachebench () =
  header "Incremental mining: cold vs. warm snapshot cache";
  with_temp_dir "scifinder_cachebench" @@ fun dir ->
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let strings m = List.map Expr.to_string m.Pipeline.invariants in
  let same a b =
    strings a = strings b
    && a.Pipeline.figure3 = b.Pipeline.figure3
    && a.Pipeline.record_count = b.Pipeline.record_count
    && a.Pipeline.mnemonic_coverage = b.Pipeline.mnemonic_coverage
  in
  let cold = Pipeline.mine ~jobs ~cache_dir:dir () in
  let warm = Pipeline.mine ~jobs ~cache_dir:dir () in
  let speedup = cold.Pipeline.seconds /. Float.max warm.Pipeline.seconds 1e-9 in
  pf "%-28s %12s %12s %10s\n" "run" "invariants" "records" "seconds";
  pf "%-28s %12d %12d %10.2f\n" "cold (empty cache)"
    (List.length cold.Pipeline.invariants) cold.Pipeline.record_count
    cold.Pipeline.seconds;
  pf "%-28s %12d %12d %10.2f\n" "warm (full cache)"
    (List.length warm.Pipeline.invariants) warm.Pipeline.record_count
    warm.Pipeline.seconds;
  let warm_equal = same cold warm in
  pf "warm equals cold (invariant set + Figure 3 rows, bit-identical): %b\n"
    warm_equal;
  pf "warm speedup: %.1fx (acceptance floor: 5x)\n" speedup;
  (* Damage the cache: truncate one shard entry and remove the summary
     entry — the run must reject the shard, re-mine it, and still come
     back bit-identical. *)
  let stale0 = counter "mine.cache.stale" in
  let entries prefix =
    List.filter
      (fun f -> String.starts_with ~prefix f)
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  let victim = Filename.concat dir (List.hd (entries "shard-")) in
  let len = (Unix.stat victim).Unix.st_size in
  let fd = Unix.openfile victim [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (len / 2);
  Unix.close fd;
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) (entries "summary-");
  let repaired = Pipeline.mine ~jobs ~cache_dir:dir () in
  let stale_seen = counter "mine.cache.stale" - stale0 in
  let repaired_equal = same cold repaired in
  pf "truncated shard rejected and re-mined: %b (stale entries seen: %d)\n"
    repaired_equal stale_seen;
  let pass = warm_equal && repaired_equal && stale_seen > 0 && speedup >= 5.0 in
  pf "cachebench gate (warm==cold, stale rejected, >=5x): %s\n"
    (if pass then "PASS" else "FAIL");
  pass

(* ---- fuzzbench: the generated corpus extends Figure 3 ---- *)

(* Pinned for seed 42 / budget 60: measured +14 coverage points over the
   17 hand-written programs; the gate floor leaves regression headroom. *)
let fuzz_seed = 42
let fuzz_budget = 60
let fuzz_min_new = 10

let fuzzbench () =
  header "Fuzzbench: coverage-guided generated programs extend Figure 3";
  let baseline = Fuzz.Coverage.of_workloads Workloads.Suite.all in
  let grow () =
    Fuzz.Corpus.minimize
      (Fuzz.Corpus.run ~initial:baseline ~seed:fuzz_seed
         ~budget:fuzz_budget ())
  in
  let corpus = grow () in
  (* Same seed, same corpus: the whole loop (images, acceptance order,
     coverage table) must be byte-identical run to run. *)
  let deterministic =
    String.equal (Fuzz.Corpus.fingerprint corpus)
      (Fuzz.Corpus.fingerprint (grow ()))
  in
  let fresh = Fuzz.Coverage.Pset.cardinal (Fuzz.Corpus.new_points corpus) in
  let accepted = List.length corpus.Fuzz.Corpus.entries in
  pf "seed %d, budget %d: %d programs accepted, %d timeouts\n" fuzz_seed
    fuzz_budget accepted corpus.Fuzz.Corpus.timeouts;
  pf "%s" (Fuzz.Coverage.table ~baseline corpus.Fuzz.Corpus.total);
  pf "same-seed rerun byte-identical: %b\n" deterministic;
  (* Extend Figure 3 with the generated programs as an 18th group and
     mine cold then warm through the snapshot cache. *)
  Workloads.Suite.reset_registered ();
  Fuzz.Corpus.register corpus;
  let groups =
    Workloads.Suite.figure3_groups @ [ Fuzz.Corpus.names corpus ]
  in
  let labels = Workloads.Suite.figure3_labels @ [ "fuzz" ] in
  with_temp_dir "scifinder_fuzzbench" @@ fun dir ->
  let cold = Pipeline.mine ~jobs ~groups ~labels ~cache_dir:dir () in
  let warm = Pipeline.mine ~jobs ~groups ~labels ~cache_dir:dir () in
  let strings m = List.map Expr.to_string m.Pipeline.invariants in
  let warm_equal =
    strings cold = strings warm && cold.Pipeline.figure3 = warm.Pipeline.figure3
  in
  pf "%-11s %10s %10s %10s %10s\n" "program" "total" "unmodified" "new"
    "deleted";
  List.iter
    (fun (r : Pipeline.figure3_row) ->
       pf "%-11s %10d %10d %10d %10d\n" r.group_label r.total r.unmodified
         r.fresh r.deleted)
    cold.Pipeline.figure3;
  (* Convergence shape: the Figure 3 claim must keep holding over the
     hand-written prefix (the last hand-written group churns far less
     than the first). The fuzz group itself is EXPECTED to churn hard:
     its programs exercise operand values the hand corpus never reaches,
     which deletes over-fitted invariants — that is the §3.5 coverage
     effect the FP delta below measures. *)
  let churn (r : Pipeline.figure3_row) = r.fresh + r.deleted in
  let shape_ok, first_churn, hand_churn, fuzz_churn =
    match cold.Pipeline.figure3 with
    | first :: rest when List.length rest >= 2 ->
      let n = List.length rest in
      let hand = List.nth rest (n - 2) in
      let fuzz = List.nth rest (n - 1) in
      (churn hand < churn first, churn first, churn hand, churn fuzz)
    | _ -> (false, 0, 0, 0)
  in
  pf "churn first program: %d, last hand-written group: %d (converging: %b)\n"
    first_churn hand_churn shape_ok;
  pf "churn fuzz group: %d (over-fitted invariants retired by coverage)\n"
    fuzz_churn;
  pf "warm rerun equals cold (invariants + Figure 3 rows): %b\n" warm_equal;
  (* SCI / false-positive delta (report only): identify over the mined
     set with and without the generated group. The 17 base shards are
     shared through the same cache directory. *)
  let base = Pipeline.mine ~jobs ~cache_dir:dir () in
  let identify m =
    let opt =
      (Pipeline.optimize m.Pipeline.invariants).Pipeline.result
        .Invopt.Pipeline.optimized
    in
    (Pipeline.identify ~invariants:opt Bugs.Table1.all).Pipeline.summary
  in
  let s_base = identify base and s_ext = identify cold in
  let sci s = List.length s.Sci.Identify.unique_sci
  and fp s = List.length s.Sci.Identify.unique_fp in
  pf "identification:   %-10s %8s %8s\n" "corpus" "SCI" "FP";
  pf "                  %-10s %8d %8d\n" "base-17" (sci s_base) (fp s_base);
  pf "                  %-10s %8d %8d  (delta %+d SCI, %+d FP)\n" "with-fuzz"
    (sci s_ext) (fp s_ext)
    (sci s_ext - sci s_base) (fp s_ext - fp s_base);
  let fp_delta = fp s_ext - fp s_base in
  let pass =
    deterministic && fresh >= fuzz_min_new && warm_equal && shape_ok
    && fp_delta <= 0
  in
  pf "fuzzbench gate (new coverage >= %d, deterministic, warm identical, \
      fig3 shape, FP not up): %s\n"
    fuzz_min_new
    (if pass then "PASS" else "FAIL");
  Workloads.Suite.reset_registered ();
  pass

(* ---- minebench: the streaming hot path vs the frozen pre-change miner ---- *)

(* Speedup acceptance floor. The measured margin is well above this
   (roughly 3-4x on the reference machine); the floor leaves room for
   run-to-run noise and slower CI hosts. *)
let minebench_floor = 1.5

let minebench () =
  header "Minebench: streaming hot path vs the frozen pre-change miner";
  let corpus = Workloads.Suite.all in
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  (* Lane A, the denominator: the pre-change mining loop frozen into this
     harness (Trace_baseline / Engine_baseline) — decode-per-step
     machine, a pre-state copy per branch, hash-keyed boxed-tracker
     engine. Lane B: today's Runner + Engine. Same corpus, same clock. *)
  let run_baseline () =
    let engine = Engine_baseline.create () in
    List.iter
      (fun (w : Workloads.Rt.t) ->
         ignore
           (Trace_baseline.stream ~tick_period:w.tick_period ~entry:w.entry
              ~observer:(Engine_baseline.observe engine) w.image))
      corpus;
    engine
  in
  let run_current () =
    let engine = Daikon.Engine.create () in
    List.iter
      (fun (w : Workloads.Rt.t) ->
         ignore
           (Trace.Runner.stream ~tick_period:w.tick_period ~entry:w.entry
              ~observer:(Daikon.Engine.observe engine) w.image))
      corpus;
    engine
  in
  let base_engine, base_s = best_of_3 run_baseline in
  let hit0 = counter "cpu.decode_cache.hit"
  and miss0 = counter "cpu.decode_cache.miss" in
  let cur_engine, cur_s = best_of_3 run_current in
  let dc_hits = counter "cpu.decode_cache.hit" - hit0
  and dc_misses = counter "cpu.decode_cache.miss" - miss0 in
  let records = Daikon.Engine.record_count cur_engine in
  let counts_equal =
    records = Engine_baseline.record_count base_engine
    && Daikon.Engine.point_count cur_engine
       = Engine_baseline.point_count base_engine
  in
  (* The frozen and current engines must have falsified exactly the same
     candidate sets — the hot path is a constant-factor change, not a
     semantic one. *)
  let stats_equal =
    Daikon.Engine.candidate_stats cur_engine
    = Engine_baseline.candidate_stats base_engine
  in
  (* State identity through the current code: the streaming lane above
     vs materialize-then-replay through [observe_baseline] must serialize
     to byte-identical SCIFSNAP images (zero-materialization changed the
     plumbing, not the state). A two-shard parallel-style merge must
     extract the identical invariant set; its snapshot bytes are allowed
     to differ only in the dead-pair scale support counts, which a shard
     merge over-counts by design (see [Daikon.Engine.merge_into]). *)
  let enc_stream = Daikon.Engine.encode cur_engine in
  let replay_engine = Daikon.Engine.create () in
  List.iter
    (fun (w : Workloads.Rt.t) ->
       let recs, _ =
         Trace.Runner.capture ~tick_period:w.tick_period ~entry:w.entry
           w.image
       in
       List.iter (Daikon.Engine.observe_baseline replay_engine) recs)
    corpus;
  let enc_replay = Daikon.Engine.encode replay_engine in
  let snap_equal = String.equal enc_stream enc_replay in
  let sharded_equal =
    let half = List.length corpus / 2 in
    let a = Daikon.Engine.create () and b = Daikon.Engine.create () in
    List.iteri
      (fun i (w : Workloads.Rt.t) ->
         let eng = if i < half then a else b in
         ignore
           (Trace.Runner.stream ~tick_period:w.tick_period ~entry:w.entry
              ~observer:(Daikon.Engine.observe eng) w.image))
      corpus;
    Daikon.Engine.merge_into a b;
    List.map Expr.to_string (Daikon.Engine.invariants a)
    = List.map Expr.to_string (Daikon.Engine.invariants cur_engine)
  in
  (* And through the pipeline: sequential vs parallel mining must still
     agree on the invariant set and every Figure 3 row, and the final
     invariant set must match what the streaming engine extracts. *)
  let seq = Pipeline.mine ~jobs:1 () in
  let par = Pipeline.mine ~jobs:(max 2 jobs) () in
  let strings m = List.map Expr.to_string m.Pipeline.invariants in
  let fig3_equal =
    strings seq = strings par && seq.Pipeline.figure3 = par.Pipeline.figure3
  in
  let stream_eq_mine =
    List.map Expr.to_string (Daikon.Engine.invariants cur_engine)
    = strings seq
  in
  let rps_base = float_of_int records /. Float.max base_s 1e-9 in
  let rps_cur = float_of_int records /. Float.max cur_s 1e-9 in
  let speedup = base_s /. Float.max cur_s 1e-9 in
  pf "%-28s %12s %12s %14s\n" "lane (best of 3)" "records" "seconds"
    "records/sec";
  pf "%-28s %12d %12.3f %14.0f\n" "pre-change (frozen copy)" records base_s
    rps_base;
  pf "%-28s %12d %12.3f %14.0f\n" "streaming hot path" records cur_s rps_cur;
  pf "decode cache over the corpus: %d hits, %d misses (%.2f%% hit rate)\n"
    dc_hits dc_misses
    (100.0 *. float_of_int dc_hits
     /. Float.max (float_of_int (dc_hits + dc_misses)) 1.0);
  pf "engine state vs frozen baseline (records, points, candidates): %b\n"
    (counts_equal && stats_equal);
  pf "stream == replay (SCIFSNAP bytes): %b, sharded merge invariants: %b\n"
    snap_equal sharded_equal;
  pf "seq == par mining (invariants + Figure 3 rows): %b, stream == mine: %b\n"
    fig3_equal stream_eq_mine;
  pf "speedup: %.2fx (acceptance floor: %.1fx)\n" speedup minebench_floor;
  let identical =
    counts_equal && stats_equal && snap_equal && sharded_equal && fig3_equal
    && stream_eq_mine
  in
  let pass = identical && speedup >= minebench_floor in
  pf "minebench gate (state identical, stream==replay==sharded, seq==par, \
      >=1.5x): %s\n"
    (if pass then "PASS" else "FAIL");
  pass

(* ---- mutbench: compiled SCI monitors + the mutant-at-scale campaign ---- *)

(* Compiled-vs-interpretive speedup acceptance floor over the full
   corpus. The measured margin is well above this on the reference
   machine; the floor leaves room for run-to-run noise. *)
let mutbench_floor = 2.0
let mutbench_seed = 42
let mutbench_mutants = 200

let mutbench () =
  header "Mutbench: compiled SCI monitors and the mutant campaign";
  let ident = Lazy.force identification in
  let sci = ident.Pipeline.summary.Sci.Identify.unique_sci in
  let battery = Assertions.Ovl.of_invariants sci in
  let compiled = Assertions.Compile.compile battery in
  (* Throughput race over the full 17-workload corpus: the interpretive
     oracle vs the compiled battery, best of 3, one workload's
     materialized trace live at a time. The (assertion, step) firing
     sequences must be identical — same firings, same order. *)
  let corpus = Workloads.Suite.all in
  let total_records = ref 0 in
  let interp_s = ref 0.0 and comp_s = ref 0.0 in
  let identical = ref true in
  List.iter
    (fun (w : Workloads.Rt.t) ->
       let records, _ =
         Trace.Runner.capture ~tick_period:w.tick_period ~entry:w.entry
           w.image
       in
       total_records := !total_records + List.length records;
       let fi, ti =
         best_of_3 (fun () -> Assertions.Monitor.run battery records)
       in
       let fc, tc =
         best_of_3 (fun () -> Assertions.Compile.run compiled records)
       in
       interp_s := !interp_s +. ti;
       comp_s := !comp_s +. tc;
       let key (f : Assertions.Monitor.firing) =
         (f.assertion.Assertions.Ovl.name, f.step)
       in
       if List.map key fi <> List.map key fc then identical := false)
    corpus;
  let speedup = !interp_s /. Float.max !comp_s 1e-9 in
  let eps_i = float_of_int !total_records /. Float.max !interp_s 1e-9 in
  let eps_c = float_of_int !total_records /. Float.max !comp_s 1e-9 in
  pf "%-28s %12s %12s %14s\n" "lane (best of 3)" "records" "seconds"
    "records/sec";
  pf "%-28s %12d %12.3f %14.0f\n" "interpretive oracle" !total_records
    !interp_s eps_i;
  pf "%-28s %12d %12.3f %14.0f\n" "compiled battery" !total_records
    !comp_s eps_c;
  pf "firing sequences identical: %b; speedup: %.2fx (floor: %.1fx)\n"
    !identical speedup mutbench_floor;
  (* Table 1 baseline: the compiled verdict must detect at least every
     bug the interpretive oracle detects. *)
  let table1_interp =
    List.length (List.filter (Experiments.battery_detects battery)
                   Bugs.Table1.all)
  in
  let table1_compiled =
    List.length (List.filter (Experiments.compiled_detects compiled)
                   Bugs.Table1.all)
  in
  pf "Table 1 detection: interpretive %d/17, compiled %d/17\n"
    table1_interp table1_compiled;
  (* The campaign, twice with the same seed: fingerprints must agree. *)
  let camp =
    Pipeline.campaign ~seed:mutbench_seed ~mutants:mutbench_mutants ~sci ()
  in
  let camp2 =
    Pipeline.campaign ~seed:mutbench_seed ~mutants:mutbench_mutants ~sci ()
  in
  let deterministic = String.equal camp.fingerprint camp2.fingerprint in
  pf "\ncampaign: %d/%d mutants detected over %d fuzz triggers \
      (%d clean-firing) in %.1fs\n"
    camp.Pipeline.detected_total camp.mutant_total camp.trigger_count
    camp.fp_trigger_count camp.camp_seconds;
  pf "%-5s %8s %8s %12s %8s\n" "class" "mutants" "detected" "mean-latency"
    "fp-rate";
  List.iter
    (fun (cl : Pipeline.campaign_class) ->
       pf "%-5s %8d %8d %12s %8.2f\n" cl.class_name cl.class_total
         cl.class_detected
         (if Float.is_nan cl.class_mean_latency then "-"
          else Printf.sprintf "%.1f" cl.class_mean_latency)
         cl.class_fp_rate)
    camp.classes;
  pf "deterministic per seed: %b (fingerprint %s)\n" deterministic
    camp.fingerprint;
  let pass =
    !identical && speedup >= mutbench_floor
    && table1_compiled >= table1_interp
    && camp.mutant_total >= 200 && deterministic
  in
  pf "mutbench gate (compiled==interpretive, >=%.0fx, table1 >= baseline, \
      >=200 mutants deterministic): %s\n"
    mutbench_floor (if pass then "PASS" else "FAIL");
  pass

(* ---- lakebench: the on-disk trace lake vs live simulation ---- *)

(* Replication factor for the out-of-core lane. Segment blocks are
   self-contained (deltas reset per block), so concatenating a segment
   file with itself N times is a valid segment holding the trace N
   times — a 100x corpus without one extra simulated step. *)
let lakebench_scale = 100

let lakebench () =
  header "Lakebench: replaying the on-disk trace lake vs live simulation";
  (* Already in lake order (sorted segment filenames). *)
  let names = [ "bitcount"; "helloworld"; "pi" ] in
  let corpus =
    List.map (fun n -> Option.get (Workloads.Suite.by_name n)) names
  in
  with_temp_dir "scifinder_lake1" @@ fun dir ->
  with_temp_dir "scifinder_lake100" @@ fun scaled ->
  with_temp_dir "scifinder_lakecache" @@ fun cache_dir ->
  (* Lane A, the denominator: producing the trace by simulation — the
     only way to get records before the lake existed — [lakebench_scale]
     times over, the records lane B drains. Both lanes drain records
     through a trivial observer; this measures trace production, not
     mining. *)
  let simulate () =
    let count = ref 0 in
    for _ = 1 to lakebench_scale do
      List.iter
        (fun (w : Workloads.Rt.t) ->
           ignore
             (Trace.Runner.stream ~tick_period:w.tick_period ~entry:w.entry
                ~observer:(fun _ -> incr count) w.image))
        corpus
    done;
    !count
  in
  (* Record the 1x lake, then replicate each segment on disk by raw
     byte concatenation. *)
  let stats = Pipeline.record_lake ~names ~dir () in
  let write_rps =
    float_of_int stats.Pipeline.lake_records
    /. Float.max stats.Pipeline.lake_seconds 1e-9
  in
  List.iter
    (fun path ->
       let bytes = Util.Binio.read_file path in
       let out = Filename.concat scaled (Filename.basename path) in
       let oc = open_out_bin out in
       Fun.protect ~finally:(fun () -> close_out oc)
         (fun () -> for _ = 1 to lakebench_scale do output_string oc bytes done))
    (Trace.Segment.lake_segments dir);
  (* Round-trip exactness, pinned via SCIFSNAP engine bytes: replaying
     the lake must be bit-identical to live simulation of the same
     workload sequence, at 1x and at the full replicated scale. *)
  let live_engine ws =
    let engine = Daikon.Engine.create () in
    List.iter
      (fun (w : Workloads.Rt.t) ->
         ignore
           (Trace.Runner.stream ~tick_period:w.tick_period ~entry:w.entry
              ~observer:(Daikon.Engine.observe engine) w.image))
      ws;
    engine
  in
  let replay_engine d =
    let engine = Daikon.Engine.create () in
    List.iter
      (fun path ->
         ignore
           (Trace.Segment.fold ~init:()
              ~f:(fun () r -> Daikon.Engine.observe engine r) path))
      (Trace.Segment.lake_segments d);
    engine
  in
  let replay_equal =
    String.equal
      (Daikon.Engine.encode (live_engine corpus))
      (Daikon.Engine.encode (replay_engine dir))
  in
  let scaled_equal =
    let repeated =
      List.concat_map (fun w -> List.init lakebench_scale (fun _ -> w)) corpus
    in
    String.equal
      (Daikon.Engine.encode (live_engine repeated))
      (Daikon.Engine.encode (replay_engine scaled))
  in
  (* Lane B: the same drain, out of the scaled lake, one block in
     memory at a time, each segment decoding into a reused scratch
     buffer as the mining replay does. *)
  let drain_lake () =
    List.fold_left
      (fun n path ->
         let count = ref 0 in
         ignore
           (Trace.Segment.fold ~scratch:(Trace.Segment.scratch ()) ~init:()
              ~f:(fun () _ -> incr count) path);
         n + !count)
      0 (Trace.Segment.lake_segments scaled)
  in
  let (sim_records, sim_s), (disk_records, disk_s) =
    best_of_3_alternating simulate drain_lake
  in
  let sim_rps = float_of_int sim_records /. Float.max sim_s 1e-9 in
  let disk_rps = float_of_int disk_records /. Float.max disk_s 1e-9 in
  let lake_bytes =
    List.fold_left
      (fun n p -> n + (Unix.stat p).Unix.st_size)
      0 (Trace.Segment.lake_segments scaled)
  in
  (* Lane C: the same drain, sharded into byte-balanced block spans
     across a domain pool, each worker decoding into a reused scratch
     buffer. *)
  let par_jobs = 4 in
  let drain_par () =
    let spans =
      Trace.Segment.shard_spans ~jobs:par_jobs
        (Trace.Segment.lake_segments scaled)
    in
    let counts =
      Util.Parallel.map ~jobs:par_jobs
        (fun (sp : Trace.Segment.span) ->
           let count = ref 0 in
           ignore
             (Trace.Segment.fold_range ~scratch:(Trace.Segment.scratch ())
                ~first_block:sp.Trace.Segment.sp_first
                ~last_block:sp.Trace.Segment.sp_last ~init:()
                ~f:(fun () _ -> incr count) sp.Trace.Segment.sp_path);
           !count)
        (Array.of_list spans)
    in
    Array.fold_left ( + ) 0 counts
  in
  let par_records, par_s = best_of_3 drain_par in
  let par_rps = float_of_int par_records /. Float.max par_s 1e-9 in
  let par_ratio = par_rps /. Float.max disk_rps 1e-9 in
  (* The speedup floor only binds where the hardware can deliver it;
     the byte-identity gates below bind everywhere. *)
  let cores = Util.Parallel.default_jobs () in
  let par_floor = if cores >= 4 then 1.8 else 0.0 in
  (* Sharded replay must be invisible in the engine bytes: a jobs=4
     session mining the scaled lake ends with the same SCIFSNAP digest
     as a jobs=1 session. *)
  let lake_digest ~jobs d =
    let s = Pipeline.Session.create ~jobs () in
    ignore (Pipeline.Session.mine_lake s d);
    Pipeline.Session.engine_digest s
  in
  let par_seq_identical =
    String.equal (lake_digest ~jobs:1 scaled) (lake_digest ~jobs:par_jobs scaled)
  in
  (* The warm-summary cache keys on lake content, not on jobs: a cache
     populated at jobs=1 must hit from a jobs=4 session, with the same
     digest. *)
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let cached_digest ~jobs =
    let s = Pipeline.Session.create ~jobs ~cache_dir () in
    ignore (Pipeline.Session.mine_lake s dir);
    Pipeline.Session.engine_digest s
  in
  let cold_digest = cached_digest ~jobs:1 in
  let hits_before = counter "mine.cache.summary_hit" in
  let warm_digest = cached_digest ~jobs:par_jobs in
  let warm_hit = counter "mine.cache.summary_hit" > hits_before in
  let warm_hit_identical = warm_hit && String.equal cold_digest warm_digest in
  (* A torn tail (crash mid-append) must refuse to parse, never yield
     a short garbage read. *)
  let torn_rejected =
    let victim = List.hd (Trace.Segment.lake_segments dir) in
    let bytes = Util.Binio.read_file victim in
    let cut = Filename.concat dir "torn.tmp" in
    let oc = open_out_bin cut in
    output_string oc (String.sub bytes 0 (String.length bytes - 5));
    close_out oc;
    let rejected =
      match
        Trace.Segment.fold ~init:() ~f:(fun () _ -> ()) cut
      with
      | _ -> false
      | exception Trace.Segment.Corrupt_segment _ -> true
    in
    Sys.remove cut;
    rejected
  in
  let scale_ok = disk_records >= 100 * stats.Pipeline.lake_records in
  pf "%-28s %12s %12s %14s\n" "lane (best of 3)" "records" "seconds"
    "records/sec";
  pf "%-28s %12d %12.3f %14.0f\n"
    (Printf.sprintf "live simulation (%dx)" lakebench_scale)
    sim_records sim_s sim_rps;
  pf "%-28s %12d %12.3f %14.0f\n"
    (Printf.sprintf "lake replay (%dx, disk)" lakebench_scale)
    disk_records disk_s disk_rps;
  pf "%-28s %12d %12.3f %14.0f\n"
    (Printf.sprintf "lake replay (%dx, -j %d)" lakebench_scale par_jobs)
    par_records par_s par_rps;
  pf "lake: %d segments, %d bytes at 1x, %d bytes at %dx \
      (write: %.0f records/sec)\n"
    stats.Pipeline.lake_segments stats.Pipeline.lake_bytes lake_bytes
    lakebench_scale write_rps;
  pf "replay == sim (SCIFSNAP bytes): 1x %b, %dx %b\n" replay_equal
    lakebench_scale scaled_equal;
  pf "parallel replay: %.2fx sequential at -j %d on %d core(s); \
      floor %.1f%s; par digest == seq: %b; warm cache hit across \
      jobs: %b\n"
    par_ratio par_jobs cores par_floor
    (if cores >= 4 then "" else " (waived: <4 cores)")
    par_seq_identical warm_hit_identical;
  pf "corpus scale: %dx (>=100x: %b); disk/sim rps ratio: %.2f; \
      torn tail rejected: %b\n"
    (disk_records / max stats.Pipeline.lake_records 1)
    scale_ok (disk_rps /. sim_rps)
    torn_rejected;
  let pass =
    replay_equal && scaled_equal && scale_ok && disk_rps >= sim_rps
    && par_records = disk_records && par_seq_identical
    && warm_hit_identical && par_ratio >= par_floor && torn_rejected
  in
  pf "lakebench gate (replay==sim at 1x and %dx, >=100x corpus, \
      disk rps >= sim rps, par digest == seq, warm cache across jobs, \
      par ratio >= floor, torn tail rejected): %s\n"
    lakebench_scale
    (if pass then "PASS" else "FAIL");
  pass

(* ---- servebench: the mining service under concurrent clients ---- *)

(* Hundreds of synthetic clients against an in-process server on a Unix
   socket. Three phases: sustained throughput (every client mines into
   its own session; gate: records/sec >= 0.8x a direct batch mine of the
   same multiset on the same worker count), backpressure (64 pipelined
   requests against an inflight window of 4: overflow comes back as
   explicit busy, nothing is dropped), and serve == batch determinism
   (session digest over the socket == sequential Pipeline.Session). *)
let servebench_clients = 220

let servebench () =
  header "Servebench: the mining service under concurrent synthetic clients";
  with_temp_dir "scifinder_servebench" @@ fun sockdir ->
  let sock = Filename.concat sockdir "bench.sock" in
  let cfg =
    { Serve.Server.listen = Serve.Server.Unix_sock sock;
      jobs; max_inflight = 4; idle_timeout = 0.;
      cache_dir = None; mine_jobs = 1 }
  in
  let srv = Serve.Server.create cfg in
  let srv_domain = Domain.spawn (fun () -> Serve.Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
        Serve.Server.stop srv;
        Domain.join srv_domain)
  @@ fun () ->
  let rotation = [| "pi"; "helloworld"; "bitcount" |] in
  let workload_of i = rotation.(i mod Array.length rotation) in
  (* Phase 1: throughput. Connect everyone up front, then time the
     burst: one quick-mine per client, each into its own session, all
     inflight at once; responses drained afterwards (they sit in socket
     buffers, so drain order does not serialise the server). *)
  let conns =
    Array.init servebench_clients (fun _ -> Serve.Client.connect_unix sock)
  in
  let served = ref 0 in
  let (), serve_s =
    Obs.Clock.time (fun () ->
        let ids =
          Array.mapi
            (fun i c ->
               Serve.Client.send c ~session:(Printf.sprintf "c%d" i)
                 (Serve.Proto.Mine
                    { source = Serve.Proto.Names [ workload_of i ];
                      label = None; row = false; digest = false }))
            conns
        in
        Array.iteri
          (fun i c ->
             match Serve.Client.recv_id c ids.(i) with
             | Serve.Proto.Mined { records; _ } -> served := !served + records
             | r ->
               Printf.eprintf "servebench client %d: %s\n" i
                 (Serve.Proto.encode_response r))
          conns)
  in
  Array.iter Serve.Client.close conns;
  let serve_rps = float_of_int !served /. Float.max serve_s 1e-9 in
  (* The batch denominator: the same per-client work (one fresh session
     engine each, quick absorption) done directly on the same worker
     count — so the ratio isolates the serving tax (protocol, scheduler,
     select loop), not a different mining shape. *)
  let multiset =
    Array.init servebench_clients (fun i ->
        Option.get (Workloads.Suite.by_name (workload_of i)))
  in
  let batch_records = ref 0 in
  let (), batch_s =
    Obs.Clock.time (fun () ->
        let counts =
          Util.Parallel.map ~jobs
            (fun w ->
               let s = Pipeline.Session.create () in
               (Pipeline.Session.mine s ~row:false [ w ])
                 .Pipeline.Session.o_records)
            multiset
        in
        batch_records := Array.fold_left ( + ) 0 counts)
  in
  let batch_rps = float_of_int !batch_records /. Float.max batch_s 1e-9 in
  let rps_ratio = serve_rps /. Float.max batch_rps 1e-9 in
  (* Job latency distribution, straight from the server's histogram
     (same process). *)
  let h = Obs.Metrics.histogram ~unit:"ns" "serve.job.total_ns" in
  let p99_job_ms =
    float_of_int (Obs.Metrics.histogram_percentile h 0.99) /. 1e6
  in
  let p50_job_ms =
    float_of_int (Obs.Metrics.histogram_percentile h 0.5) /. 1e6
  in
  (* Phase 2: backpressure. One session, 64 requests in one burst
     against a window of 4: every overflow is an explicit busy, and
     mined + busy accounts for every request. *)
  let c = Serve.Client.connect_unix sock in
  let mined = ref 0 and busy = ref 0 in
  let burst = 64 in
  let ids =
    List.init burst (fun _ ->
        Serve.Client.send c ~session:"bp"
          (Serve.Proto.Mine
             { source = Serve.Proto.Names [ "pi" ]; label = None;
               row = false; digest = false }))
  in
  List.iter
    (fun id ->
       match Serve.Client.recv_id c id with
       | Serve.Proto.Mined _ -> incr mined
       | Serve.Proto.Busy _ -> incr busy
       | _ -> ())
    ids;
  Serve.Client.close c;
  let accounted = !mined + !busy = burst in
  (* Phase 3: determinism over the socket vs the sequential Session. *)
  let det_names = [ "pi"; "helloworld"; "bitcount" ] in
  let c = Serve.Client.connect_unix sock in
  let served_digest = ref None in
  List.iteri
    (fun i n ->
       match
         Serve.Client.call c ~session:"det"
           (Serve.Proto.Mine
              { source = Serve.Proto.Names [ n ]; label = Some n;
                row = true; digest = (i = List.length det_names - 1) })
       with
       | Serve.Proto.Mined { digest = Some d; _ } -> served_digest := Some d
       | _ -> ())
    det_names;
  Serve.Client.close c;
  let s = Pipeline.Session.create () in
  List.iter
    (fun n ->
       ignore
         (Pipeline.Session.mine s ~label:n
            [ Option.get (Workloads.Suite.by_name n) ]))
    det_names;
  let identical = !served_digest = Some (Pipeline.Session.engine_digest s) in
  pf "%-32s %12s %12s %14s\n" "lane" "records" "seconds" "records/sec";
  pf "%-32s %12d %12.3f %14.0f\n"
    (Printf.sprintf "serve (%d clients, %d workers)" servebench_clients jobs)
    !served serve_s serve_rps;
  pf "%-32s %12d %12.3f %14.0f\n"
    (Printf.sprintf "batch mine (jobs=%d)" jobs)
    !batch_records batch_s batch_rps;
  pf "serve/batch rps ratio: %.2f; job latency p50 %.1f ms, p99 %.1f ms\n"
    rps_ratio p50_job_ms p99_job_ms;
  pf "backpressure: %d mined + %d busy of %d pipelined (window 4, \
      all accounted: %b)\n"
    !mined !busy burst accounted;
  pf "serve == batch engine digest: %b\n" identical;
  let pass =
    servebench_clients >= 200 && rps_ratio >= 0.8 && p99_job_ms > 0.
    && !busy >= 1 && accounted && identical
  in
  pf "servebench gate (>=200 clients, rps >= 0.8x batch, p99 recorded, \
      busy backpressure, serve==batch): %s\n"
    (if pass then "PASS" else "FAIL");
  pass

(* ---- telemetry overhead: the tentpole's < 2% null-sink budget ---- *)

let obsbench () =
  header "Telemetry overhead: instrumented mining under the null sink";
  let names = [ "pi"; "bitcount"; "helloworld" ] in
  Obs.Sink.set_global Obs.Sink.null;
  let _, t_null =
    best_of_3 (fun () -> Pipeline.mine_invariants ~jobs:2 ~names ())
  in
  (* Primitive costs under the null sink, then an estimate of what the
     instrumentation adds to one mine_invariants run: one pipeline span,
     one span per workload shard, and a few dozen counter/gauge updates
     (everything else is read at extraction time, off the hot path). *)
  let span_iters = 100_000 in
  let (), span_total =
    Obs.Clock.time (fun () ->
        for _ = 1 to span_iters do
          Obs.Span.with_ ~name:"obsbench.probe" (fun () -> ())
        done)
  in
  let span_ns = span_total *. 1e9 /. float_of_int span_iters in
  let ctr = Obs.Metrics.counter "obsbench.probe" in
  let ctr_iters = 1_000_000 in
  let (), ctr_total =
    Obs.Clock.time (fun () ->
        for _ = 1 to ctr_iters do Obs.Metrics.incr ctr done)
  in
  let ctr_ns = ctr_total *. 1e9 /. float_of_int ctr_iters in
  let spans_per_run = 1 + List.length names in
  let counter_ops_per_run = 64 in
  let est_pct =
    100.0
    *. (float_of_int spans_per_run *. span_ns
        +. float_of_int counter_ops_per_run *. ctr_ns)
    /. (t_null *. 1e9)
  in
  pf "mine_invariants (%d workloads, 2 shards), best of 3, null sink: \
      %.3f s\n"
    (List.length names) t_null;
  pf "primitive costs under the null sink:\n";
  pf "  span open/close: %6.0f ns    counter update: %6.1f ns\n"
    span_ns ctr_ns;
  pf "instrumentation in one mine run: %d spans + ~%d counter updates\n"
    spans_per_run counter_ops_per_run;
  pf "  -> estimated null-sink overhead: %.4f%% of %.3f s\n" est_pct t_null;
  let pass = est_pct < 2.0 in
  pf "null-sink overhead budget < 2%%: %s\n" (if pass then "PASS" else "FAIL");
  pass

(* ---- the experiment registry ---- *)

(* One entry per experiment id. A table prints and returns true; a gate
   returns its verdict. [in_all] entries run, in this order, when no id
   is given. *)
type experiment = { id : string; in_all : bool; run : unit -> bool }

let table id f = { id; in_all = true; run = (fun () -> f (); true) }
let gate id run = { id; in_all = false; run }

let registry =
  [ table "fig3" fig3;
    table "tab2" tab2;
    table "tab3" tab3;
    table "tab4" tab4;
    table "fig4" fig4;
    table "tab5" tab5;
    table "tab6" tab6;
    table "tab7" tab7;
    table "sec56" sec56;
    table "tab8" tab8;
    table "tab9" tab9;
    table "ablation" ablation;
    table "ablation-coverage" ablation_coverage;
    table "ablation-integrity" ablation_instruction_integrity;
    gate "obsbench" obsbench;
    gate "cachebench" cachebench;
    gate "fuzzbench" fuzzbench;
    gate "minebench" minebench;
    gate "mutbench" mutbench;
    gate "lakebench" lakebench;
    gate "servebench" servebench;
    { id = "export";
      in_all = false;
      run =
        (fun () ->
           export (match positional with _ :: dir :: _ -> dir | _ -> "bench_data");
           true) } ]

let () =
  let chosen =
    match positional with
    | [] -> List.filter (fun e -> e.in_all) registry
    | id :: _ ->
      (match List.find_opt (fun e -> e.id = id) registry with
       | Some e -> [ e ]
       | None ->
         prerr_endline
           ("unknown experiment: " ^ id ^ " (one of: "
            ^ String.concat " " (List.map (fun e -> e.id) registry) ^ ")");
         exit 1)
  in
  let failed = List.filter (fun e -> not (e.run ())) chosen in
  if failed <> [] then begin
    prerr_endline
      ("gate failed: " ^ String.concat ", " (List.map (fun e -> e.id) failed));
    exit 1
  end
