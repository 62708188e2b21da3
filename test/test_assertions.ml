(* Assertion synthesis (OVL templates), the runtime monitor, and the
   hardware cost model. *)

module Expr = Invariant.Expr
module Var = Trace.Var
module Ovl = Assertions.Ovl

let inv ?(point = "l.add") body = { Expr.point; body }
let v_post d = Expr.V (Var.post_id d)
let v_orig d = Expr.V (Var.orig_id d)

let record ?(point = "l.add") assignments =
  let values = Array.make Var.total 0 in
  List.iter (fun (id, v) -> values.(id) <- v) assignments;
  { Trace.Record.point; values; mask = Array.make Var.total true }

(* ---- template selection ---- *)

let test_edge_template () =
  let a = Ovl.of_invariant
      (inv (Expr.Cmp (Expr.Eq, v_post (Var.Gpr 0), Expr.Imm 0))) in
  Alcotest.(check bool) "edge" true (a.Ovl.template = Ovl.Edge);
  Alcotest.(check int) "no history" 0 (List.length a.Ovl.history_vars)

let test_next_template_for_orig () =
  (* The paper's example: SR = orig(ESR0) becomes next(..., 1). *)
  let a = Ovl.of_invariant
      (inv ~point:"l.rfe" (Expr.Cmp (Expr.Eq, v_post Var.Sr_full, v_orig Var.Esr))) in
  Alcotest.(check bool) "next 1" true (a.Ovl.template = Ovl.Next 1);
  Alcotest.(check int) "one holding register" 1 (List.length a.Ovl.history_vars);
  Alcotest.(check string) "ovl rendering"
    "assert_next(INSN = l.rfe, SR = orig(ESR0), 1)" (Ovl.to_ovl_string a)

let test_delta_template_for_bounds () =
  let a = Ovl.of_invariant
      (inv ~point:"l.sfltu"
         (Expr.Cmp (Expr.Ge, Expr.V (Var.insn_id Var.Prod_u), Expr.Imm 0))) in
  (match a.Ovl.template with
   | Ovl.Delta { low; _ } -> Alcotest.(check int) "lower bound" 0 low
   | _ -> Alcotest.fail "expected delta")

let test_battery_names_unique () =
  let invs =
    [ inv (Expr.Cmp (Expr.Eq, v_post (Var.Gpr 0), Expr.Imm 0));
      inv (Expr.Cmp (Expr.Eq, v_post (Var.Gpr 9), v_orig (Var.Gpr 9))) ]
  in
  let battery = Ovl.of_invariants invs in
  let names = List.map (fun a -> a.Ovl.name) battery in
  Alcotest.(check int) "unique" 2 (List.length (List.sort_uniq compare names))

(* ---- monitor ---- *)

let test_monitor_fires_on_violation () =
  let battery =
    Ovl.of_invariants [ inv (Expr.Cmp (Expr.Eq, v_post (Var.Gpr 0), Expr.Imm 0)) ]
  in
  let trace =
    [ record [ (Var.post_id (Var.Gpr 0), 0) ];
      record [ (Var.post_id (Var.Gpr 0), 42) ];
      record [ (Var.post_id (Var.Gpr 0), 0) ] ]
  in
  let firings = Assertions.Monitor.run battery trace in
  Alcotest.(check int) "one firing" 1 (List.length firings);
  Alcotest.(check int) "at step 1" 1 (List.hd firings).Assertions.Monitor.step;
  Alcotest.(check bool) "detects" true (Assertions.Monitor.detects battery trace)

let test_monitor_silent_on_clean () =
  let battery =
    Ovl.of_invariants [ inv (Expr.Cmp (Expr.Eq, v_post (Var.Gpr 0), Expr.Imm 0)) ]
  in
  let trace = List.init 5 (fun _ -> record []) in
  Alcotest.(check bool) "silent" false (Assertions.Monitor.detects battery trace)

let test_monitor_point_scoping () =
  let battery =
    Ovl.of_invariants
      [ inv ~point:"l.sys" (Expr.Cmp (Expr.Eq, v_post Var.Pc, Expr.Imm 0xC00)) ]
  in
  let trace = [ record ~point:"l.add" [ (Var.post_id Var.Pc, 0x2004) ] ] in
  Alcotest.(check bool) "other points ignored" false
    (Assertions.Monitor.detects battery trace)

let test_fired_assertions_dedup () =
  let battery =
    Ovl.of_invariants [ inv (Expr.Cmp (Expr.Eq, v_post (Var.Gpr 0), Expr.Imm 0)) ]
  in
  let bad = record [ (Var.post_id (Var.Gpr 0), 9) ] in
  let fired = Assertions.Monitor.fired_assertions battery [ bad; bad; bad ] in
  Alcotest.(check int) "distinct assertions" 1 (List.length fired)

(* ---- monitor regressions: firing order and early exit ---- *)

(* Three same-point assertions all violated by one record must fire in
   battery order: the per-point batches used to be built by consing into
   Hashtbl.replace, which reversed them within a step. *)
let test_monitor_firing_order () =
  let invs =
    [ inv (Expr.Cmp (Expr.Eq, v_post (Var.Gpr 3), Expr.Imm 0));
      inv (Expr.Cmp (Expr.Eq, v_post (Var.Gpr 4), Expr.Imm 0));
      inv (Expr.Cmp (Expr.Eq, v_post (Var.Gpr 5), Expr.Imm 0)) ]
  in
  let battery = Ovl.of_invariants invs in
  let expected = List.map (fun (a : Ovl.t) -> a.Ovl.name) battery in
  let bad =
    record
      [ (Var.post_id (Var.Gpr 3), 1);
        (Var.post_id (Var.Gpr 4), 1);
        (Var.post_id (Var.Gpr 5), 1) ]
  in
  let names firings =
    List.map
      (fun (f : Assertions.Monitor.firing) -> f.assertion.Ovl.name)
      firings
  in
  Alcotest.(check (list string)) "interpretive order" expected
    (names (Assertions.Monitor.run battery [ bad ]));
  let compiled = Assertions.Compile.compile battery in
  Alcotest.(check (list string)) "compiled order" expected
    (names (Assertions.Compile.run compiled [ bad ]))

(* detects/first_firing must stop at the first firing instead of scanning
   the rest of the trace; the evaluation counter pins the early exit. *)
let test_first_firing_short_circuit () =
  let battery =
    Ovl.of_invariants [ inv (Expr.Cmp (Expr.Eq, v_post (Var.Gpr 0), Expr.Imm 0)) ]
  in
  let bad = record [ (Var.post_id (Var.Gpr 0), 7) ] in
  let trace = [ record []; bad; bad; record [] ] in
  let c_evals = Obs.Metrics.counter "monitor.evaluations" in
  let evals0 = Obs.Metrics.counter_value c_evals in
  (match Assertions.Monitor.first_firing battery trace with
   | None -> Alcotest.fail "expected a firing"
   | Some f ->
     Alcotest.(check int) "latency" 1 f.Assertions.Monitor.step);
  Alcotest.(check int) "evaluations stop at the firing" 2
    (Obs.Metrics.counter_value c_evals - evals0);
  (* the full scan still sees both offending records *)
  Alcotest.(check int) "run sees both" 2
    (List.length (Assertions.Monitor.run battery trace))

(* ---- compiled monitor vs the interpretive oracle ---- *)

let firing_keys firings =
  List.map
    (fun (f : Assertions.Monitor.firing) ->
       (f.assertion.Ovl.name, f.Assertions.Monitor.step))
    firings

let check_compiled_matches battery trace label =
  let compiled = Assertions.Compile.compile battery in
  let fi = Assertions.Monitor.run battery trace in
  let fc = Assertions.Compile.run compiled trace in
  Alcotest.(check (list (pair string int)))
    (label ^ ": run") (firing_keys fi) (firing_keys fc);
  let oi =
    Option.map (fun (f : Assertions.Monitor.firing) ->
        (f.assertion.Ovl.name, f.step))
      (Assertions.Monitor.first_firing battery trace)
  and oc =
    Option.map (fun (f : Assertions.Monitor.firing) ->
        (f.assertion.Ovl.name, f.step))
      (Assertions.Compile.first_firing compiled trace)
  in
  Alcotest.(check (option (pair string int))) (label ^ ": first") oi oc

(* Every body shape the Figure 2 grammar admits, including the folded
   corners: Mod with k = 0, constant-vs-constant comparisons, empty and
   large In sets. *)
let test_compile_covers_grammar () =
  let g n = Var.post_id (Var.Gpr n) in
  let invs =
    [ inv (Expr.Cmp (Expr.Eq, Expr.V (g 3), Expr.Imm 5));
      inv (Expr.Cmp (Expr.Ne, Expr.Imm 5, Expr.V (g 3)));
      inv (Expr.Cmp (Expr.Lt, Expr.V (g 3), Expr.V (g 4)));
      inv (Expr.Cmp (Expr.Le, Expr.Imm 3, Expr.Imm 2));
      inv (Expr.Cmp (Expr.Gt, Expr.Mul (g 3, 3), Expr.Imm 10));
      inv (Expr.Cmp (Expr.Ge, Expr.Mod (g 4, 4), Expr.Imm 1));
      inv (Expr.Cmp (Expr.Eq, Expr.Mod (g 4, 0), Expr.Imm 0));
      inv (Expr.Cmp (Expr.Eq, Expr.Notv (g 3), Expr.V (g 4)));
      inv (Expr.Cmp (Expr.Eq, Expr.Bin (Expr.Band, g 3, g 4), Expr.Imm 0));
      inv (Expr.Cmp (Expr.Eq, Expr.Bin (Expr.Bor, g 3, g 4), Expr.V (g 5)));
      inv (Expr.Cmp (Expr.Eq, Expr.Bin (Expr.Plus, g 3, g 4), Expr.V (g 5)));
      inv (Expr.Cmp (Expr.Le, Expr.Bin (Expr.Minus, g 5, g 3), Expr.Imm 8));
      inv (Expr.In (Expr.V (g 3), []));
      inv (Expr.In (Expr.V (g 3), [ 7 ]));
      inv (Expr.In (Expr.V (g 4), [ 0; 4; 8; 12 ]));
      inv (Expr.In (Expr.Mod (g 5, 8), List.init 12 (fun i -> i)));
      inv ~point:"l.sub" (Expr.Cmp (Expr.Eq, Expr.V (g 3), Expr.Imm 0)) ]
  in
  let battery = Ovl.of_invariants invs in
  let mk point a b c =
    record ~point
      [ (Var.post_id (Var.Gpr 3), a);
        (Var.post_id (Var.Gpr 4), b);
        (Var.post_id (Var.Gpr 5), c) ]
  in
  let trace =
    [ mk "l.add" 5 4 9; mk "l.add" 7 0 0; mk "l.sub" 0 1 2;
      mk "l.add" 0xFFFF_FFFF 12 3; mk "l.mul" 3 3 3; mk "l.add" 2 8 10 ]
  in
  check_compiled_matches battery trace "grammar";
  (* the ignore mask drops exactly the masked assertion *)
  let compiled = Assertions.Compile.compile battery in
  let all = Assertions.Compile.fired_set compiled trace in
  Alcotest.(check bool) "something fires" true (Array.exists Fun.id all);
  Alcotest.(check bool) "all-masked is silent" false
    (Assertions.Compile.detects ~ignore:all compiled trace)

(* Random batteries and traces: invariants over random variables at the
   given points, records with random values. *)
let gen_inv points =
  let open QCheck in
  let gid = Gen.int_range 0 (Var.total - 1) in
  let gterm =
    Gen.frequency
      [ (4, Gen.map (fun id -> Expr.V id) gid);
        (2, Gen.map (fun k -> Expr.Imm k) (Gen.int_bound 64));
        (1, Gen.map2 (fun id k -> Expr.Mul (id, k)) gid (Gen.int_bound 5));
        (1, Gen.map2 (fun id k -> Expr.Mod (id, k)) gid (Gen.int_bound 5));
        (1, Gen.map (fun id -> Expr.Notv id) gid);
        (1,
         Gen.map3 (fun op a b -> Expr.Bin (op, a, b))
           (Gen.oneofl [ Expr.Band; Expr.Bor; Expr.Plus; Expr.Minus ])
           gid gid) ]
  in
  let gcmp = Gen.oneofl [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ] in
  let gbody =
    Gen.frequency
      [ (3, Gen.map3 (fun op a b -> Expr.Cmp (op, a, b)) gcmp gterm gterm);
        (1,
         Gen.map2 (fun t vs -> Expr.In (t, vs)) gterm
           (Gen.list_size (Gen.int_bound 10) (Gen.int_bound 64))) ]
  in
  Gen.map2 (fun point body -> { Expr.point; body }) (Gen.oneofl points) gbody

let random_points = [ "l.add"; "l.sub"; "l.and" ]

let gen_record =
  let open QCheck in
  Gen.map2
    (fun point vals ->
       let values = Array.make Var.total 0 in
       List.iteri (fun i v -> values.(i mod Var.total) <- v) vals;
       { Trace.Record.point; values; mask = Array.make Var.total true })
    (Gen.oneofl random_points)
    (Gen.list_size (Gen.return Var.total)
       (Gen.oneof [ Gen.int_bound 64; Gen.int_bound 0xFFFF_FFFF ]))

let print_battery invs =
  String.concat "; " (List.map Expr.to_string invs)

(* QCheck: over random batteries and random traces, the compiled monitor
   reproduces the oracle's (assertion, step) firing sequence exactly. *)
let qcheck_compiled_equals_interpretive =
  let open QCheck in
  let arb =
    make
      ~print:(fun (invs, records) ->
          Printf.sprintf "%d invariants / %d records: %s"
            (List.length invs) (List.length records) (print_battery invs))
      Gen.(pair (list_size (int_range 1 6) (gen_inv random_points))
             (list_size (int_range 0 20) gen_record))
  in
  Test.make ~name:"compiled == interpretive (random batteries)" ~count:300 arb
    (fun (invs, records) ->
       let battery = Ovl.of_invariants invs in
       let compiled = Assertions.Compile.compile battery in
       let fi = firing_keys (Assertions.Monitor.run battery records) in
       let fc = firing_keys (Assertions.Compile.run compiled records) in
       fi = fc
       && Assertions.Monitor.detects battery records
          = Assertions.Compile.detects compiled records)

(* ---- streaming: a source that stops at the first firing ---- *)

let first_key = Option.map (fun (f : Assertions.Monitor.firing) ->
    (f.assertion.Ovl.name, f.Assertions.Monitor.step))

(* The interpretive answer under an ignore mask: the first firing of the
   battery with the masked assertions left out. *)
let oracle_first battery mask records =
  Assertions.Monitor.first_firing
    (List.filteri (fun i _ -> not mask.(i)) battery) records

let oracle_fired battery records =
  let fired = Assertions.Monitor.fired_assertions battery records in
  Array.of_list
    (List.map
       (fun (a : Ovl.t) ->
          List.exists (fun (b : Ovl.t) -> b.Ovl.name = a.Ovl.name) fired)
       battery)

(* A list source that counts what it produced: once the first live
   firing is found, nothing after it may be produced. *)
let counting_source records =
  let produced = ref 0 in
  (produced, fun emit -> List.iter (fun r -> incr produced; emit r) records)

let expected_produced records = function
  | Some (f : Assertions.Monitor.firing) -> f.Assertions.Monitor.step + 1
  | None -> List.length records

(* Random records: the streamed first firing equals the list one and the
   oracle's, stops right after the firing, and the streamed fired set
   equals the list one and the oracle's. *)
let qcheck_streamed_equals_list =
  let open QCheck in
  let arb =
    make
      ~print:(fun ((invs, records), mask) ->
          Printf.sprintf "%d invariants / %d records, mask %s: %s"
            (List.length invs) (List.length records)
            (String.concat "" (List.map (fun b -> if b then "1" else "0") mask))
            (print_battery invs))
      Gen.(pair
             (pair (list_size (int_range 1 6) (gen_inv random_points))
                (list_size (int_range 0 20) gen_record))
             (list_repeat 6 bool))
  in
  Test.make ~name:"streamed == list == interpretive (random records)"
    ~count:300 arb
    (fun ((invs, records), mask) ->
       let battery = Ovl.of_invariants invs in
       let compiled = Assertions.Compile.compile battery in
       let mask = Array.sub (Array.of_list mask) 0 (List.length battery) in
       let produced, source = counting_source records in
       let streamed =
         Assertions.Compile.first_firing_of ~ignore:mask compiled source
       in
       let stopped = !produced = expected_produced records streamed in
       first_key streamed
       = first_key (Assertions.Compile.first_firing ~ignore:mask compiled records)
       && first_key streamed = first_key (oracle_first battery mask records)
       && stopped
       && Assertions.Compile.fired_set_of compiled (snd (counting_source records))
          = Assertions.Compile.fired_set compiled records
       && Assertions.Compile.fired_set compiled records
          = oracle_fired battery records)

(* Real machine runs, the campaign's way: a fuzz trigger's clean run
   streamed into the fired-set step gives the clean mask, then a mutant
   run on the same (reset) machine is streamed into the first-firing step
   and stops at the first live firing. The masks tried are none (the run
   usually stops within a few records), a random part of the clean mask,
   and the whole clean mask (the campaign's). Each answer equals the
   captured list's and the oracle's, and each stopped run's telemetry is
   folded: cpu.retired grows by exactly what the stopped machine
   retired. *)
let qcheck_streamed_machine_runs =
  let open QCheck in
  let machine = Cpu.Machine.create () in
  let mutants = Array.of_list (Bugs.Mutant.generate ~seed:5 ~count:32) in
  let c_retired = Obs.Metrics.counter "cpu.retired" in
  let points =
    [ "l.add"; "l.addi"; "l.ori"; "l.movhi"; "l.sw"; "l.lwz"; "l.sfne";
      "l.bf"; "l.jal"; "l.mtspr"; "l.mfspr"; "l.rfe"; "l.sys" ]
  in
  let arb =
    make
      ~print:(fun (((index, m), invs), _) ->
          Printf.sprintf "trigger %d, mutant %s: %s" index
            mutants.(m).Bugs.Mutant.id (print_battery invs))
      Gen.(pair
             (pair
                (pair (int_bound 47) (int_bound (Array.length mutants - 1)))
                (list_size (int_range 1 12) (gen_inv points)))
             (list_repeat 12 bool))
  in
  Test.make ~name:"streamed machine runs == captured lists" ~count:100 arb
    (fun (((index, m), invs), keep) ->
       let w = Fuzz.Gen.candidate ~seed:3 ~index in
       let fault = mutants.(m).Bugs.Mutant.fault in
       let battery = Ovl.of_invariants invs in
       let compiled = Assertions.Compile.compile battery in
       let source ?fault emit =
         Sci.Identify.stream_trigger ~machine ?fault w ~observer:emit
       in
       let clean = Sci.Identify.capture_trigger w in
       let clean_mask = Assertions.Compile.fired_set_of compiled source in
       let buggy = Sci.Identify.capture_trigger ~fault w in
       let streamed_agrees mask =
         let produced = ref 0 in
         let retired0 = Obs.Metrics.counter_value c_retired in
         let streamed =
           Assertions.Compile.first_firing_of ~ignore:mask compiled
             (fun emit -> source ~fault (fun r -> incr produced; emit r))
         in
         let folded = Obs.Metrics.counter_value c_retired - retired0 in
         first_key streamed
         = first_key
             (Assertions.Compile.first_firing ~ignore:mask compiled buggy)
         && first_key streamed = first_key (oracle_first battery mask buggy)
         && !produced = expected_produced buggy streamed
         && folded = machine.Cpu.Machine.retired
       in
       clean_mask = Assertions.Compile.fired_set compiled clean
       && clean_mask = oracle_fired battery clean
       && streamed_agrees (Array.map (fun _ -> false) clean_mask)
       && streamed_agrees
            (Array.mapi (fun i b -> b && List.nth keep i) clean_mask)
       && streamed_agrees clean_mask)

(* ---- cost model ---- *)

let test_cost_positive_and_monotone () =
  let simple =
    Ovl.of_invariant (inv (Expr.Cmp (Expr.Eq, v_post (Var.Gpr 0), Expr.Imm 0)))
  in
  let complex =
    Ovl.of_invariant
      (inv (Expr.Cmp (Expr.Eq,
                      Expr.Bin (Expr.Minus, Var.post_id (Var.Gpr 9), Var.orig_id Var.Pc),
                      Expr.Imm 8)))
  in
  let cs = Assertions.Cost.assertion_cost simple in
  let cc = Assertions.Cost.assertion_cost complex in
  Alcotest.(check bool) "positive" true (cs.Assertions.Cost.luts > 0);
  Alcotest.(check bool) "adders and history cost more" true
    (cc.Assertions.Cost.luts > cs.Assertions.Cost.luts);
  Alcotest.(check bool) "history flip-flops" true (cc.Assertions.Cost.flipflops >= 32)

let test_battery_shares_history () =
  let i1 = inv (Expr.Cmp (Expr.Eq, v_post Var.Sr_full, v_orig Var.Esr)) in
  let i2 = inv ~point:"l.sub" (Expr.Cmp (Expr.Eq, v_post Var.Sr_full, v_orig Var.Esr)) in
  let both = Assertions.Cost.battery_overhead (Ovl.of_invariants [ i1; i2 ]) in
  let one = Assertions.Cost.battery_overhead (Ovl.of_invariants [ i1 ]) in
  (* Shared ESR holding register: the second assertion adds comparator
     logic but no second 32-bit register. *)
  Alcotest.(check int) "flip-flops shared" one.Assertions.Cost.total_ffs
    both.Assertions.Cost.total_ffs;
  Alcotest.(check bool) "logic still grows" true
    (both.Assertions.Cost.total_luts > one.Assertions.Cost.total_luts)

let test_overhead_percentages () =
  let battery =
    Ovl.of_invariants [ inv (Expr.Cmp (Expr.Eq, v_post (Var.Gpr 0), Expr.Imm 0)) ]
  in
  let o = Assertions.Cost.battery_overhead battery in
  Alcotest.(check bool) "small battery is a small fraction" true
    (o.Assertions.Cost.lut_pct > 0.0 && o.Assertions.Cost.lut_pct < 2.0);
  Alcotest.(check (float 1e-9)) "no delay" 0.0 o.Assertions.Cost.delay_ns_added

(* ---- Verilog back end ---- *)

let test_verilog_structure () =
  let battery =
    Ovl.of_invariants
      [ inv ~point:"l.sys" (Expr.Cmp (Expr.Eq, v_post Var.Pc, Expr.Imm 0xC00));
        inv ~point:"l.rfe" (Expr.Cmp (Expr.Eq, v_post Var.Sr_full, v_orig Var.Esr)) ]
  in
  let v = Assertions.Verilog.emit battery in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let check_has sub = Alcotest.(check bool) sub true (contains v sub) in
  check_has "module scifinder_monitor";
  check_has "input wire valid";
  check_has "output wire any_fire";
  (* the syscall vector comparison and its opcode qualifier *)
  check_has "32'h00000C00";
  check_has "6'h08";
  (* the orig() operand gets a holding register *)
  check_has "ESR0_prev";
  check_has "ESR0_prev <= ESR0";
  check_has "endmodule"

let test_verilog_fire_polarity () =
  (* fire asserts the NEGATION of the invariant expression. *)
  let battery =
    Ovl.of_invariants
      [ inv (Expr.Cmp (Expr.Eq, v_post (Var.Gpr 0), Expr.Imm 0)) ]
  in
  let v = Assertions.Verilog.emit battery in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "negated body" true
    (contains v "!(GPR0 == 32'h00000000)")

let test_verilog_signed_diff () =
  let battery =
    Ovl.of_invariants
      [ inv ~point:"l.sfltu"
          (Expr.Cmp (Expr.Ge, Expr.V (Var.insn_id Var.Prod_u), Expr.Imm 0)) ]
  in
  let v = Assertions.Verilog.emit battery in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "signed comparison for Diff vars" true
    (contains v "$signed(PROD_U)")

let test_baseline_constants () =
  Alcotest.(check int) "baseline LUTs (Table 9)" 10073 Assertions.Cost.baseline_luts;
  Alcotest.(check (float 1e-9)) "baseline power" 3.24 Assertions.Cost.baseline_power_w;
  Alcotest.(check (float 1e-9)) "baseline delay" 19.1 Assertions.Cost.baseline_delay_ns

let () =
  Alcotest.run "assertions"
    [ ("templates",
       [ Alcotest.test_case "edge" `Quick test_edge_template;
         Alcotest.test_case "next for orig()" `Quick test_next_template_for_orig;
         Alcotest.test_case "delta bounds" `Quick test_delta_template_for_bounds;
         Alcotest.test_case "unique names" `Quick test_battery_names_unique ]);
      ("monitor",
       [ Alcotest.test_case "fires" `Quick test_monitor_fires_on_violation;
         Alcotest.test_case "silent" `Quick test_monitor_silent_on_clean;
         Alcotest.test_case "point scoping" `Quick test_monitor_point_scoping;
         Alcotest.test_case "dedup" `Quick test_fired_assertions_dedup;
         Alcotest.test_case "firing order" `Quick test_monitor_firing_order;
         Alcotest.test_case "early exit" `Quick
           test_first_firing_short_circuit ]);
      ("compile",
       [ Alcotest.test_case "grammar coverage" `Quick
           test_compile_covers_grammar;
         QCheck_alcotest.to_alcotest qcheck_compiled_equals_interpretive;
         QCheck_alcotest.to_alcotest qcheck_streamed_equals_list;
         QCheck_alcotest.to_alcotest qcheck_streamed_machine_runs ]);
      ("verilog",
       [ Alcotest.test_case "structure" `Quick test_verilog_structure;
         Alcotest.test_case "fire polarity" `Quick test_verilog_fire_polarity;
         Alcotest.test_case "signed diff" `Quick test_verilog_signed_diff ]);
      ("cost",
       [ Alcotest.test_case "monotone" `Quick test_cost_positive_and_monotone;
         Alcotest.test_case "history sharing" `Quick test_battery_shares_history;
         Alcotest.test_case "percentages" `Quick test_overhead_percentages;
         Alcotest.test_case "baseline" `Quick test_baseline_constants ]) ]
