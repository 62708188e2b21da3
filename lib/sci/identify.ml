(* Security-critical invariant identification (§3.3).

   For each security bug: run its trigger program on the buggy processor
   and record which invariants are violated (candidate SCI); then run the
   same trigger on the clean processor — anything violated there is not a
   true processor invariant (a false positive of the generation phase) and
   is removed. The survivors are the identified SCI of that bug. *)

module Expr = Invariant.Expr

(* Triggers that loop forever (b1, b4, a11) are cut off here; by then the
   violations have long been recorded. *)
let trigger_max_steps = 4000

type report = {
  bug : Bugs.Registry.t;
  true_sci : Expr.t list;
  false_positives : Expr.t list;  (* violated by the clean processor too *)
  buggy_records : int;
  detected : bool;                (* some SCI is violated by the buggy run *)
}

(* Every trigger run goes through here: reset the machine for the
   trigger (fault hook, tick period, fresh state) and stream its
   step-capped trace to [observer]. *)
let stream_trigger ~machine ?(fault = Cpu.Fault.none)
    (trigger : Workloads.Rt.t) ~observer =
  let config =
    { Trace.Runner.default_config with max_steps = trigger_max_steps }
  in
  Cpu.Machine.reset machine ~fault ~tick_period:trigger.tick_period;
  Cpu.Machine.load_image machine trigger.image;
  Cpu.Machine.set_pc machine trigger.entry;
  ignore (Trace.Runner.run ~config ~observer machine)

let capture_trigger ?fault trigger =
  let records = ref [] in
  stream_trigger ~machine:(Cpu.Machine.create ()) ?fault trigger
    ~observer:(fun r -> records := r :: !records);
  List.rev !records

let run ~(index : Checker.index) (bug : Bugs.Registry.t) =
  let buggy = capture_trigger ~fault:bug.fault bug.trigger in
  let clean = capture_trigger bug.trigger in
  let violated_buggy = Checker.violations index buggy in
  let violated_clean = Checker.violations index clean in
  let clean_keys = Hashtbl.create 64 in
  List.iter
    (fun inv -> Hashtbl.replace clean_keys (Expr.canonical inv) ())
    violated_clean;
  let true_sci =
    List.filter
      (fun inv -> not (Hashtbl.mem clean_keys (Expr.canonical inv)))
      violated_buggy
  in
  { bug;
    true_sci;
    false_positives = violated_clean;
    buggy_records = List.length buggy;
    detected = true_sci <> [] }

(* Run identification over a list of bugs, returning per-bug reports and
   the union of identified SCI / false positives (the labeled data that
   seeds the inference model, §5.3). *)
type summary = {
  reports : report list;
  unique_sci : Expr.t list;
  unique_fp : Expr.t list;
}

let run_all ~invariants bugs =
  let index = Checker.index invariants in
  let reports = List.map (run ~index) bugs in
  let dedup invs =
    let seen = Hashtbl.create 256 in
    List.filter
      (fun inv ->
         let k = Expr.canonical inv in
         if Hashtbl.mem seen k then false
         else begin Hashtbl.replace seen k (); true end)
      invs
  in
  let unique_sci = dedup (List.concat_map (fun r -> r.true_sci) reports) in
  (* A "false positive" that some bug identifies as a true SCI is kept as
     SCI: the clean-run violation evidence is bug-local. *)
  let sci_keys = Hashtbl.create 256 in
  List.iter (fun i -> Hashtbl.replace sci_keys (Expr.canonical i) ()) unique_sci;
  let unique_fp =
    dedup (List.concat_map (fun r -> r.false_positives) reports)
    |> List.filter (fun i -> not (Hashtbl.mem sci_keys (Expr.canonical i)))
  in
  { reports; unique_sci; unique_fp }
