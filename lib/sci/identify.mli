(** Security-critical invariant identification (§3.3).

    For each security bug: run its trigger on the buggy processor and
    record the violated invariants (candidate SCI); run the same trigger
    on the clean processor — anything violated there is not a true
    processor invariant (a generation false positive) and is removed.
    The survivors are the identified SCI of that bug. *)

val trigger_max_steps : int
(** Looping triggers (b1, b4, a11) are cut off here; violations have long
    been recorded by then. *)

type report = {
  bug : Bugs.Registry.t;
  true_sci : Invariant.Expr.t list;
  false_positives : Invariant.Expr.t list;
      (** violated by the clean processor too *)
  buggy_records : int;
  detected : bool;  (** some SCI is violated by the buggy run *)
}

val stream_trigger :
  machine:Cpu.Machine.t -> ?fault:Cpu.Fault.t -> Workloads.Rt.t ->
  observer:(Trace.Record.t -> unit) -> unit
(** Reset [machine] ({!Cpu.Machine.reset}) to the trigger's tick period
    and [fault] (default none), load the trigger and stream its
    step-capped trace to [observer], materialising nothing. [observer]
    may raise to stop the run early ({!Trace.Runner.run_fold}); the
    exception passes through. One machine serves any number of trigger
    runs, one at a time. *)

val capture_trigger :
  ?fault:Cpu.Fault.t -> Workloads.Rt.t -> Trace.Record.t list
(** The (step-capped) trace of a trigger program: {!stream_trigger} on a
    fresh machine, collected into a list. *)

val run : index:Checker.index -> Bugs.Registry.t -> report

type summary = {
  reports : report list;
  unique_sci : Invariant.Expr.t list;
      (** union of all identified SCI; seeds the inference labels *)
  unique_fp : Invariant.Expr.t list;
      (** union of clean-run violations, minus anything that any bug
          identifies as a true SCI *)
}

val run_all :
  invariants:Invariant.Expr.t list -> Bugs.Registry.t list -> summary
