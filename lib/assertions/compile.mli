(** The compiled assertion monitor: each mined SCI becomes one flat
    specialized [Trace.Record.t -> bool] closure (constants folded,
    membership sets pre-sorted, common comparison shapes open-coded), and
    records dispatch to their per-point assertion batch through an
    interned point table fronted by a last-point cache — the same
    technique the mining engine uses, exploiting the fact that trace
    points are per-branch mnemonic literals so [String.equal] usually
    hits on physical equality. Monitor cost per retired instruction
    approaches a function call.

    The interpretive {!Monitor} is the reference oracle: for any battery
    and trace, [run] returns exactly the firing list [Monitor.run]
    returns (same assertions, same steps, same order). That equality is
    pinned by a QCheck property and by the mutbench CI gate. *)

type t

val compile : Ovl.t list -> t
(** Compile a battery. Cost is linear in the battery and paid once;
    amortized over every trace the battery is checked against. *)

val size : t -> int
(** Number of assertions in the compiled battery. *)

val run : t -> Trace.Record.t list -> Monitor.firing list
(** Every firing, identical to [Monitor.run] on the source battery. *)

(** {2 One trace, list or stream}

    Each question below is one per-record step folded over a trace. A
    trace is either a materialised list or a {!source} that produces it
    record by record — typically a machine run through
    [Trace.Runner.run_fold], so the records reach the battery the moment
    they are built and are never stored. *)

type source = (Trace.Record.t -> unit) -> unit
(** [source emit] calls [emit] on every record of one trace, in trace
    order. [emit] may raise to end the trace early; the source must let
    that exception through. *)

val first_firing_of : ?ignore:bool array -> t -> source -> Monitor.firing option
(** The first firing in trace order. [step] is the detection latency:
    the firing record's index in the trace. [ignore.(i)] masks the
    [i]-th battery assertion (clean-run discounting in the mutant
    campaign: an assertion that already fires on the clean processor
    detects nothing). At the first live firing [emit] raises, so the
    source produces no further record: a machine run stops there.
    [monitor.compiled.records] counts the records checked (the firing
    one included), [monitor.compiled.evaluations] the live assertions
    evaluated, [monitor.compiled.firings] the firing found (0 or 1), and
    [monitor.compiled.run_ns] observes the whole call. Raises
    [Invalid_argument] when the mask length is not [size t]. *)

val first_firing : ?ignore:bool array -> t -> Trace.Record.t list ->
  Monitor.firing option
(** [first_firing_of] over a list. *)

val detects : ?ignore:bool array -> t -> Trace.Record.t list -> bool

val fired_set_of : t -> source -> bool array
(** [(fired_set_of t source).(i)] is whether the [i]-th battery
    assertion fires anywhere in the trace — the clean-run mask fed back
    to [first_firing ~ignore]. The whole trace is read; no monitor
    counter moves. *)

val fired_set : t -> Trace.Record.t list -> bool array
(** [fired_set_of] over a list. *)

val fired_assertions : t -> Trace.Record.t list -> Ovl.t list
(** The distinct assertions that fired at least once, in battery order. *)
