(** Typed process-wide metrics: counters, gauges and histograms.

    Instruments live in a global registry keyed by name — asking for the
    same name twice returns the same instrument, so library code can
    declare its counters at module level and entry points can flush the
    lot with {!emit_all}. Counters update with a single [Atomic] add and
    are safe (and exact) under concurrent increments from
    [Util.Parallel] worker domains; histograms take a per-instrument
    mutex, which is fine at their intended per-phase / per-run cadence. *)

type counter
type gauge
type histogram

val counter : ?unit:string -> string -> counter
(** [unit] (e.g. ["ns"], ["bytes"]) is declared by the first registrant
    and lands in the snapshot's [unit] attr; later registrations of the
    same name ignore it. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : ?unit:string -> string -> gauge
val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** Monotonic high-water update (compare-and-swap loop). *)

val gauge_value : gauge -> float

val histogram : ?unit:string -> string -> histogram
val observe : histogram -> int -> unit
(** Record one non-negative integer observation (typically nanoseconds). *)

val histogram_count : histogram -> int

val histogram_percentile : histogram -> float -> int
(** Bucketed estimate of the [q]-th quantile ([q] in [\[0, 1\]]): the
    upper bound of the bucket holding the q-th observation, clamped to
    the observed maximum — the same estimate the snapshot's
    [p50]/[p95]/[p99] attrs report. 0 for an empty histogram. Values
    0–7 have a bucket each; above, each power of two is split into 8
    linear buckets, so the estimate exceeds the true value by at most
    12.5 %. *)

(** One registered instrument, flattened for emission. *)
type snapshot = {
  metric : string;
  kind : string;     (** ["counter"], ["gauge"] or ["histogram"] *)
  value : float;     (** count / level / observation count *)
  attrs : (string * Sink.value) list;
      (** histograms: [count], [sum], [min], [max], [mean], [p50], [p95],
          [p99] (bucketed estimates for the percentiles); every kind adds
          [unit] when the instrument declared one *)
}

val snapshot : unit -> snapshot list
(** Every registered instrument, sorted by name. *)

val emit_all : Sink.t -> unit
(** One [Metric] event per instrument, in {!snapshot} order. *)

val reset : unit -> unit
(** Drop every registered instrument — for tests. Existing handles keep
    working but are no longer reachable from {!snapshot}. *)
