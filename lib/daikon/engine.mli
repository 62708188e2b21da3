(** The dynamic invariant detector (the paper's modified Daikon, §3.1.2).

    The engine is incremental: records stream in through {!observe} and
    candidate invariants are falsified on the fly; {!invariants} extracts
    the currently justified set at any time — which is how the Figure 3
    program-by-program convergence series is produced.

    Templates: equality to a constant, small value sets (OneOf), pairwise
    relations ([=], [<>], [<], [<=], [>], [>=]) between comparable
    variables, constant differences (Y - X = c), constant scalings
    (Y = X * k), power-of-two alignment (X mod 4 = r), and signed bounds
    on the derived difference variables. Daikon-style equality-set leaders
    suppress redundant pairs over same-valued constants. *)

type t

val create :
  ?config:Config.t -> ?provenance:bool -> ?prov_capacity:int -> unit -> t
(** [provenance] (default [false]) turns on the flight recorder: every
    candidate falsification is recorded as a {!death} (bounded ring of
    [prov_capacity] entries, default 4096) and narrowing observations
    update per-candidate {!witness}es. It is the engine's only switch,
    and it changes what is recorded, not what is mined: {!observe} and
    {!merge_into} run the same code either way and call the recorder
    only when a candidate changes state. Off, snapshots keep the
    provenance-free format byte for byte. *)

val observe : t -> Trace.Record.t -> unit
(** Feed one instruction-boundary record. Program points are interned
    (integer slots, last-point cache). Every record visits every pair of
    its point, settled or not, so the per-record cost tracks the pairs
    ever instantiated there (about 3,660 pair visits per record over
    the full corpus), not the live candidate set. A visit is cheap only
    for a settled pair: one whose diff and scale candidates are dead and
    whose relation bit this record repeats leaves after one flag-byte
    test. Every falsification goes through the death rules {!merge_into}
    uses too; with provenance on, each candidate state change is
    reported to the recorder as it happens. *)

val observe_baseline : t -> Trace.Record.t -> unit
(** The pre-interning reference path: a string-keyed hash lookup per
    record and a full scan of every candidate pair, dead or alive.
    Produces bit-identical candidate state to {!observe}, and with
    provenance on the same deaths, witnesses and births (the two may be
    mixed freely on one engine); kept for differential testing and as
    the [minebench] baseline. *)

val invariants : t -> Invariant.Expr.t list
(** The currently justified set, deduplicated and in canonical order. *)

val point_keys : t -> (string * string array) list
(** Every program point, in {!points} order, with the sorted,
    deduplicated {!Invariant.Expr.canonical} keys of the invariants it
    currently justifies — what {!invariants} would extract there. This
    is the Figure 3 row path, and it costs what changed: each point
    caches the keys of its last extraction and re-extracts only when its
    state has moved since. {!observe} moves a point by counting a
    record; {!merge_into} clears the cache of every point it joins;
    decoded and newly interned points start without one; a point that
    {!merge_into} adopts from [src] keeps [src]'s (the configurations
    match). A point that has not moved comes back as the physically
    same array as the previous call returned, so a caller diffing
    successive calls can skip it with [==].

    A Figure 3 row built from these counts distinct (point, key) pairs.
    Each key begins with its point name and a ['|'], so two points'
    keys can coincide only when a point name contains ['|']; no
    instruction mnemonic does, so for every traced corpus this is the
    count of distinct keys in {!invariants}. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] joins [src]'s state into [dst], point by point:
    min/max intervals join, distinct-value sets union (dying past the
    configured cap), relation bits or together, constant differences
    survive only when both sides agree, and scale masks intersect — so
    that merging the engines of two trace shards yields the same
    {!invariants} as streaming both shards through one engine
    sequentially. [src] is consumed: its point states may be adopted by
    reference and must not be observed into afterwards.
    @raise Invalid_argument if the configurations differ or a shared
    program point has incompatible variable sets. *)

(** Candidate birth/death accounting for one invariant family — the
    telemetry behind the Figure 3 convergence story. Computed by scanning
    the tracker state on demand; the observe/merge hot paths pay nothing.
    [born - live] candidates have been falsified. *)
type family_stats = {
  family : string;  (** [oneof], [interval], [mod], [relation], [diff], [scale] *)
  born : int;       (** candidates ever instantiated *)
  live : int;       (** still justified by every observation so far *)
}

val candidate_stats : t -> family_stats list

(** {1 Candidate-lifecycle provenance (the flight recorder)}

    Available when the engine was created with [~provenance:true];
    every reader below degrades to the empty answer otherwise. *)

(** One falsification: which candidate died, and what killed it. *)
type death = {
  d_point : string;
  d_family : string;   (** [oneof], [mod], [relation], [diff] or [scale] *)
  d_desc : string;     (** the candidate, over variable names *)
  d_workload : string; (** workload being traced ([""] before
                           {!set_workload}; ["merge:..."] when the
                           shard join itself falsified it) *)
  d_record : int;      (** engine-global record ordinal at death *)
  d_tick : int;        (** record ordinal within that workload *)
}

(** The observation that last constrained a surviving candidate. *)
type witness = {
  w_workload : string;
  w_record : int;
  w_tick : int;
}

val provenance_enabled : t -> bool

val set_workload : t -> string -> unit
(** Name the workload about to be observed, so subsequent deaths and
    witnesses carry it. Resets the per-workload record ordinal. No-op
    without provenance. *)

val deaths : t -> death list
(** Ring contents, oldest first. The ring is bounded: under pressure the
    oldest entries are evicted (see {!deaths_dropped}); the per-family
    summary below is immune to eviction. *)

val deaths_dropped : t -> int

val death_families : t -> (string * int * death option) list
(** Per family: total falsifications and the {e first} death — tracked
    outside the ring, so at least one full evidence trail per family
    always survives whatever the ring capacity. Sorted by family. *)

val narrow_witness : t -> Invariant.Expr.t -> witness option
(** The observation that last narrowed the candidate behind an extracted
    invariant (falling back to the birth record of its program point
    when it never narrowed after birth). [None] without provenance or
    for invariant shapes the engine does not track. *)

val record_count : t -> int

val point_count : t -> int

val points : t -> string list
(** Observed program points, in canonical (sorted) order — stable under
    randomized hash seeds ([OCAMLRUNPARAM=R]). *)

(** {1 Persistent snapshots}

    Full engine state — every invariant family's candidate state,
    program points, and the configuration — round-trips through a
    compact, versioned binary codec to an observationally identical
    engine: same {!invariants}, {!candidate_stats}, {!record_count},
    and the same behaviour under further {!observe}/{!merge_into}.
    Snapshot bytes are canonical (points sorted), so identical state
    encodes to identical bytes regardless of hash seed. *)

exception Corrupt_snapshot of string
(** The file is torn, truncated, or fails its payload digest. *)

exception Stale_snapshot of string
(** The file is well-formed but written by another codec version or
    configuration, or it carries a cache key (a file from the old
    per-workload shard cache) — re-mine rather than trust it. *)

val codec_version : int
(** The newest version {!decode} accepts (older ones stay readable).
    Engines without provenance encode as version 1 — byte-identical to
    what pre-provenance releases wrote — so enabling the flight
    recorder never invalidates or perturbs existing caches; engines
    with provenance append it as a version-2 payload section. *)

val semantics_version : int
(** The version of what the engine makes of a trace: candidate templates,
    falsification rules and {!invariants} extraction. Every pipeline
    cache key includes it, so a cached result mined under older
    semantics misses instead of serving stale invariant text. Bump it
    with any change that alters the mined invariants of an unchanged
    trace — the phase-1 golden file ([test/phase1.golden]) records it
    next to the digest of the mined invariant text, so such a change
    shows up there. *)

val save : t -> string -> unit
(** Write atomically (temp file + rename): a crashed or concurrent run
    can never leave a torn snapshot at the destination path. *)

val load : ?config:Config.t -> string -> t
(** @raise Corrupt_snapshot on damaged input.
    @raise Stale_snapshot when the codec version or [config] does not
    match the snapshot, or the snapshot carries a cache key.
    @raise Sys_error when unreadable. *)

val encode : t -> string
(** The raw snapshot bytes {!save} writes. The header keeps an empty key
    field, so these are the bytes earlier releases wrote for an unkeyed
    snapshot. *)

val decode : ?config:Config.t -> string -> t
(** Inverse of {!encode}; raises like {!load}. *)

val scale_candidates : int array
(** The Y = X * k factors tried: word/index scalings plus the half-word
    and sign-replication factors. *)

val pair_policy : Trace.Var.kind -> Trace.Var.kind -> int
(** Template-permission bits for a variable-pair kind combination
    (Daikon's comparability analysis); 0 means the pair is never
    tracked. *)
