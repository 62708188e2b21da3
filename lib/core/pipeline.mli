(** The four-phase SCIFinder pipeline (the paper's Figure 1):
    invariant generation, errata classification (data in [Bugs]),
    SCI identification, and SCI inference — plus the measurements behind
    the evaluation tables. *)

val time : (unit -> 'a) -> 'a * float
(** [Obs.Clock.time]: elapsed {e monotonic} seconds alongside the result.
    (Timing used to be [Unix.gettimeofday] deltas, which an NTP step could
    make negative.) *)

(** {1 Phase 1: invariant generation (§3.1, Figure 3)} *)

type figure3_row = {
  group_label : string;
  unmodified : int;  (** invariants shared with the previous snapshot *)
  fresh : int;       (** newly justified *)
  deleted : int;     (** falsified by the new trace *)
  total : int;
}

(** Flight-recorder readout of a provenance-enabled run (see
    {!Daikon.Engine.deaths}): the death trail, the eviction-proof
    per-family summary, and the last-narrowed witness of every surviving
    invariant the engine can attribute. *)
type provenance_report = {
  deaths : Daikon.Engine.death list;
  deaths_dropped : int;
  death_families : (string * int * Daikon.Engine.death option) list;
  witnesses : (Invariant.Expr.t * Daikon.Engine.witness) list;
}

type mining = {
  invariants : Invariant.Expr.t list;  (** the raw invariant set *)
  figure3 : figure3_row list;
  record_count : int;
  trace_bytes : int;                   (** the "26 GB of trace data" analogue *)
  mnemonic_coverage : string list;     (** instructions never observed; want [] *)
  prov : provenance_report option;     (** [Some] iff mined with provenance *)
  seconds : float;
}

val mine :
  ?config:Daikon.Config.t ->
  ?workloads:Workloads.Rt.t list ->
  ?groups:string list list ->
  ?labels:string list ->
  ?jobs:int ->
  ?provenance:bool ->
  ?cache_dir:string ->
  unit -> mining
(** Trace the corpus cumulatively (default: the 17 programs in Figure 3
    order), snapshotting the invariant set after each group.

    [groups] names are resolved first against [workloads], then against
    the suite — built-ins plus anything {!Workloads.Suite.register}ed,
    e.g. a fuzz corpus; unknown names raise [Invalid_argument].

    [jobs] (default {!Util.Parallel.default_jobs}) bounds the pool of
    domains tracing workload shards in parallel; each shard feeds a
    private {!Daikon.Engine.t} and the shards are merged in fixed corpus
    order, so the invariant set and every Figure 3 snapshot are identical
    for any [jobs >= 1].

    [cache_dir] enables incremental mining over a content-addressed
    store: every entry is one file named [<kind>-<md5>] by its key, a
    digest of the store format, codec version,
    {!Daikon.Engine.semantics_version}, provenance marker,
    {!Daikon.Config} fingerprint and input. Each workload's engine shard
    is a [shard-] entry keyed by the workload's program image, entry
    point and tick period — a hit skips tracing entirely and goes
    straight to the merge; a missing or damaged entry is re-mined,
    never raised. The full result (Figure 3 rows, coverage, invariant
    set) is additionally a [summary-] entry, so a fully warm run also
    skips merging and extraction. Runs that differ in config or
    provenance keep separate entries, so alternating them never
    re-mines. Cached and uncached runs produce bit-identical results;
    all writes are atomic (temp file + rename).

    [provenance] (default false) turns on the flight recorder: the
    result carries a {!provenance_report} and shard snapshots embed the
    death records (codec v2). The shard key folds in a provenance
    marker — provenance and provenance-free runs never adopt each
    other's shards — and the summary-level cache is bypassed, since a
    summary stores no provenance. The mined invariant set is identical
    either way. *)

val mine_invariants :
  ?config:Daikon.Config.t ->
  ?jobs:int ->
  ?provenance:bool ->
  ?cache_dir:string ->
  ?names:string list ->
  unit -> Invariant.Expr.t list
(** Just the mined invariant set of the named workloads (default: the
    whole corpus; registered workloads resolve too), sharded over [jobs]
    domains like {!mine} but without the Figure 3 bookkeeping.
    [cache_dir] caches per-workload shards exactly as in {!mine} (no
    summary-level entry). *)

(** {1 The on-disk trace lake (ROADMAP item 2)}

    Durable append-only {!Trace.Segment} files — the analogue of the
    paper's 26 GB trace corpus. Recording streams each fused record to
    disk as it is built; mining folds segments back block by block.
    Neither side materialises a trace, so the lake can grow to hundreds
    of times the in-memory corpus. *)

type lake_stats = {
  lake_segments : int;
  lake_records : int;
  lake_bytes : int;   (** on-disk size of the segments written to *)
  lake_seconds : float;
}

val record_lake :
  ?workloads:Workloads.Rt.t list ->
  ?names:string list ->
  ?jobs:int ->
  dir:string -> unit -> lake_stats
(** Trace every named workload (default: the whole suite; names resolve
    against [workloads] first, then the suite) and append its records to
    [dir]'s segment for that workload, creating directory and segments
    as needed. Append-only: recording the same workload again extends
    its segment, which is how a fuzz run accumulates a multi-100×
    corpus. [jobs] (default 1) records workloads in parallel on a
    domain pool — each workload owns its segment file, so writers never
    share a file; a name list with duplicates falls back to sequential
    recording (appends to one file must not interleave). A recorded
    segment that cannot be stat-ed back is skipped from [lake_bytes]
    and counted in the [lake.stat_errors] metric. *)

val mine_lake :
  ?config:Daikon.Config.t -> ?provenance:bool -> ?jobs:int ->
  ?cache_dir:string -> string -> mining
(** Mine a lake directory out-of-core: fold every segment (in sorted
    filename order — deterministic) through a single engine, one block
    in memory at a time. The result is bit-identical to mining the same
    workload sequence live with [jobs = 1]; [figure3] carries one row
    per segment file and [trace_bytes] is the real on-disk size. With
    [provenance], deaths and witnesses match the live run too, ticks
    included — except that two appended runs of one workload back to
    back in a segment read as a single run.

    [jobs] (default 1) shards the replay: the lake is cut into
    byte-balanced block spans ({!Trace.Segment.shard_spans}), each span
    folds into its own engine on a domain pool with scratch decode, and
    the span engines merge back in span order —
    an exact join, so the result (rows, invariants, and the canonical
    SCIFSNAP engine bytes) is byte-identical for every [jobs >= 1]. A
    provenance replay always runs sequentially ([jobs] is ignored): the
    death ring is an eviction-lossy trace whose order is part of its
    meaning.

    [cache_dir] enables a lake-level warm cache in the {!val-mine} store:
    one [lake-] entry holds the full result and the lake's final engine,
    keyed by the codec and semantics versions, the config fingerprint
    and every segment's per-block MD5 digests (read from the frame
    headers without decoding payloads), so appending a block or
    touching any segment re-mines. A warm hit restores the result and
    adopts the engine — bit-identical to the cold fold, including the
    engine snapshot bytes. A provenance run bypasses the lake cache
    (the entry stores no provenance).
    @raise Invalid_argument if [dir] holds no segments.
    @raise Trace.Segment.Corrupt_segment on a torn or damaged segment. *)

(** {1 Sessions: incremental mining (the substrate of [scifinder serve])}

    A session owns one {!Daikon.Engine.t} plus the Figure 3 diff state
    and remembers every source it absorbed, so workloads can be mined
    incrementally, imported invariants checked against the accumulated
    corpus, and the engine snapshotted at any point. Every phase-1
    mining run goes through a session: the batch entry points above
    each run a fresh one. *)

module Session : sig
  type t

  val create :
    ?config:Daikon.Config.t ->
    ?jobs:int ->
    ?provenance:bool ->
    ?cache_dir:string ->
    unit -> t
  (** A fresh session. [jobs] (default 1) and [cache_dir] follow the
      {!mine} rules: [jobs <= 1] with no cache streams every workload
      sequentially through the session engine — the paper's setup, and
      the byte-identity reference — while anything else mines
      per-workload shards (hitting [shard-] entries of the cache store)
      and merges them in submission order. [jobs] also shards {!mine_lake} replays across
      the same pool (see {!val-mine_lake}). *)

  type outcome = {
    o_rows : figure3_row list;  (** [[]] when the caller skipped the diff *)
    o_records : int;            (** records this call added *)
  }

  val mine : t -> ?label:string -> ?row:bool -> Workloads.Rt.t list -> outcome
  (** Absorb the workloads into the session engine. [row] (default true)
      snapshots one {!figure3_row} diffed against the previous
      snapshotted call; [row:false] skips invariant extraction entirely
      (cheap absorption) and leaves the diff baseline untouched. *)

  val mine_groups : t -> labels:string list -> Workloads.Rt.t list list ->
    figure3_row list
  (** The cumulative-corpus form of {!mine}: absorb each group and
      snapshot a row after it, exactly as the batch {!val-mine} does. *)

  val mine_lake : t -> string -> mining
  (** Fold a lake directory into the session (see {!val-mine_lake}).
      On a fresh session with a [cache_dir], a warm hit on the [lake-]
      entry adopts the cached engine whole; a cold fold on a fresh
      session stores it. With [jobs > 1] (and no provenance) the cold fold runs the
      sharded parallel replay and merges the span engines into the
      session engine — byte-identical to the sequential fold, on fresh
      and non-fresh sessions alike, and the cache key ignores [jobs]
      entirely (a lake mined at any [jobs] warms every other).
      [record_count]/[trace_bytes] in the result count this call only;
      [invariants] is the full session set afterwards. *)

  type check_status = Supported | Violated | Vacuous

  val check_status_name : check_status -> string
  (** ["supported"] / ["violated"] / ["vacuous"]. *)

  val check : t -> Invariant.Expr.t list -> (Invariant.Expr.t * check_status) list
  (** Validate imported invariants against everything this session has
      absorbed, re-streaming its workloads and re-folding its lake
      segments in one pass. [Vacuous]: the invariant's program point
      never appeared in the corpus. *)

  val invariants : t -> Invariant.Expr.t list
  val record_count : t -> int
  val workloads : t -> Workloads.Rt.t list
  (** Absorbed workloads, oldest first (lake sources not included). *)

  val source_count : t -> int
  (** Mined sources (workloads + lake directories) so far. *)

  val encode : t -> string
  (** The engine's canonical snapshot bytes ({!Daikon.Engine.encode}) —
      equal sessions produce equal bytes. *)

  val engine_digest : t -> string
  (** MD5 hex of {!encode}: the serve-vs-batch identity fingerprint. *)

  val save : t -> string -> unit
  (** Persist the engine snapshot atomically ({!Daikon.Engine.save}). *)
end

(** {1 §3.2 optimisation (Table 2)} *)

type optimization = {
  result : Invopt.Pipeline.result;
  opt_seconds : float;
}

val optimize : Invariant.Expr.t list -> optimization

(** {1 Phase 3: identification (Table 3)} *)

type identification = {
  summary : Sci.Identify.summary;
  ident_seconds : float;
}

val identify :
  invariants:Invariant.Expr.t list -> Bugs.Registry.t list -> identification

(** {1 Phase 4: inference (§3.4, §5.3; Tables 4-5, Figure 4)} *)

type inference = {
  space : Invariant.Feature.space;
  model : Ml.Logreg.model;
  chosen_lambda : float;        (** lambda.1se-style choice from 3-fold CV *)
  cv_accuracy : float;
  cv_table : (float * float) list;
      (** every (lambda, mean 3-fold CV accuracy) pair the choice was made
          from, in {!Ml.Logreg.cross_validate}'s order *)
  test_accuracy : float;        (** on the held-out 30 % (paper: 90 %) *)
  labeled_sci : int;
  labeled_non_sci : int;
  selected_features : (string * float) list;
      (** Table 4: negative weights are SCI-associated *)
  recommended : Invariant.Expr.t list;
      (** unlabeled invariants the model flags as security critical *)
  inferred_fp : Invariant.Expr.t list;
      (** rejected by the expert-validation oracle *)
  surviving : Invariant.Expr.t list;
  property_count : int;         (** Table 5's shape-class count *)
  pca_points : (float array * int) list;
      (** Figure 4: (PC1/PC2 projection, 1 = security critical) *)
  pca_separation : float;
  infer_seconds : float;
}

val infer :
  ?seed:int -> ?alpha:float ->
  all_invariants:Invariant.Expr.t list ->
  Sci.Identify.summary -> inference
(** [alpha] defaults to the paper's 0.5; class balance, the 70/30 split
    and CV folds all derive from [seed]. *)

(** {1 The mutant-at-scale campaign (§5.5 taxonomy, LASHED-style scale)} *)

type mutant_outcome = {
  mutant : Bugs.Mutant.t;
  trigger : string;  (** the detecting trigger, or the last one tried *)
  detected : bool;
  latency : int;     (** first-firing record index; [-1] when undetected *)
  assertion : string option;
      (** the battery name of the first-firing assertion — the evidence
          trail [scifinder campaign --evidence] prints *)
}

type campaign_class = {
  class_name : string;          (** "CF" .. "RU" *)
  class_total : int;
  class_detected : int;
  class_mean_latency : float;   (** over detected mutants; [nan] if none *)
  class_fp_rate : float;
      (** fraction of the class's primary triggers whose clean run already
          fires the battery *)
}

type campaign = {
  camp_seed : int;
  mutant_total : int;
  detected_total : int;
  trigger_count : int;
  fp_trigger_count : int;
  outcomes : mutant_outcome list;
  classes : campaign_class list;
  fingerprint : string;
      (** digest of the outcome list: equal fingerprints across runs is
          the determinism gate *)
  camp_seconds : float;
}

val campaign :
  ?seed:int -> ?mutants:int -> ?triggers:int -> ?tries:int ->
  sci:Invariant.Expr.t list -> unit -> campaign
(** Compile the SCI battery once, compute the fired-assertion mask of
    each of [triggers] fuzz-generated programs' clean runs once, then
    give each of [mutants] generated faults up to [tries] triggers to
    fire an assertion outside the trigger's clean-run set (the §5.6
    discounting discipline). Deterministic per [seed].

    Every run, clean or mutant, happens on one machine created for this
    call and reset between runs ({!Cpu.Machine.reset}); its records
    stream straight into the compiled battery and are never stored, and
    a mutant's run stops at its first live firing. Safe to call from
    several domains at once. *)
