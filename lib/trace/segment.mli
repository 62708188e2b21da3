(** The on-disk trace lake: append-only segment files of fused trace
    records — the durable analogue of the paper's 26 GB trace corpus.

    A segment is a sequence of self-contained framed blocks
    ([SCIFSEG] magic, version, MD5 payload digest, length, columnar
    delta-encoded payload). Blocks are independent, so appending to a
    segment — or concatenating whole segment files — yields a valid
    segment; readers stream one block at a time, so both sides are
    out-of-core. Decoding is round-trip exact: a replayed stream is
    record-for-record bit-identical to the live {!Runner.run_fold}
    stream that produced it. *)

exception Corrupt_segment of string
(** A torn tail (crash mid-append), bit damage (digest mismatch), a
    foreign or future-versioned file, or any hostile bytes. Reading a
    segment never raises [Invalid_argument] and never yields garbage
    records. *)

val version : int

(** {1 Writing} *)

type writer

val create : ?records_per_block:int -> workload:string -> string -> writer
(** [create ~workload path] opens [path] for append (creating it if
    missing) and buffers up to [records_per_block] (default 1024,
    sized so a block's decoded working set stays cache-resident)
    records per block — the only materialization on the write side.

    An existing file is checked first, one writer per segment assumed.
    A torn last frame (a crash mid-append: its header or payload ends
    past EOF) is cut back to the last block boundary, so a crash loses
    at most the interrupted append. Any other damage — a bad magic or
    version, in a header cut short too, or a complete block whose digest
    is wrong — raises {!Corrupt_segment}, as a read would, and leaves
    the file unchanged. *)

val add : writer -> Record.t -> unit
(** Append one record, flushing a full block to disk. Usable directly as
    a {!Runner.stream} observer. *)

val close : writer -> unit
(** Flush the partial block (an empty trace still writes one empty
    block, so the file self-describes its workload) and fsync: once
    [close] returns every appended block is on stable storage.
    Idempotent. *)

val written : writer -> int
(** Records appended so far, including the buffered partial block (all
    of them are on disk once {!close} returns). *)

val with_writer :
  ?records_per_block:int -> workload:string -> string ->
  (writer -> 'a) -> 'a
(** [create] / [close] bracket. *)

(** {1 Reading} *)

type info = {
  records : int;
  blocks : int;
  bytes : int;  (** on-disk size *)
  workloads : string list;  (** distinct, in first-appearance order *)
}

type scratch
(** Reusable decode buffers for one consumer (one domain). Decoding
    with a scratch recycles the per-record value rows across blocks —
    the dominant allocation of a multi-GB replay — at a price: the
    records handed to the fold callback alias the scratch rows and are
    invalidated by the next block. Opt in only where the consumer
    provably does not retain records ({!Daikon.Engine.observe} copies
    the values it keeps). Never share one scratch across domains. *)

val scratch : unit -> scratch

val fold :
  ?on_workload:(string -> unit) ->
  ?scratch:scratch ->
  init:'a -> f:('a -> Record.t -> 'a) -> string -> 'a * info
(** Stream every record of the segment at [path] through [f], one block
    in memory at a time. [on_workload] fires before the first block's
    records and again before any block whose workload differs from the
    previous block's — a miner hangs {!Daikon.Engine.set_workload} here
    so death attribution (record ordinals within a workload) matches a
    live run. The limit: two appended runs of one workload back to back
    in a segment read as a single run. An empty or damaged file
    raises {!Corrupt_segment}. [scratch] recycles decode buffers (see
    {!scratch} for the aliasing contract); it changes neither the
    records seen, their order, nor the error surface. *)

val fold_range :
  ?on_workload:(string -> unit) ->
  ?scratch:scratch ->
  ?first_block:int ->
  ?last_block:int ->
  init:'a -> f:('a -> Record.t -> 'a) -> string -> 'a * info
(** {!fold} restricted to the half-open block range
    [\[first_block, last_block)] (defaults: the whole file);
    [on_workload] fires on the range's first block. Pre-range
    frames are seeked over with framing checks only; decoding and
    digest verification start at [first_block]. Blocks are
    self-contained — deltas reset at block boundaries — so folding
    [\[0, k)] then [\[k, n)] sees exactly the records of one whole-file
    fold, in order: the foundation for sharding a replay. A range past
    the end of the file is empty (zero blocks), not an error, and an
    empty range on an empty file does not raise — only {!fold} insists
    on at least one block. Raises [Invalid_argument] on a negative or
    inverted range. *)

val iter : ?on_workload:(string -> unit) -> f:(Record.t -> unit) -> string -> info

val block_digests : string -> string list
(** The 16-byte MD5 digest of every block, in file order, read from the
    frame headers alone — payloads are seeked over, not decoded or
    verified, so fingerprinting a multi-GB segment for a cache key costs
    one seek per block. The framing checks match {!fold}'s: a torn tail,
    foreign magic or future version raises {!Corrupt_segment} (payload
    bit-rot does not — that is {!fold}'s job when the data is actually
    read). *)

val block_sizes : string -> int list
(** The on-disk size (header + payload) of every block, in file order,
    from the same header-only scan as {!block_digests} — the input a
    shard planner needs to balance a replay by bytes. Same error
    surface as {!block_digests}. *)

(** {1 Lake layout}

    A lake directory holds one append-only segment per workload, named
    by the {!Util.Fsname}-encoded workload name — hostile names cannot
    escape the directory. *)

val segment_path : dir:string -> workload:string -> string

val lake_segments : string -> string list
(** The lake's segment files, sorted by filename — the canonical
    (deterministic) mining order. [[]] if [dir] does not exist. *)

(** {1 Sharding a replay}

    A parallel replay splits the lake into contiguous block ranges
    ("spans") balanced by on-disk size. Each span folds independently
    (blocks are self-contained); merging the per-span results back in
    span order reproduces the sequential fold exactly. *)

type span = {
  sp_path : string;
  sp_first : int;  (** first block, inclusive *)
  sp_last : int;  (** last block, exclusive *)
  sp_bytes : int;  (** on-disk bytes of the range *)
}

val shard_spans : jobs:int -> string list -> span list
(** Plan a [jobs]-way replay of [paths] (typically {!lake_segments}
    output, whose order the plan preserves). Every block of every
    segment lands in exactly one span; spans never cross a segment
    boundary; a segment larger than its proportional byte share is
    split at block boundaries so one big segment cannot serialize the
    replay. The plan reads only frame headers (one seek per block) and
    depends only on them — deterministic across runs, hosts, and the
    worker count actually used to execute it. An empty or torn segment
    raises {!Corrupt_segment}, as the replay itself would. *)
