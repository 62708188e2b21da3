(* The four-phase SCIFinder pipeline (Figure 1):

     1. invariant generation  (workload tracing + the Daikon engine)
     2. errata classification (encoded as data in [Bugs])
     3. SCI identification    (buggy-vs-clean violation differencing)
     4. SCI inference         (elastic-net logistic regression)

   plus the evaluation drivers behind every table and figure of §5. *)

module Expr = Invariant.Expr

(* All pipeline timing runs on the monotonic clock (NTP steps used to be
   able to make the wall-clock deltas here negative). *)
let time = Obs.Clock.time

(* Phase telemetry. Counters aggregate across calls; the per-engine
   candidate-family numbers are gauges set at extraction time. *)
let c_mine_records = Obs.Metrics.counter "mine.records"
let c_mine_fresh = Obs.Metrics.counter "mine.invariants_fresh"
let c_mine_deleted = Obs.Metrics.counter "mine.invariants_deleted"
let c_merges = Obs.Metrics.counter "mine.merges"
let c_merge_ns = Obs.Metrics.counter "mine.merge_ns"
let c_cache_hit = Obs.Metrics.counter "mine.cache.hit"
let c_cache_miss = Obs.Metrics.counter "mine.cache.miss"
let c_cache_stale = Obs.Metrics.counter "mine.cache.stale"

(* Segment files recorded but unstat-able afterwards: the lake byte
   totals skip them, and this counter is the only trace of the skip. *)
let c_lake_stat_errors = Obs.Metrics.counter "lake.stat_errors"
let c_summary_hit = Obs.Metrics.counter "mine.cache.summary_hit"
let c_summary_miss = Obs.Metrics.counter "mine.cache.summary_miss"

let publish_engine_stats engine =
  List.iter
    (fun (fs : Daikon.Engine.family_stats) ->
       let set suffix v =
         Obs.Metrics.set
           (Obs.Metrics.gauge
              (Printf.sprintf "daikon.candidates.%s.%s" fs.family suffix))
           (float_of_int v)
       in
       set "born" fs.born;
       set "live" fs.live;
       set "dead" (fs.born - fs.live))
    (Daikon.Engine.candidate_stats engine)

(* ---- The cache store (warm-restart mining) ----

   One content-addressed store under the caller-supplied cache
   directory. An entry is one file named by its key:

     <dir>/shard-<md5>     one workload's Daikon engine shard
     <dir>/summary-<md5>   a full corpus-level mining result
     <dir>/lake-<md5>      a full lake-level mining result and the
                           lake's final engine

   The key digests everything that produced the entry, so runs that
   differ in config, provenance or input name different files and never
   overwrite each other. An entry's bytes are one envelope: magic, key,
   the MD5 of the payload, then the payload. [find] is the one reader
   and verifier, [store] the one writer; writes are atomic (temp +
   rename), so a crashed run can never leave a torn entry behind.
   Nothing is evicted. *)

module Cache = struct
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end

  let magic = "SCIFCACH"

  (* The layout of the envelope and of every payload, part of every key:
     bump it with any change to either, so an entry in an older layout
     misses instead of being misread. *)
  let format = 3

  (* The one key preamble: entry kind, store format, snapshot codec
     version, engine semantics version, provenance marker and config
     fingerprint, then whatever identifies the input. The marker keeps a
     provenance run from adopting a provenance-free entry (whose death
     records would be missing), and vice versa. The key is the entry's
     file name, [<kind>-<32 hex digits>]. *)
  let key ~kind ~provenance config add_input =
    let b = Buffer.create 4096 in
    Buffer.add_string b
      (Printf.sprintf "scifinder-%s/%d/%d/%d\n" kind format
         Daikon.Engine.codec_version Daikon.Engine.semantics_version);
    if provenance then Buffer.add_string b "provenance\n";
    Buffer.add_string b (Daikon.Config.canonical_string config);
    Buffer.add_char b '\n';
    add_input b;
    kind ^ "-" ^ Digest.to_hex (Digest.string (Buffer.contents b))

  (* A shard is pinned by the exact byte stream the tracer would
     produce: the workload's name, entry, tick period and full program
     image. *)
  let shard_key ~provenance config (w : Workloads.Rt.t) =
    key ~kind:"shard" ~provenance config (fun b ->
        Buffer.add_string b
          (Printf.sprintf "%s entry=%d tick=%d\n" w.name w.entry
             w.tick_period);
        List.iter
          (fun (addr, word) ->
             Buffer.add_string b (Printf.sprintf "%x:%x;" addr word))
          w.image)

  (* [Some v] when the entry exists, its envelope carries [key] and its
     payload's digest, and [decode] accepts the payload. A missing entry
     is [None]; so is a damaged one — torn, bit-flipped or refused by
     [decode] — which also counts as stale. Either way the caller
     re-mines and [store] overwrites; a cache entry never raises. *)
  let find dir key decode =
    match Util.Binio.read_file (Filename.concat dir key) with
    | exception Sys_error _ -> None
    | data ->
      (match
         let r = Util.Binio.reader data in
         let head = Util.Binio.read_string_exact r (String.length magic) in
         let stored = Util.Binio.read_string r in
         let digest = Util.Binio.read_string_exact r 16 in
         let payload = Util.Binio.read_string r in
         (* Any mismatch reads as damage, like a short file. *)
         if
           not
             (String.equal head magic && String.equal stored key
              && Util.Binio.eof r
              && String.equal (Digest.string payload) digest)
         then raise Util.Binio.Truncated;
         decode payload
       with
       | v -> Some v
       | exception
           ( Util.Binio.Truncated | Invariant.Io.Parse_error _
           | Daikon.Engine.Corrupt_snapshot _
           | Daikon.Engine.Stale_snapshot _ ) ->
         Obs.Metrics.incr c_cache_stale;
         None)

  let store dir key payload =
    mkdir_p dir;
    let w = Util.Binio.writer () in
    Util.Binio.write_raw w magic;
    Util.Binio.write_string w key;
    Util.Binio.write_raw w (Digest.string payload);
    Util.Binio.write_string w payload;
    Util.Binio.atomic_write (Filename.concat dir key) (Util.Binio.contents w)
end

(* ---- Phase 1: invariant generation (§3.1, Figure 3, Table 8) ---- *)

type figure3_row = {
  group_label : string;
  unmodified : int;
  fresh : int;
  deleted : int;
  total : int;
}

(* The flight-recorder readout of a provenance-enabled mining run: the
   raw death trail, the eviction-proof per-family summary, and a
   last-narrowed witness for every surviving invariant the engine can
   attribute. *)
type provenance_report = {
  deaths : Daikon.Engine.death list;
  deaths_dropped : int;
  death_families : (string * int * Daikon.Engine.death option) list;
  witnesses : (Expr.t * Daikon.Engine.witness) list;
}

type mining = {
  invariants : Expr.t list;         (* the raw invariant set *)
  figure3 : figure3_row list;
  record_count : int;
  trace_bytes : int;                (* §5.1's "26GB of trace data" analogue *)
  mnemonic_coverage : string list;  (* instructions never observed (want []) *)
  prov : provenance_report option;  (* Some iff mined with ~provenance:true *)
  seconds : float;
}

(* An invariant set as [Daikon.Engine.point_keys] gives it: per program
   point, in name order, the sorted distinct canonical keys. *)
let keys_by_point invs =
  let by_point = Hashtbl.create 97 in
  List.iter
    (fun (i : Expr.t) ->
       Hashtbl.replace by_point i.point
         (Expr.canonical i
          :: Option.value ~default:[] (Hashtbl.find_opt by_point i.point)))
    invs;
  Hashtbl.fold
    (fun point keys acc ->
       (point, Array.of_list (List.sort_uniq String.compare keys)) :: acc)
    by_point []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Workload references are resolved once, up front: first against the
   caller-supplied pool, then against the suite (built-ins plus anything
   the fuzzer registered). Everything downstream works on [Rt.t]. *)
let resolve ~workloads name =
  match
    List.find_opt (fun w -> String.equal w.Workloads.Rt.name name) workloads
  with
  | Some w -> Some w
  | None -> Workloads.Suite.by_name name

let resolve_exn ~workloads name =
  match resolve ~workloads name with
  | Some w -> w
  | None -> invalid_arg ("Pipeline.mine: unknown workload " ^ name)

let trace_workload_into engine (w : Workloads.Rt.t) =
  (* Name the workload for death attribution (no-op without provenance). *)
  Daikon.Engine.set_workload engine w.Workloads.Rt.name;
  (* One span per workload shard, whichever domain it traces on. *)
  Obs.Span.with_ ~name:"mine.shard"
    ~attrs:[ ("workload", Obs.Sink.S w.Workloads.Rt.name) ]
    (fun () ->
       ignore
         (Trace.Runner.stream ~tick_period:w.Workloads.Rt.tick_period
            ~entry:w.Workloads.Rt.entry
            ~observer:(Daikon.Engine.observe engine)
            w.Workloads.Rt.image))

(* One workload shard: a cache hit deserialises the engine and skips
   tracing entirely; a miss (or damaged entry) traces and then persists
   the shard BEFORE the caller merges it — [merge_into] adopts shard
   state by reference, so storing after the merge would snapshot a
   consumed engine. *)
let mine_shard ~config ~provenance ~cache_dir (w : Workloads.Rt.t) =
  let trace () =
    let shard = Daikon.Engine.create ~config ~provenance () in
    trace_workload_into shard w;
    shard
  in
  match cache_dir with
  | None -> trace ()
  | Some dir ->
    let key = Cache.shard_key ~provenance config w in
    (match Cache.find dir key (Daikon.Engine.decode ~config) with
     | Some shard ->
       Obs.Metrics.incr c_cache_hit;
       shard
     | None ->
       Obs.Metrics.incr c_cache_miss;
       let shard = trace () in
       Cache.store dir key (Daikon.Engine.encode shard);
       shard)

(* ---- Summaries: one payload codec for the corpus and the lake ----

   A warm [mine] over an unchanged corpus, or a warm [Session.mine_lake]
   over an unchanged lake, should not pay for merging and re-extracting
   invariants either, so the full mining result (Figure 3 rows, record
   count, trace bytes, coverage, and the invariant set in the
   {!Invariant.Io} text grammar) is a cache entry too: a [summary-]
   entry for the corpus, and the head of a [lake-] entry, whose tail is
   the lake's final engine. *)

(* A corpus summary folds in every shard key in corpus order plus the
   group structure and labels, so any change to config, codec, images,
   grouping or labelling misses. *)
let summary_key ~config ~groups ~labels =
  Cache.key ~kind:"summary" ~provenance:false config (fun b ->
      List.iter2
        (fun group label ->
           Buffer.add_string b ("[" ^ label ^ "]");
           List.iter
             (fun w ->
                Buffer.add_string b
                  (Cache.shard_key ~provenance:false config w ^ ";"))
             group)
        groups labels)

(* A lake entry folds in every segment's per-block MD5 digests (readable
   from the frame headers without decoding a single payload), so
   touching any byte of the lake — appending a block, replacing a
   segment — misses positively. *)
let lake_key ~config segments =
  Cache.key ~kind:"lake" ~provenance:false config (fun b ->
      List.iter
        (fun path ->
           Buffer.add_string b (Filename.basename path);
           Buffer.add_char b ':';
           List.iter (Buffer.add_string b) (Trace.Segment.block_digests path);
           Buffer.add_char b ';')
        segments)

(* The summary fields, then — in a lake entry — the engine snapshot. *)
let encode_summary ?engine (m : mining) =
  let p = Util.Binio.writer () in
  Util.Binio.write_uint p (List.length m.figure3);
  List.iter
    (fun r ->
       Util.Binio.write_string p r.group_label;
       Util.Binio.write_uint p r.unmodified;
       Util.Binio.write_uint p r.fresh;
       Util.Binio.write_uint p r.deleted;
       Util.Binio.write_uint p r.total)
    m.figure3;
  Util.Binio.write_uint p m.record_count;
  Util.Binio.write_uint p m.trace_bytes;
  Util.Binio.write_uint p (List.length m.mnemonic_coverage);
  List.iter (Util.Binio.write_string p) m.mnemonic_coverage;
  Util.Binio.write_string p
    (String.concat "\n" (List.map Expr.to_string m.invariants));
  Option.iter
    (fun e -> Util.Binio.write_string p (Daikon.Engine.encode e))
    engine;
  Util.Binio.contents p

(* Reads exactly [n] values in order (the polymorphic list builders in
   the stdlib leave evaluation order unspecified, which matters when [f]
   advances a cursor). *)
let read_seq n f =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f () :: acc) in
  go n []

(* The summary fields off [p], leaving it at the lake entry's engine. *)
let decode_summary p =
  let figure3 =
    read_seq (Util.Binio.read_uint p) (fun () ->
        let group_label = Util.Binio.read_string p in
        let unmodified = Util.Binio.read_uint p in
        let fresh = Util.Binio.read_uint p in
        let deleted = Util.Binio.read_uint p in
        let total = Util.Binio.read_uint p in
        { group_label; unmodified; fresh; deleted; total })
  in
  let record_count = Util.Binio.read_uint p in
  let trace_bytes = Util.Binio.read_uint p in
  let mnemonic_coverage =
    read_seq (Util.Binio.read_uint p) (fun () -> Util.Binio.read_string p)
  in
  let invariants = Invariant.Io.of_string (Util.Binio.read_string p) in
  { invariants; figure3; record_count; trace_bytes; mnemonic_coverage;
    prov = None; seconds = 0.0 }

let missing_mnemonics engine =
  let seen = Hashtbl.create 97 in
  List.iter (fun p -> Hashtbl.replace seen p ()) (Daikon.Engine.points engine);
  List.filter (fun m -> not (Hashtbl.mem seen m)) Isa.Insn.all_mnemonics

(* The flight-recorder readout, when mining ran with provenance. *)
let prov_report ~provenance engine invariants =
  if not provenance then None
  else
    Some
      { deaths = Daikon.Engine.deaths engine;
        deaths_dropped = Daikon.Engine.deaths_dropped engine;
        death_families = Daikon.Engine.death_families engine;
        witnesses =
          List.filter_map
            (fun i ->
               Option.map (fun w -> (i, w))
                 (Daikon.Engine.narrow_witness engine i))
            invariants }

(* One Figure 3 row: diff the current per-point keys against those of
   the previous row, both in point-name order. A point whose array is
   physically the previous one has not moved, so all of it is
   unmodified; any other pair of arrays is walked in step. A point
   missing from one side counts as empty there. *)
let fig3_row ~previous ~label current =
  let unmodified = ref 0 and fresh = ref 0 and deleted = ref 0 in
  let diff old now =
    let shared =
      if old == now then Array.length now
      else begin
        let rec walk i j acc =
          if i = Array.length old || j = Array.length now then acc
          else
            let c = String.compare old.(i) now.(j) in
            if c = 0 then walk (i + 1) (j + 1) (acc + 1)
            else if c < 0 then walk (i + 1) j acc
            else walk i (j + 1) acc
        in
        walk 0 0 0
      end
    in
    unmodified := !unmodified + shared;
    fresh := !fresh + Array.length now - shared;
    deleted := !deleted + Array.length old - shared
  in
  let rec points prev cur =
    match prev, cur with
    | [], [] -> ()
    | (_, old) :: prev, [] -> diff old [||]; points prev []
    | [], (_, now) :: cur -> diff [||] now; points [] cur
    | (p, old) :: prev', (q, now) :: cur' ->
      let c = String.compare p q in
      if c = 0 then (diff old now; points prev' cur')
      else if c < 0 then (diff old [||]; points prev' cur)
      else (diff [||] now; points prev cur')
  in
  points previous current;
  { group_label = label;
    unmodified = !unmodified;
    fresh = !fresh;
    deleted = !deleted;
    total = !unmodified + !fresh }

(* A timed shard merge, feeding the merge-cost counters. *)
let absorb_shard engine shard =
  let m0 = Obs.Clock.now_ns () in
  Daikon.Engine.merge_into engine shard;
  Obs.Metrics.add c_merge_ns (Int64.to_int (Obs.Clock.ns_since m0));
  Obs.Metrics.incr c_merges

(* Replay one shard-plan span of a lake segment into [engine], block by
   block. Scratch decode is safe here: the engine copies the values it
   keeps at observation, so nothing aliases the recycled rows past the
   fold. *)
let replay_span_into engine (sp : Trace.Segment.span) =
  let (), info =
    Obs.Span.with_ ~name:"lake.replay"
      ~attrs:
        [ ("segment", Obs.Sink.S (Filename.basename sp.Trace.Segment.sp_path));
          ("first_block", Obs.Sink.I sp.Trace.Segment.sp_first);
          ("last_block", Obs.Sink.I sp.Trace.Segment.sp_last) ]
      (fun () ->
         Trace.Segment.fold_range
           ~on_workload:(Daikon.Engine.set_workload engine)
           ~scratch:(Trace.Segment.scratch ())
           ~first_block:sp.Trace.Segment.sp_first
           ~last_block:sp.Trace.Segment.sp_last
           ~init:()
           ~f:(fun () r -> Daikon.Engine.observe engine r)
           sp.Trace.Segment.sp_path)
  in
  info

(* The one shard-or-fold rule of phase 1, for workloads and lake spans
   alike. Without a pool, consuming unit [i] folds it straight into
   [engine] — the paper's sequential setup and the byte-identity
   reference. With one, every unit first folds into its own shard
   engine on a pool of [jobs] domains, and consuming unit [i] merges
   shard [i] into [engine]. Callers consume units in order, so the
   merge order — and every extracted invariant set — does not depend on
   how the domains interleaved or which shards came from a cache. *)
let fold_plan ~pool ~jobs engine ~fold_into ~shard units =
  if not pool then fun i -> fold_into engine units.(i)
  else begin
    (* Capture the submitting span here and re-install it around each
       task, so shard spans parent correctly even when they close on a
       pool domain whose own span stack is empty. *)
    let parent = Obs.Span.current () in
    let shards =
      Util.Parallel.map
        ~wrap:(fun th -> Obs.Span.with_context parent th)
        ~jobs shard units
    in
    fun i ->
      let s, info = shards.(i) in
      absorb_shard engine s;
      info
  end

(* ---- Sessions: every phase-1 mining run goes through one.

   A session owns one engine plus the Figure 3 diff state and remembers
   every source it absorbed (workloads for re-streaming, lake dirs for
   re-folding) so imported invariants can later be checked against its
   corpus. [scifinder serve] holds one per client; the batch entry
   points below each run a fresh one. *)

module Session = struct
  type source =
    | Src_workload of Workloads.Rt.t
    | Src_lake of string

  type t = {
    config : Daikon.Config.t;
    provenance : bool;
    jobs : int;
    cache_dir : string option;
    mutable engine : Daikon.Engine.t;
    (* Each point's keys at the last row, in point-name order. *)
    mutable previous : (string * string array) list;
    mutable sources : source list;  (* newest first *)
  }

  let create ?(config = Daikon.Config.default) ?(jobs = 1)
      ?(provenance = false) ?cache_dir () =
    { config; provenance; jobs; cache_dir;
      engine = Daikon.Engine.create ~config ~provenance ();
      previous = [];
      sources = [] }

  let record_count t = Daikon.Engine.record_count t.engine
  let invariants t = Daikon.Engine.invariants t.engine

  let workloads t =
    List.filter_map
      (function Src_workload w -> Some w | Src_lake _ -> None)
      (List.rev t.sources)

  let source_count t = List.length t.sources

  (* The mining result over the session engine, for a call that added
     [records] records. *)
  let result t ~figure3 ~records ~trace_bytes =
    let invariants = invariants t in
    { invariants; figure3; record_count = records; trace_bytes;
      mnemonic_coverage = missing_mnemonics t.engine;
      prov = prov_report ~provenance:t.provenance t.engine invariants;
      seconds = 0.0 }

  let snapshot_row t ~label =
    let current = Daikon.Engine.point_keys t.engine in
    let row = fig3_row ~previous:t.previous ~label current in
    t.previous <- current;
    Obs.Metrics.add c_mine_fresh row.fresh;
    Obs.Metrics.add c_mine_deleted row.deleted;
    row

  (* Absorb the groups in order, snapshotting a Figure 3 row after each
     group that carries a label; an unlabelled group skips extraction
     and leaves [previous] alone, so the next row diffs against the last
     one a caller asked for. Workloads stream straight into the session
     engine at [jobs <= 1] with no cache; anything else mines
     per-workload shards (hitting the shard cache) and merges them in
     submission order. *)
  let absorb_groups t groups =
    let before = record_count t in
    let absorb =
      fold_plan ~pool:(t.jobs > 1 || t.cache_dir <> None) ~jobs:t.jobs
        t.engine ~fold_into:trace_workload_into
        ~shard:(fun w ->
            ( mine_shard ~config:t.config ~provenance:t.provenance
                ~cache_dir:t.cache_dir w,
              () ))
        (Array.of_list (List.concat_map snd groups))
    in
    let idx = ref 0 in
    let rows =
      List.fold_left
        (fun rows (label, group) ->
           List.iter
             (fun w ->
                absorb !idx;
                incr idx;
                t.sources <- Src_workload w :: t.sources)
             group;
           match label with
           | Some label -> snapshot_row t ~label :: rows
           | None -> rows)
        [] groups
    in
    Obs.Metrics.add c_mine_records (record_count t - before);
    List.rev rows

  let mine_groups t ~labels groups =
    absorb_groups t (List.map2 (fun l g -> (Some l, g)) labels groups)

  type outcome = {
    o_rows : figure3_row list;  (* [] when the caller skipped the diff *)
    o_records : int;            (* records this call added *)
  }

  let default_label ws =
    String.concat "+" (List.map (fun w -> w.Workloads.Rt.name) ws)

  let mine t ?label ?(row = true) ws =
    let before = record_count t in
    let label =
      match label with
      | _ when not row -> None
      | Some _ -> label
      | None -> Some (default_label ws)
    in
    let o_rows = absorb_groups t [ (label, ws) ] in
    { o_rows; o_records = record_count t - before }

  (* Fold the lake's segments into the session engine, one Figure 3 row
     per segment; returns the rows and the on-disk bytes read. The
     replay follows [fold_plan] over byte-balanced block spans: at
     [jobs] 1 each segment is one span folded straight into the session
     engine; above, spans fold into shard engines on the pool and merge
     in span order — [merge_into] is an exact join and blocks are
     self-contained, so the engine is byte-identical (canonical
     SCIFSNAP) either way. Provenance replays stay at [jobs] 1: the
     death ring is an eviction-lossy trace whose order is part of its
     meaning. *)
  let replay_lake t segments =
    let jobs = if t.provenance then 1 else t.jobs in
    let spans = Array.of_list (Trace.Segment.shard_spans ~jobs segments) in
    let replay =
      fold_plan ~pool:(jobs > 1) ~jobs t.engine ~fold_into:replay_span_into
        ~shard:(fun sp ->
            let shard = Daikon.Engine.create ~config:t.config () in
            (shard, replay_span_into shard sp))
        spans
    in
    let rows = ref [] and bytes = ref 0 and seg_workloads = ref [] in
    Array.iteri
      (fun i (sp : Trace.Segment.span) ->
         let info = replay i in
         bytes := !bytes + info.Trace.Segment.bytes;
         List.iter
           (fun w ->
              if not (List.mem w !seg_workloads) then
                seg_workloads := w :: !seg_workloads)
           info.Trace.Segment.workloads;
         (* Snapshot when the next span (or the end) leaves the segment;
            the label is the segment's distinct workloads in
            first-appearance order. *)
         if
           i + 1 = Array.length spans
           || not (String.equal spans.(i + 1).sp_path sp.sp_path)
         then begin
           let label = String.concat "+" (List.rev !seg_workloads) in
           rows := snapshot_row t ~label :: !rows;
           seg_workloads := []
         end)
      spans;
    (List.rev !rows, !bytes)

  let mine_lake t dir =
    let segments = Trace.Segment.lake_segments dir in
    if segments = [] then
      invalid_arg ("Pipeline.Session.mine_lake: no segments under " ^ dir);
    let before = record_count t in
    (* The lake cache serves fresh, provenance-free sessions: a warm hit
       adopts the cached engine whole — snapshot bytes are canonical, so
       this is bit-identical to folding every segment again. A session
       already holding state folds live (merging would perturb the
       sequential byte identity), and summaries carry no provenance. *)
    let cache =
      match t.cache_dir with
      | Some dir when before = 0 && t.sources = [] && not t.provenance ->
        Some (dir, lake_key ~config:t.config segments)
      | _ -> None
    in
    let warm =
      Option.bind cache (fun (dir, key) ->
          match
            Cache.find dir key (fun payload ->
                let p = Util.Binio.reader payload in
                let m = decode_summary p in
                (m, Daikon.Engine.decode ~config:t.config
                      (Util.Binio.read_string p)))
          with
          | Some (m, engine) ->
            Obs.Metrics.incr c_summary_hit;
            t.engine <- engine;
            t.previous <- keys_by_point m.invariants;
            Some m
          | None ->
            Obs.Metrics.incr c_summary_miss;
            None)
    in
    let m =
      match warm with
      | Some m -> m
      | None ->
        let figure3, trace_bytes = replay_lake t segments in
        let records = record_count t - before in
        Obs.Metrics.add c_mine_records records;
        let m = result t ~figure3 ~records ~trace_bytes in
        Option.iter
          (fun (dir, key) ->
             Cache.store dir key (encode_summary ~engine:t.engine m))
          cache;
        m
    in
    t.sources <- Src_lake dir :: t.sources;
    m

  type check_status = Supported | Violated | Vacuous

  let check_status_name = function
    | Supported -> "supported"
    | Violated -> "violated"
    | Vacuous -> "vacuous"

  (* Validate imported invariants against everything this session has
     absorbed, re-streaming workloads and re-folding lake segments (the
     engine keeps no trace). One pass over the corpus: each record is
     dispatched to the candidates of its program point only. *)
  let check t invs =
    Obs.Span.with_ ~name:"session.check"
      ~attrs:[ ("invariants", Obs.Sink.I (List.length invs)) ]
      (fun () ->
         let arr = Array.of_list invs in
         let n = Array.length arr in
         let seen = Array.make (max n 1) false in
         let violated = Array.make (max n 1) false in
         let by_point = Hashtbl.create 97 in
         Array.iteri
           (fun i (inv : Expr.t) ->
              let prev =
                Option.value ~default:[]
                  (Hashtbl.find_opt by_point inv.point)
              in
              Hashtbl.replace by_point inv.point (i :: prev))
           arr;
         let observe (r : Trace.Record.t) =
           match Hashtbl.find_opt by_point r.Trace.Record.point with
           | None -> ()
           | Some idxs ->
             List.iter
               (fun i ->
                  seen.(i) <- true;
                  if (not violated.(i)) && Expr.violated_here arr.(i) r then
                    violated.(i) <- true)
               idxs
         in
         List.iter
           (function
             | Src_workload (w : Workloads.Rt.t) ->
               ignore
                 (Trace.Runner.stream ~tick_period:w.tick_period
                    ~entry:w.entry ~observer:observe w.image)
             | Src_lake dir ->
               List.iter
                 (fun path ->
                    ignore
                      (Trace.Segment.fold ~init:()
                         ~f:(fun () r -> observe r) path))
                 (Trace.Segment.lake_segments dir))
           (List.rev t.sources);
         Array.to_list
           (Array.mapi
              (fun i inv ->
                 ( inv,
                   if not seen.(i) then Vacuous
                   else if violated.(i) then Violated
                   else Supported ))
              arr))

  let encode t = Daikon.Engine.encode t.engine

  let engine_digest t = Digest.to_hex (Digest.string (encode t))

  let save t path = Daikon.Engine.save t.engine path
end

let mine ?(config = Daikon.Config.default)
    ?(workloads = Workloads.Suite.all)
    ?(groups = Workloads.Suite.figure3_groups)
    ?(labels = Workloads.Suite.figure3_labels)
    ?(jobs = Util.Parallel.default_jobs ())
    ?(provenance = false)
    ?cache_dir
    () =
  let groups = List.map (List.map (resolve_exn ~workloads)) groups in
  let body () =
    (* A summary stores no provenance, so a provenance run only uses the
       shard-level cache (whose key carries the marker). *)
    let cache =
      match cache_dir with
      | Some dir when not provenance ->
        Some (dir, summary_key ~config ~groups ~labels)
      | _ -> None
    in
    match
      Option.bind cache (fun (dir, key) ->
          Cache.find dir key (fun payload ->
              decode_summary (Util.Binio.reader payload)))
    with
    | Some m ->
      Obs.Metrics.incr c_summary_hit;
      m
    | None ->
      if cache <> None then Obs.Metrics.incr c_summary_miss;
      let s = Session.create ~config ~jobs ~provenance ?cache_dir () in
      let figure3 = Session.mine_groups s ~labels groups in
      let records = Session.record_count s in
      publish_engine_stats s.Session.engine;
      let m =
        Session.result s ~figure3 ~records
          ~trace_bytes:(records * Trace.Var.total * 8)
      in
      Option.iter
        (fun (dir, key) -> Cache.store dir key (encode_summary m))
        cache;
      m
  in
  let r, seconds =
    Obs.Span.timed ~name:"pipeline.mine"
      ~attrs:[ ("jobs", Obs.Sink.I jobs) ] body
  in
  { r with seconds }

let mine_invariants ?(config = Daikon.Config.default)
    ?(jobs = Util.Parallel.default_jobs ()) ?(provenance = false) ?cache_dir
    ?names () =
  let names = match names with None -> Workloads.Suite.names | Some l -> l in
  let ws = List.map (resolve_exn ~workloads:[]) names in
  Obs.Span.with_ ~name:"pipeline.mine"
    ~attrs:[ ("jobs", Obs.Sink.I jobs) ]
    (fun () ->
       let s = Session.create ~config ~jobs ~provenance ?cache_dir () in
       ignore (Session.mine s ~row:false ws);
       publish_engine_stats s.Session.engine;
       Session.invariants s)

(* ---- The trace lake: durable on-disk segments (ROADMAP item 2) ----

   [record_lake] streams workload traces straight into append-only
   SCIFSEG files (one per workload, named safely via [Util.Fsname]);
   [mine_lake] folds every segment of a lake directory through one
   engine, block by block — out-of-core on both sides, and bit-identical
   to mining the same workload sequence live. *)

type lake_stats = {
  lake_segments : int;
  lake_records : int;
  lake_bytes : int;
  lake_seconds : float;
}

let record_lake ?(workloads = []) ?names ?(jobs = 1) ~dir () =
  let names = match names with None -> Workloads.Suite.names | Some l -> l in
  let ws = List.map (resolve_exn ~workloads) names in
  (* Each workload appends to its own segment file, so recording
     parallelizes across workloads — except when a name repeats: two
     writers appending the same file would interleave half-built
     blocks, so duplicates fall back to the sequential path, where
     appends compose. *)
  let jobs =
    if List.length (List.sort_uniq String.compare names) = List.length names
    then jobs
    else 1
  in
  let r, lake_seconds =
    Obs.Span.timed ~name:"lake.record"
      ~attrs:
        [ ("segments", Obs.Sink.I (List.length ws));
          ("jobs", Obs.Sink.I jobs) ]
      (fun () ->
         Cache.mkdir_p dir;
         let parent = Obs.Span.current () in
         let per_workload =
           Util.Parallel.map
             ~wrap:(fun th -> Obs.Span.with_context parent th)
             ~jobs
             (fun (w : Workloads.Rt.t) ->
                let path = Trace.Segment.segment_path ~dir ~workload:w.name in
                let records =
                  Trace.Segment.with_writer ~workload:w.name path (fun sw ->
                      ignore
                        (Trace.Runner.stream_to_segment
                           ~tick_period:w.tick_period ~entry:w.entry
                           ~writer:sw w.image);
                      Trace.Segment.written sw)
                in
                let bytes =
                  try (Unix.stat path).Unix.st_size
                  with Unix.Unix_error _ ->
                    (* A segment we just wrote but cannot stat back is
                       worth surfacing: count the skip instead of
                       silently folding a zero into the total. *)
                    Obs.Metrics.incr c_lake_stat_errors;
                    0
                in
                (records, bytes))
             (Array.of_list ws)
         in
         let records = Array.fold_left (fun a (r, _) -> a + r) 0 per_workload in
         let bytes = Array.fold_left (fun a (_, b) -> a + b) 0 per_workload in
         { lake_segments = List.length ws;
           lake_records = records;
           lake_bytes = bytes;
           lake_seconds = 0.0 })
  in
  { r with lake_seconds }

let mine_lake ?(config = Daikon.Config.default) ?(provenance = false)
    ?(jobs = 1) ?cache_dir dir =
  let segments = Trace.Segment.lake_segments dir in
  if segments = [] then
    invalid_arg ("Pipeline.mine_lake: no segments under " ^ dir);
  let body () =
    let s = Session.create ~config ~provenance ~jobs ?cache_dir () in
    let m = Session.mine_lake s dir in
    publish_engine_stats s.Session.engine;
    m
  in
  let r, seconds =
    Obs.Span.timed ~name:"pipeline.mine"
      ~attrs:[ ("source", Obs.Sink.S "lake"); ("jobs", Obs.Sink.I jobs) ]
      body
  in
  { r with seconds }

(* ---- §3.2: optimisation (Table 2) ---- *)

type optimization = {
  result : Invopt.Pipeline.result;
  opt_seconds : float;
}

let optimize invariants =
  let result, opt_seconds =
    Obs.Span.timed ~name:"pipeline.optimize"
      ~attrs:[ ("invariants_in", Obs.Sink.I (List.length invariants)) ]
      (fun () -> Invopt.Pipeline.optimize invariants)
  in
  Obs.Metrics.set
    (Obs.Metrics.gauge "optimize.invariants_out")
    (float_of_int (List.length result.Invopt.Pipeline.optimized));
  { result; opt_seconds }

(* ---- Phase 3: identification (Table 3) ---- *)

type identification = {
  summary : Sci.Identify.summary;
  ident_seconds : float;
}

let identify ~invariants bug_list =
  let summary, ident_seconds =
    Obs.Span.timed ~name:"pipeline.identify"
      ~attrs:[ ("bugs", Obs.Sink.I (List.length bug_list)) ]
      (fun () -> Sci.Identify.run_all ~invariants bug_list)
  in
  Obs.Metrics.set
    (Obs.Metrics.gauge "identify.unique_sci")
    (float_of_int (List.length summary.Sci.Identify.unique_sci));
  Obs.Metrics.set
    (Obs.Metrics.gauge "identify.unique_fp")
    (float_of_int (List.length summary.Sci.Identify.unique_fp));
  { summary; ident_seconds }

(* ---- Phase 4: inference (§3.4, §5.3; Tables 4 and 5, Figure 4) ---- *)

type inference = {
  space : Invariant.Feature.space;
  model : Ml.Logreg.model;
  chosen_lambda : float;
  cv_accuracy : float;
  cv_table : (float * float) list;
  test_accuracy : float;
  labeled_sci : int;
  labeled_non_sci : int;
  selected_features : (string * float) list; (* Table 4 *)
  recommended : Expr.t list;
  inferred_fp : Expr.t list;
  surviving : Expr.t list;
  property_count : int;                      (* Table 5's rightmost column *)
  pca_points : (float array * int) list;     (* (PC1/PC2, 1 = SC) *)
  pca_separation : float;
  infer_seconds : float;
}

let infer ?(seed = 20170408) ?(alpha = 0.5) ~all_invariants
    (summary : Sci.Identify.summary) =
  let body () =
  let space = Invariant.Feature.build_space all_invariants in
  let sci = summary.Sci.Identify.unique_sci in
  let non_sci_all = summary.Sci.Identify.unique_fp in
  (* Balance the classes as the paper's near-even 54/48 labels were. *)
  let rng = Util.Prng.create seed in
  let non_arr = Array.of_list non_sci_all in
  Util.Prng.shuffle rng non_arr;
  let n_non = min (Array.length non_arr) (List.length sci) in
  let non_sci = Array.to_list (Array.sub non_arr 0 (max 1 n_non)) in
  (* y = 1 for non-security-critical (the paper models pi = P(non-SC)). *)
  let labeled =
    List.map (fun i -> (i, 0.0)) sci @ List.map (fun i -> (i, 1.0)) non_sci
  in
  let labeled = Array.of_list labeled in
  Util.Prng.shuffle rng labeled;
  let n = Array.length labeled in
  let n_train = max 2 (n * 7 / 10) in
  let to_xy arr =
    let x = Ml.Matrix.of_rows
        (Array.to_list (Array.map (fun (i, _) -> Invariant.Feature.vector space i) arr))
    and y = Array.map snd arr in
    (x, y)
  in
  let train = Array.sub labeled 0 n_train in
  let test = Array.sub labeled n_train (n - n_train) in
  let x_train, y_train = to_xy train in
  let x_test, y_test = to_xy test in
  (* alpha = 0.5, 3-fold CV to choose lambda (§5.3). glmnet practice: take
     the sparsest lambda whose CV accuracy is within one standard error of
     the best (the lambda.1se rule), which is what gives the paper its 24
     non-zero coefficients out of 158. *)
  let _best_lambda, best_acc, table =
    Ml.Logreg.cross_validate ~alpha ~folds:3 ~seed x_train y_train
  in
  let chosen_lambda, cv_accuracy =
    List.fold_left
      (fun (bl, ba) (l, a) ->
         if a >= best_acc -. 0.01 && l > bl then (l, a) else (bl, ba))
      (0.0, 0.0) table
  in
  let model = Ml.Logreg.fit ~alpha ~lambda:chosen_lambda x_train y_train in
  let test_accuracy =
    if Array.length test = 0 then 1.0 else Ml.Logreg.accuracy model x_test y_test
  in
  (* Refit on all labeled data for deployment, as glmnet users do. *)
  let x_all, y_all = to_xy labeled in
  let model = Ml.Logreg.fit ~alpha ~lambda:chosen_lambda x_all y_all in
  let selected_features =
    List.map
      (fun (j, beta) -> (Invariant.Feature.feature_name space j, beta))
      (Ml.Logreg.nonzero_features model)
  in
  (* Predict the unlabeled remainder: p < 0.5 means security critical. *)
  let labeled_keys = Hashtbl.create 1024 in
  Array.iter
    (fun (i, _) -> Hashtbl.replace labeled_keys (Expr.canonical i) ())
    labeled;
  List.iter
    (fun i -> Hashtbl.replace labeled_keys (Expr.canonical i) ())
    non_sci_all;
  let unlabeled =
    List.filter
      (fun i -> not (Hashtbl.mem labeled_keys (Expr.canonical i)))
      all_invariants
  in
  let recommended =
    List.filter
      (fun i ->
         Ml.Logreg.predict_proba model (Invariant.Feature.vector space i) < 0.5)
      unlabeled
  in
  (* Expert validation of the recommendations (§5.7's manual pass). *)
  let surviving, inferred_fp = Oracle.validate recommended in
  let property_count = Shape.class_count surviving in
  (* Figure 4: PCA over the labeled invariants on the selected features
     (the paper used its 24 non-zero-coefficient features; we take the 24
     largest coefficients by magnitude when more survive). *)
  let selected_idx =
    selected_features
    |> List.sort (fun (_, a) (_, b) -> compare (Float.abs b) (Float.abs a))
    |> List.filteri (fun i _ -> i < 24)
    |> List.map
      (fun (name, _) ->
         match Hashtbl.find_opt space.Invariant.Feature.index name with
         | Some j -> j
         | None -> assert false)
  in
  let pca_points, pca_separation =
    if selected_idx = [] || Array.length labeled < 4 then ([], 0.0)
    else begin
      let reduce row = Array.of_list (List.map (fun j -> row.(j)) selected_idx) in
      let rows =
        Array.to_list
          (Array.map
             (fun (i, _) -> reduce (Invariant.Feature.vector space i))
             labeled)
      in
      let x = Ml.Matrix.of_rows rows in
      let pca = Ml.Pca.fit ~k:2 x in
      let points =
        List.mapi
          (fun idx row ->
             let _, y = labeled.(idx) in
             (Ml.Pca.project pca row, if y = 0.0 then 1 else 0))
          rows
      in
      let sep =
        Ml.Pca.separation (List.map fst points) (List.map snd points)
      in
      (points, sep)
    end
  in
  Obs.Metrics.set
    (Obs.Metrics.gauge "infer.recommended")
    (float_of_int (List.length recommended));
  Obs.Metrics.set
    (Obs.Metrics.gauge "infer.surviving")
    (float_of_int (List.length surviving));
  { space; model; chosen_lambda; cv_accuracy; cv_table = table;
    test_accuracy;
    labeled_sci = List.length sci;
    labeled_non_sci = List.length non_sci;
    selected_features;
    recommended; inferred_fp; surviving; property_count;
    pca_points; pca_separation;
    infer_seconds = 0.0 }
  in
  let r, infer_seconds =
    Obs.Span.timed ~name:"pipeline.infer"
      ~attrs:[ ("invariants", Obs.Sink.I (List.length all_invariants)) ]
      body
  in
  { r with infer_seconds }

(* ---- The mutant-at-scale campaign (LASHED-style evaluation) ----

   The 17 reproduced Table 1 bugs are the ground truth the pipeline is
   built on; the campaign asks how the same SCI battery fares against
   hundreds of *generated* semantic mutants it has never seen, driven by
   fuzz-generated trigger programs (PR 4's generator). Detection follows
   the §5.6 discipline: an assertion that already fires on the clean run
   of a trigger detects nothing, so each mutant must fire an assertion
   outside its trigger's clean-run set. The compiled monitor's
   short-circuit scan gives detection latency (in retired instructions)
   for free. *)

type mutant_outcome = {
  mutant : Bugs.Mutant.t;
  trigger : string;    (* the detecting trigger, or the last one tried *)
  detected : bool;
  latency : int;       (* first-firing record index; -1 when undetected *)
  assertion : string option;  (* the detecting assertion's battery name *)
}

type campaign_class = {
  class_name : string;
  class_total : int;
  class_detected : int;
  class_mean_latency : float;   (* over detected mutants; nan when none *)
  class_fp_rate : float;
      (* fraction of the class's primary triggers whose clean run fires *)
}

type campaign = {
  camp_seed : int;
  mutant_total : int;
  detected_total : int;
  trigger_count : int;
  fp_trigger_count : int;  (* triggers whose clean run fires the battery *)
  outcomes : mutant_outcome list;
  classes : campaign_class list;
  fingerprint : string;    (* digest of the outcome list: determinism key *)
  camp_seconds : float;
}

let campaign ?(seed = 42) ?(mutants = 200) ?(triggers = 48) ?(tries = 3)
    ~sci () =
  let body () =
    let battery = Assertions.Ovl.of_invariants sci in
    let compiled = Assertions.Compile.compile battery in
    (* Every trigger run, clean or mutant, resets this one machine and
       streams its records straight into the battery. It is local to the
       call: campaigns run on several domains at once. *)
    let machine = Cpu.Machine.create () in
    let source ?fault w emit =
      Sci.Identify.stream_trigger ~machine ?fault w ~observer:emit
    in
    (* Shared trigger pool: each clean run's fired-assertion mask is
       computed once and reused across every mutant. *)
    let pool =
      Array.init triggers (fun index ->
          let w = Fuzz.Gen.candidate ~seed ~index in
          let fired = Assertions.Compile.fired_set_of compiled (source w) in
          (w, fired, Array.exists Fun.id fired))
    in
    let fp_trigger_count =
      Array.fold_left (fun n (_, _, fp) -> if fp then n + 1 else n) 0 pool
    in
    let outcomes =
      List.mapi
        (fun i (m : Bugs.Mutant.t) ->
           let rec attempt j =
             let w, clean_fired, _ = pool.((i + (j * 17)) mod triggers) in
             if j >= tries then
               { mutant = m; trigger = w.Workloads.Rt.name;
                 detected = false; latency = -1; assertion = None }
             else begin
               (* The mutant's run stops at its first live firing. *)
               match
                 Assertions.Compile.first_firing_of ~ignore:clean_fired
                   compiled (source ~fault:m.Bugs.Mutant.fault w)
               with
               | Some f ->
                 { mutant = m; trigger = w.Workloads.Rt.name;
                   detected = true; latency = f.Assertions.Monitor.step;
                   assertion =
                     Some f.Assertions.Monitor.assertion.Assertions.Ovl.name }
               | None -> attempt (j + 1)
             end
           in
           attempt 0)
        (Bugs.Mutant.generate ~seed ~count:mutants)
    in
    let classes =
      List.map
        (fun cat ->
           let mine =
             List.filter
               (fun o -> o.mutant.Bugs.Mutant.category = cat)
               outcomes
           in
           let det = List.filter (fun o -> o.detected) mine in
           let mean_latency =
             match det with
             | [] -> Float.nan
             | _ ->
               float_of_int
                 (List.fold_left (fun s o -> s + o.latency) 0 det)
               /. float_of_int (List.length det)
           in
           let fp =
             (* primary trigger of mutant i is pool.(i mod triggers) *)
             List.fold_left (fun n o ->
                 let i = int_of_string
                     (String.sub o.mutant.Bugs.Mutant.id 1
                        (String.length o.mutant.Bugs.Mutant.id - 1)) in
                 let _, _, clean_fp = pool.(i mod triggers) in
                 if clean_fp then n + 1 else n)
               0 mine
           in
           { class_name = Bugs.Registry.category_name cat;
             class_total = List.length mine;
             class_detected = List.length det;
             class_mean_latency = mean_latency;
             class_fp_rate =
               (if mine = [] then 0.0
                else float_of_int fp /. float_of_int (List.length mine)) })
        [ Bugs.Registry.Cf; Bugs.Registry.Xr; Bugs.Registry.Ma;
          Bugs.Registry.Ie; Bugs.Registry.Cr; Bugs.Registry.Ru ]
    in
    let fingerprint =
      outcomes
      |> List.map (fun o ->
             Printf.sprintf "%s:%s:%s:%b:%d" o.mutant.Bugs.Mutant.id
               (Bugs.Registry.category_name o.mutant.Bugs.Mutant.category)
               o.trigger o.detected o.latency)
      |> String.concat "\n"
      |> Digest.string |> Digest.to_hex
    in
    { camp_seed = seed;
      mutant_total = mutants;
      detected_total =
        List.length (List.filter (fun o -> o.detected) outcomes);
      trigger_count = triggers;
      fp_trigger_count;
      outcomes; classes; fingerprint;
      camp_seconds = 0.0 }
  in
  let r, camp_seconds =
    Obs.Span.timed ~name:"pipeline.campaign"
      ~attrs:[ ("mutants", Obs.Sink.I mutants);
               ("triggers", Obs.Sink.I triggers) ]
      body
  in
  Obs.Metrics.set
    (Obs.Metrics.gauge "campaign.mutants") (float_of_int r.mutant_total);
  Obs.Metrics.set
    (Obs.Metrics.gauge "campaign.detected") (float_of_int r.detected_total);
  Obs.Metrics.set
    (Obs.Metrics.gauge "campaign.fp_triggers")
    (float_of_int r.fp_trigger_count);
  { r with camp_seconds }
