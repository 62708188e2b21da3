(* The on-disk trace lake: compact columnar segments of fused trace
   records, the durable analogue of the paper's 26 GB trace corpus.

   A segment file is a sequence of self-contained blocks, each framed
   for append-only writing and torn-tail detection:

     "SCIFSEG"             7-byte magic
     version               1 byte
     digest                16-byte MD5 of the payload
     payload length        4-byte big-endian
     payload               [length] bytes, Binio-encoded

   The fixed-width frame means the reader touches one block at a time
   through a channel — out-of-core by construction — and any torn tail
   (a crash mid-append) or bit damage surfaces as [Corrupt_segment], in
   the style of the SCIFSNAP snapshot codec. The next writer cuts a torn
   tail before it appends ([cut_torn_tail]).

   The payload is columnar: the block's records are transposed so each
   of the [Var.total] variables becomes one contiguous varint stream.
   Post-state dual columns are delta-encoded against the same record's
   pre-state (most instructions change almost nothing, so the deltas are
   overwhelmingly zero); every other column is delta-encoded against the
   previous record in the block (program counters advance by 4, loop
   registers step by small strides). Program points are interned per
   block with their applicability masks, so each record costs one small
   point index plus its value deltas.

   Blocks are independent — deltas reset at block boundaries — so
   concatenating segment files (or appending to one) is itself a valid
   segment, which is how a lake replicates a corpus without
   re-simulation. *)

exception Corrupt_segment of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt_segment s)) fmt

let magic = "SCIFSEG"
let version = 1
let header_len = 7 + 1 + 16 + 4
let default_records_per_block = 1024

let c_records_written = Obs.Metrics.counter "lake.records_written"
let c_bytes_written = Obs.Metrics.counter "lake.bytes_written"
let c_records_read = Obs.Metrics.counter "lake.records_read"
let c_blocks_read = Obs.Metrics.counter "lake.blocks_read"
let c_torn_tails_cut = Obs.Metrics.counter "lake.torn_tails_cut"

(* ---- applicability masks, packed 8 bits per byte ---- *)

let mask_bytes = (Var.total + 7) / 8

let write_mask b (m : bool array) =
  let packed = Bytes.make mask_bytes '\000' in
  Array.iteri
    (fun i bit ->
       if bit then
         Bytes.set packed (i lsr 3)
           (Char.chr
              (Char.code (Bytes.get packed (i lsr 3)) lor (1 lsl (i land 7)))))
    m;
  Util.Binio.write_raw b (Bytes.unsafe_to_string packed)

let read_mask r =
  let packed = Util.Binio.read_string_exact r mask_bytes in
  Array.init Var.total
    (fun i -> Char.code packed.[i lsr 3] land (1 lsl (i land 7)) <> 0)

(* ---- block encoding ---- *)

let post_dual c = c >= Var.dual_count && c < 2 * Var.dual_count

(* Per-column stream tags. Only a handful of the machine's variables
   actually move inside any one block, so the common case — a column
   whose deltas are all zero, or one pinned at a single value — costs
   one tag byte to encode and (at most) a fill to decode, instead of a
   varint per record. This is what makes replaying a segment faster
   than re-simulating it. *)
let tag_zero = 0 (* every delta is zero: untouched (or post == pre) *)
let tag_const = 1 (* every record holds the same value, written once *)
let tag_deltas = 2 (* the general varint delta stream *)

let encode_payload ~workload (buf : Record.t array) n =
  let b = Util.Binio.writer () in
  Util.Binio.write_string b workload;
  Util.Binio.write_uint b n;
  (* Intern the block's program points: name + mask once, then one
     index per record. *)
  let by_name = Hashtbl.create 64 in
  let interned = ref [] in
  let npoints = ref 0 in
  let idx = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    let r = buf.(i) in
    match Hashtbl.find_opt by_name r.Record.point with
    | Some j -> idx.(i) <- j
    | None ->
      Hashtbl.add by_name r.Record.point !npoints;
      interned := r :: !interned;
      idx.(i) <- !npoints;
      incr npoints
  done;
  Util.Binio.write_uint b !npoints;
  List.iter
    (fun (r : Record.t) ->
       Util.Binio.write_string b r.point;
       write_mask b r.mask)
    (List.rev !interned);
  for i = 0 to n - 1 do
    Util.Binio.write_uint b idx.(i)
  done;
  (* One tagged stream per column (nothing at all for an empty block). *)
  if n > 0 then
    for c = 0 to Var.total - 1 do
      let first = buf.(0).Record.values.(c) in
      let all_zero = ref true and const = ref true in
      if post_dual c then
        for i = 0 to n - 1 do
          let v = buf.(i).Record.values in
          if v.(c) <> v.(c - Var.dual_count) then all_zero := false;
          if v.(c) <> first then const := false
        done
      else begin
        let prev = ref 0 in
        for i = 0 to n - 1 do
          let x = buf.(i).Record.values.(c) in
          if x <> !prev then all_zero := false;
          if x <> first then const := false;
          prev := x
        done
      end;
      if !all_zero then Util.Binio.write_uint b tag_zero
      else if !const then begin
        Util.Binio.write_uint b tag_const;
        Util.Binio.write_int b first
      end
      else begin
        Util.Binio.write_uint b tag_deltas;
        if post_dual c then
          for i = 0 to n - 1 do
            let v = buf.(i).Record.values in
            Util.Binio.write_int b (v.(c) - v.(c - Var.dual_count))
          done
        else begin
          let prev = ref 0 in
          for i = 0 to n - 1 do
            let x = buf.(i).Record.values.(c) in
            Util.Binio.write_int b (x - !prev);
            prev := x
          done
        end
      end
    done;
  Util.Binio.contents b

let output_block oc ~workload buf n =
  let payload = encode_payload ~workload buf n in
  let len = String.length payload in
  let hdr = Bytes.create header_len in
  Bytes.blit_string magic 0 hdr 0 7;
  Bytes.set hdr 7 (Char.chr version);
  Bytes.blit_string (Digest.string payload) 0 hdr 8 16;
  Bytes.set_int32_be hdr 24 (Int32.of_int len);
  output_bytes oc hdr;
  output_string oc payload;
  Obs.Metrics.add c_records_written n;
  Obs.Metrics.add c_bytes_written (header_len + len)

(* ---- framing ---- *)

(* Frame-header fields from the first byte plus the remaining
   [header_len - 1] bytes: every framing check except the payload
   digest, shared by the streaming reader and the header walk. *)
let parse_frame_rest c0 rest =
  if c0 <> magic.[0] || Bytes.sub_string rest 0 6 <> String.sub magic 1 6
  then corrupt "bad segment magic";
  let v = Char.code (Bytes.get rest 6) in
  if v < 1 || v > version then corrupt "unsupported segment version %d" v;
  let digest = Bytes.sub_string rest 7 16 in
  let len = Int32.to_int (Bytes.get_int32_be rest 23) in
  if len < 0 then corrupt "negative block length";
  (digest, len)

let verify_frame (digest, payload) =
  if not (String.equal (Digest.string payload) digest) then
    corrupt "block digest mismatch";
  payload

(* A header cut short by EOF is torn only if the bytes it has are a
   prefix of a valid header's magic and version; anything else is not
   a segment tail at all. *)
let check_torn_header head =
  let n = min (String.length head) (String.length magic) in
  if String.sub head 0 n <> String.sub magic 0 n then
    corrupt "bad segment magic";
  if String.length head > String.length magic then begin
    let v = Char.code head.[String.length magic] in
    if v < 1 || v > version then corrupt "unsupported segment version %d" v
  end

(* The one frame-header walk, behind the header-only scans, the range
   fold's seek and the writer's tail check. From [ic]'s position it
   steps over up to [limit] complete frames, seeking past each payload
   (or reading and digest-checking it when [verify]), and returns their
   (digest, on-disk size) in file order, plus [Some pos] when it stopped
   at a torn last frame: one starting at [pos] whose header or payload
   ends past EOF. A bad magic or version raises, in a torn header too. *)
let walk_frames ?(limit = max_int) ?(verify = false) ic =
  let size = in_channel_length ic in
  let rec loop n acc =
    let pos = pos_in ic in
    if n = limit || pos = size then (List.rev acc, None)
    else if pos + header_len > size then begin
      check_torn_header (really_input_string ic (size - pos));
      (List.rev acc, Some pos)
    end
    else begin
      let c0 = input_char ic in
      let rest = Bytes.create (header_len - 1) in
      really_input ic rest 0 (header_len - 1);
      let digest, len = parse_frame_rest c0 rest in
      let next = pos + header_len + len in
      if next > size then (List.rev acc, Some pos)
      else begin
        if verify then ignore (verify_frame (digest, really_input_string ic len))
        else seek_in ic next;
        loop (n + 1) ((digest, header_len + len) :: acc)
      end
    end
  in
  loop 0 []

(* [walk_frames] for readers, to whom a torn tail is damage. *)
let complete_frames ?limit ic =
  match walk_frames ?limit ic with
  | frames, None -> frames
  | _, Some pos -> corrupt "torn block at byte %d" pos

(* ---- writer ---- *)

type writer = {
  oc : out_channel;
  w_workload : string;
  block_cap : int;
  buf : Record.t array;
  mutable fill : int;
  mutable blocks : int;
  mutable written : int;
  mutable closed : bool;
}

let dummy_record = { Record.point = ""; values = [||]; mask = [||] }

(* A crash mid-append can leave a torn last frame, behind which every
   later append would be unreadable: cut it back to the last block
   boundary. Any other damage raises, as a read would. This assumes one
   writer per segment; a concurrent append would look torn. *)
let cut_torn_tail path =
  match open_in_bin path with
  | exception Sys_error _ -> ()
  | ic ->
    let _, torn =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> walk_frames ~verify:true ic)
    in
    Option.iter
      (fun pos ->
         Unix.truncate path pos;
         Obs.Metrics.incr c_torn_tails_cut)
      torn

let create ?(records_per_block = default_records_per_block) ~workload path =
  if records_per_block <= 0 then
    invalid_arg "Segment.create: records_per_block must be positive";
  cut_torn_tail path;
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644
      path
  in
  {
    oc;
    w_workload = workload;
    block_cap = records_per_block;
    (* The buffer holds references, not copies: [Runner.run_fold]
       allocates every record fresh and hands ownership to the consumer,
       so keeping them until the block flushes is safe. *)
    buf = Array.make records_per_block dummy_record;
    fill = 0;
    blocks = 0;
    written = 0;
    closed = false;
  }

let flush_block w =
  if w.fill > 0 || w.blocks = 0 then begin
    output_block w.oc ~workload:w.w_workload w.buf w.fill;
    Array.fill w.buf 0 w.block_cap dummy_record;
    w.blocks <- w.blocks + 1;
    w.written <- w.written + w.fill;
    w.fill <- 0
  end

let add w r =
  if w.closed then invalid_arg "Segment.add: writer is closed";
  w.buf.(w.fill) <- r;
  w.fill <- w.fill + 1;
  if w.fill = w.block_cap then flush_block w

let written w = w.written + w.fill

(* Close flushes the partial block (an empty trace still gets one empty
   block, so the file self-describes its workload) and fsyncs: once
   [close] returns, every appended block is on stable storage. *)
let close w =
  if not w.closed then begin
    w.closed <- true;
    Fun.protect
      ~finally:(fun () -> close_out w.oc)
      (fun () ->
         flush_block w;
         flush w.oc;
         try Unix.fsync (Unix.descr_of_out_channel w.oc)
         with Unix.Unix_error _ -> ())
  end

let with_writer ?records_per_block ~workload path f =
  let w = create ?records_per_block ~workload path in
  Fun.protect ~finally:(fun () -> close w) (fun () -> f w)

(* ---- reading ---- *)

(* One verified block payload from the channel: [None] at a clean end
   of file, [Corrupt_segment] on a torn one or a digest mismatch. The
   first byte is read separately so EOF exactly on a block boundary is
   distinguishable from a tail that dies mid-header. *)
let input_payload ic =
  match input_char ic with
  | exception End_of_file -> None
  | c0 ->
    let rest = Bytes.create (header_len - 1) in
    (try really_input ic rest 0 (header_len - 1)
     with End_of_file -> corrupt "torn block header");
    let digest, len = parse_frame_rest c0 rest in
    let payload =
      try really_input_string ic len
      with End_of_file -> corrupt "torn block payload"
    in
    Some (verify_frame (digest, payload))

(* Reusable decode buffers. A fresh decode allocates one [Var.total]
   int row per record per block; across a multi-GB replay that is the
   dominant allocation. A [scratch] lets one consumer (one domain)
   recycle the rows block after block — safe only because the records
   handed to the fold callback alias the scratch rows and are
   invalidated by the next block, so scratch decoding is opt-in and
   reserved for consumers that provably do not retain records (the
   mining engine copies values at observation). *)
type scratch = {
  mutable srows : int array array;  (* recycled value rows *)
  mutable sidx : int array;  (* recycled point-index column *)
}

let scratch () = { srows = [||]; sidx = [||] }

(* Decode a verified payload into a batch of records. Lengths are
   bounded by the payload size before any allocation, so a hostile
   count cannot balloon memory past the block it arrived in. *)
let decode_payload ?scratch payload =
  try
    let r = Util.Binio.reader payload in
    let workload = Util.Binio.read_string r in
    let n = Util.Binio.read_uint r in
    if n > String.length payload then corrupt "record count exceeds block";
    let npoints = Util.Binio.read_uint r in
    if npoints > n then corrupt "point table larger than record count";
    let pnames = Array.make (max npoints 1) "" in
    let pmasks = Array.make (max npoints 1) [||] in
    for j = 0 to npoints - 1 do
      pnames.(j) <- Util.Binio.read_string r;
      pmasks.(j) <- read_mask r
    done;
    let idx =
      match scratch with
      | None -> Array.make (max n 1) 0
      | Some s ->
        if Array.length s.sidx < n then s.sidx <- Array.make (max n 16) 0;
        s.sidx
    in
    for i = 0 to n - 1 do
      let j = Util.Binio.read_uint r in
      if j >= npoints then corrupt "point index out of range";
      idx.(i) <- j
    done;
    (* With a scratch, rows carry the previous block's values, so the
       zero-skip shortcuts below must write explicitly ([dirty]); a
       fresh [Array.make] row arrives zeroed and can skip them. *)
    let dirty = scratch <> None in
    let values =
      match scratch with
      | None -> Array.init n (fun _ -> Array.make Var.total 0)
      | Some s ->
        if Array.length s.srows < n then begin
          let old = s.srows in
          s.srows <-
            Array.init (max n 16) (fun i ->
                if i < Array.length old then old.(i)
                else Array.make Var.total 0)
        end;
        s.srows
    in
    if n > 0 then
      for c = 0 to Var.total - 1 do
        match Util.Binio.read_uint r with
        | t when t = tag_zero ->
          (* Untouched column: a fresh row already holds it; a post
             column mirrors its (already decoded) pre. *)
          if post_dual c then
            for i = 0 to n - 1 do
              let v = values.(i) in
              v.(c) <- v.(c - Var.dual_count)
            done
          else if dirty then
            for i = 0 to n - 1 do
              values.(i).(c) <- 0
            done
        | t when t = tag_const ->
          let x = Util.Binio.read_int r in
          if x <> 0 || dirty then
            for i = 0 to n - 1 do
              values.(i).(c) <- x
            done
        | t when t = tag_deltas ->
          if post_dual c then
            for i = 0 to n - 1 do
              let v = values.(i) in
              v.(c) <- v.(c - Var.dual_count) + Util.Binio.read_int r
            done
          else begin
            let prev = ref 0 in
            for i = 0 to n - 1 do
              let x = !prev + Util.Binio.read_int r in
              values.(i).(c) <- x;
              prev := x
            done
          end
        | t -> corrupt "unknown column tag %d" t
      done;
    if not (Util.Binio.eof r) then corrupt "trailing bytes in block";
    let records =
      Array.init n (fun i ->
          {
            Record.point = pnames.(idx.(i));
            values = values.(i);
            mask = pmasks.(idx.(i));
          })
    in
    (workload, records)
  with Util.Binio.Truncated -> corrupt "truncated block"

type info = {
  records : int;
  blocks : int;
  bytes : int;
  workloads : string list;  (* distinct, in first-appearance order *)
}

(* Stream the half-open block range [first_block, last_block) of the
   segment at [path] through [f]. Pre-range frames are seeked over with
   framing checks only (like {!block_digests}); decoding — and digest
   verification — starts at [first_block]. Blocks are self-contained
   (deltas reset at block boundaries), so a range fold decodes exactly
   what a whole-file fold decodes for those blocks, which is what makes
   block-granular sharding of a replay exact. *)
let fold_range ?(on_workload = fun (_ : string) -> ()) ?scratch
    ?(first_block = 0) ?(last_block = max_int) ~init ~f path =
  if first_block < 0 || last_block < first_block then
    invalid_arg "Segment.fold_range: invalid block range";
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       (* Seek past the frames before the range; a file with fewer
          blocks than [first_block] yields an empty range, not an
          error — shard planners size ranges from the same headers. *)
       let skipped = List.length (complete_frames ~limit:first_block ic) in
       let acc = ref init in
       let records = ref 0 in
       let blocks = ref 0 in
       let bytes = ref 0 in
       let workloads = ref [] in
       let previous = ref None in
       if skipped = first_block then begin
         let continue = ref true in
         while !continue && !blocks < last_block - first_block do
           match input_payload ic with
           | None -> continue := false
           | Some payload ->
             let workload, batch = decode_payload ?scratch payload in
             if not (List.mem workload !workloads) then
               workloads := workload :: !workloads;
             (* Once per run of same-workload blocks, not per block: a
                miner resets its per-workload record ordinal here. *)
             if !previous <> Some workload then begin
               previous := Some workload;
               on_workload workload
             end;
             Array.iter (fun r -> acc := f !acc r) batch;
             records := !records + Array.length batch;
             blocks := !blocks + 1;
             bytes := !bytes + header_len + String.length payload;
             Obs.Metrics.incr c_blocks_read;
             Obs.Metrics.add c_records_read (Array.length batch)
         done
       end;
       ( !acc,
         {
           records = !records;
           blocks = !blocks;
           bytes = !bytes;
           workloads = List.rev !workloads;
         } ))

let fold ?on_workload ?scratch ~init ~f path =
  let acc, info = fold_range ?on_workload ?scratch ~init ~f path in
  if info.blocks = 0 then corrupt "empty segment file";
  (acc, info)

let iter ?on_workload ~f path =
  snd (fold ?on_workload ~init:() ~f:(fun () r -> f r) path)

(* Header-only scan: per-block (digest, on-disk size), one seek per
   block — payloads are skipped, not read or verified. A torn tail
   still surfaces as [Corrupt_segment] instead of keying a cache entry
   or a shard plan. *)
let scan_frames path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       let frames = complete_frames ic in
       if frames = [] then corrupt "empty segment file";
       frames)

let block_digests path = List.map fst (scan_frames path)
let block_sizes path = List.map snd (scan_frames path)

(* ---- lake layout: one append-only segment file per workload ---- *)

let segment_path ~dir ~workload =
  Filename.concat dir (Util.Fsname.encode workload ^ ".seg")

let lake_segments dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    let segs =
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".seg")
      |> List.map (Filename.concat dir)
    in
    List.sort String.compare segs

(* ---- sharding a replay ---- *)

type span = {
  sp_path : string;
  sp_first : int;  (* first block, inclusive *)
  sp_last : int;  (* last block, exclusive *)
  sp_bytes : int;  (* on-disk bytes of the range *)
}

(* Cut [sizes] (per-block on-disk bytes) into [k] contiguous ranges
   balanced by cumulative bytes: close a piece once it has reached its
   proportional share of the total, as long as enough blocks remain to
   give every later piece at least one. Deterministic in the sizes
   alone. *)
let cut_ranges sizes k =
  let n = Array.length sizes in
  let k = max 1 (min k n) in
  let total = max 1 (Array.fold_left ( + ) 0 sizes) in
  let ranges = ref [] in
  let start = ref 0 in
  let piece = ref 1 in
  let cum = ref 0 in
  for i = 0 to n - 1 do
    cum := !cum + sizes.(i);
    let blocks_left = n - (i + 1) in
    let pieces_left = k - !piece in
    if
      !piece < k
      && ((!cum * k >= !piece * total && blocks_left >= pieces_left)
          || blocks_left = pieces_left)
    then begin
      ranges := (!start, i + 1) :: !ranges;
      start := i + 1;
      incr piece
    end
  done;
  ranges := (!start, n) :: !ranges;
  List.rev !ranges

(* Plan a [jobs]-way replay of [paths] (typically {!lake_segments}
   output): every block of every segment lands in exactly one span,
   spans never cross a segment boundary, and a segment bigger than its
   proportional share is split at block boundaries so one huge segment
   cannot serialize the whole replay. The plan depends only on the
   on-disk frame headers, so it is deterministic across runs and
   hosts. *)
let shard_spans ~jobs paths =
  let jobs = max 1 jobs in
  let sized =
    List.map (fun p -> (p, Array.of_list (block_sizes p))) paths
  in
  let total =
    List.fold_left (fun a (_, s) -> a + Array.fold_left ( + ) 0 s) 0 sized
  in
  let target = max 1 (total / jobs) in
  List.concat_map
    (fun (p, sizes) ->
       let seg_bytes = Array.fold_left ( + ) 0 sizes in
       let k =
         if jobs <= 1 then 1 else (seg_bytes + target - 1) / target
       in
       List.map
         (fun (first, last) ->
            let b = ref 0 in
            for i = first to last - 1 do
              b := !b + sizes.(i)
            done;
            { sp_path = p; sp_first = first; sp_last = last; sp_bytes = !b })
         (cut_ranges sizes k))
    sized
