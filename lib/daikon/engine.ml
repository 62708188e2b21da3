(* The dynamic invariant detector (the paper's modified Daikon, §3.1.2).

   The engine is incremental: records stream in via [observe]; candidate
   invariants are tracked per program point and falsified on the fly, in
   the style of Daikon's inference engine. [invariants] extracts the
   currently justified set at any time, which is how the Figure 3
   program-by-program convergence series is produced. *)

module Var = Trace.Var
module Expr = Invariant.Expr

(* Template-policy bits controlling which invariants a variable pair may
   yield, by comparability kind (Daikon's comparability analysis). *)
let p_order = 1
let p_eq = 2
let p_ne = 4
let p_diff = 8
let p_scale = 16

let pair_policy ki kj =
  let open Var in
  match ki, kj with
  | Data, Data -> p_order lor p_eq lor p_ne lor p_diff lor p_scale
  | Addr, Addr -> p_order lor p_eq lor p_diff
  | Addr, Data | Data, Addr -> p_eq lor p_diff lor p_scale
  | Flag, Flag -> p_eq lor p_ne
  | Srword, Srword -> p_eq
  | Regidx, Regidx -> p_eq lor p_order
  | Imm, Data | Data, Imm -> p_eq lor p_diff lor p_scale
  | (Addr | Data | Srword | Flag | Regidx | Imm | Diff), _ -> 0

(* Per-variable value statistics. *)
type vstat = {
  mutable vmin : int;
  mutable vmax : int;
  (* Distinct values, sorted ascending in values.(0 .. ndistinct-1); the
     array's capacity is the configured max_oneof. *)
  mutable values : int array;
  mutable ndistinct : int; (* -1 once more than max_oneof distinct seen *)
  mutable mod4 : int;      (* residue, or -1 once falsified *)
  mutable mod2 : int;
}

(* Relation bits observed for a pair. *)
let r_lt = 1
let r_eq = 2
let r_gt = 4

(* Boxed view of one pair tracker — the shape the codec, merge and
   extraction work with. The hot path does not use it: a point tracks
   thousands of pairs and a record update walks all of them, so pair
   state is stored packed (struct-of-arrays, below) and this record is
   only materialised on the cold paths via [pair_view]/[pair_store]. *)
type ptracker = {
  pi : int;                 (* var id, pi < pj *)
  pj : int;
  policy : int;
  mutable rel : int;
  mutable diff : int;       (* signed (vj - vi) *)
  mutable diff_live : bool;
  mutable scale_ij : int;   (* bitmask over scale_candidates: vj = vi * k *)
  mutable scale_ji : int;   (* vi = vj * k *)
  mutable scale_nonzero : int;
}

(* Packed pair layout.

   [pmeta.(k)] holds the constant part: pi lsl 12 | pj lsl 5 | policy
   (var ids fit 7 bits, the policy 5). [pflags] holds the mutable hot
   part, one byte per pair: the three relation bits plus [f_diff]
   (= diff_live) and [f_scale] (= the scaling guard: policy allows
   scaling and at least one mask is still alive). [pdiff.(k)] and
   [pscale.(k)] (scale_nonzero lsl 12 | scale_ij lsl 6 | scale_ji) are
   read only while the corresponding flag bit is set.

   The point of the exercise: once a pair has settled — constant-diff
   falsified, scale masks dead, which happens within a handful of
   records for almost every pair — an observation touches 8 bytes of
   meta + 1 byte of flags instead of a whole boxed tracker, and the
   flags array for a point fits in L1. Mining throughput is bound by
   this loop's memory traffic (see DESIGN.md "hot path"). *)
let f_rel = 7
let f_diff = 8
let f_scale = 16

let meta_make pi pj policy = (pi lsl 12) lor (pj lsl 5) lor policy
let meta_pi m = m lsr 12
let meta_pj m = (m lsr 5) land 0x7f
let meta_policy m = m land 0x1f
let scale_pack ~nonzero ~ij ~ji = (nonzero lsl 12) lor (ij lsl 6) lor ji

type point_state = {
  pname : string;
  vars : int array;           (* applicable var ids *)
  stats : vstat option array; (* length Var.total; Some for applicable *)
  (* Dense view of [stats] aligned with [vars]: the observe loop walks
     this instead of unwrapping an option per variable per record. The
     vstat objects are shared with [stats]; mutation through either view
     is visible through both. *)
  dstats : vstat array;
  (* Packed pair trackers, canonical order fixed at birth — the order
     snapshots and merges see. *)
  npairs : int;
  pmeta : int array;
  pflags : Bytes.t;
  pdiff : int array;
  pscale : int array;
  mutable n : int;
  (* The Figure 3 row cache: this point's sorted, deduplicated canonical
     keys as [point_keys] last extracted them, when its record count was
     [keys_n] (-1: none yet). [observe] moves [n] past it and
     [merge_point] clears it, so a point whose state moved re-extracts;
     only the keys are kept, not the invariants behind them. *)
  mutable keys : string array;
  mutable keys_n : int;
}

(* ---- Candidate-lifecycle provenance (the flight recorder) ----

   Off by default. [observe] and [merge_into] call the recorder's hook
   only when a candidate changes state, so a settled observation costs
   the same either way. When enabled, falsifications land in a bounded
   ring of [death] records and narrowing events update a last-witness
   table, so [scifinder mine --explain] can name the workload and record
   that killed (or last constrained) a candidate.

   The ring can evict under pressure, so two side tables are immune to
   eviction: the first death per family and the per-family death
   counts — the guarantee that at least one evidence trail per family
   always survives, whatever the capacity. *)

type death = {
  d_point : string;
  d_family : string;   (* oneof | mod | relation | diff | scale *)
  d_desc : string;     (* the candidate, e.g. "diff(pre_PC, post_PC)" *)
  d_workload : string; (* killing workload ("" before set_workload) *)
  d_record : int;      (* engine-global record ordinal at death *)
  d_tick : int;        (* record ordinal within the killing workload *)
}

type witness = {
  w_workload : string;
  w_record : int;
  w_tick : int;
}

type prov = {
  cap : int;
  ring : death option array;  (* circular; None = never-written slot *)
  mutable head : int;         (* next write position *)
  mutable rlen : int;
  mutable dropped : int;      (* deaths evicted or rejected (cap = 0) *)
  first_death : (string, death) Hashtbl.t;  (* family -> earliest *)
  death_counts : (string, int) Hashtbl.t;
  (* candidate key -> last narrowing observation; keys are
     "point|family|id" / "point|family|i|j" (i < j). *)
  witnesses : (string, witness) Hashtbl.t;
  births : (string, witness) Hashtbl.t;     (* point -> first record *)
  mutable cur_workload : string;
  mutable wrecords : int;     (* records seen in the current workload *)
}

let default_prov_capacity = 4096

let make_prov capacity =
  let cap = max 0 capacity in
  { cap; ring = Array.make (max 1 cap) None; head = 0; rlen = 0;
    dropped = 0; first_death = Hashtbl.create 7;
    death_counts = Hashtbl.create 7; witnesses = Hashtbl.create 997;
    births = Hashtbl.create 31; cur_workload = ""; wrecords = 0 }

let ring_push p d =
  if p.cap = 0 then p.dropped <- p.dropped + 1
  else begin
    if p.rlen = p.cap then p.dropped <- p.dropped + 1
    else p.rlen <- p.rlen + 1;
    p.ring.(p.head) <- Some d;
    p.head <- (p.head + 1) mod p.cap
  end

let ring_contents p =
  (* Oldest first. *)
  List.init p.rlen (fun i ->
      Option.get p.ring.((p.head - p.rlen + i + p.cap) mod p.cap))

(* Program points are interned: [index] maps a point name to its slot in
   the dense [tab] array (insertion order), so the per-record work never
   rebuilds or re-sorts anything. [last] caches the most recently
   observed point: traces are bursty (loops retire the same point many
   times in a row), and the common case skips even the hash lookup.
   [sorted] caches the canonical (name-sorted) view used by extraction
   and snapshots; it is invalidated only when a new point is interned. *)
type t = {
  config : Config.t;
  index : (string, int) Hashtbl.t;
  mutable tab : point_state array;
  mutable ntab : int;
  mutable last : point_state option;
  mutable sorted : point_state list option;
  mutable nrecords : int;
  mutable prov : prov option;
}

let create ?(config = Config.default) ?(provenance = false)
    ?(prov_capacity = default_prov_capacity) () =
  { config; index = Hashtbl.create 97; tab = [||]; ntab = 0;
    last = None; sorted = None; nrecords = 0;
    prov = if provenance then Some (make_prov prov_capacity) else None }

let provenance_enabled t = t.prov <> None

let set_workload t name =
  match t.prov with
  | None -> ()
  | Some p ->
    p.cur_workload <- name;
    p.wrecords <- 0

let record_count t = t.nrecords
let point_count t = t.ntab

let add_point t st =
  if t.ntab = Array.length t.tab then begin
    let tab = Array.make (max 16 (2 * t.ntab)) st in
    Array.blit t.tab 0 tab 0 t.ntab;
    t.tab <- tab
  end;
  t.tab.(t.ntab) <- st;
  Hashtbl.add t.index st.pname t.ntab;
  t.ntab <- t.ntab + 1;
  t.sorted <- None

(* Every consumer of the point table goes through this sorted view:
   interning order is insertion order, Hashtbl iteration order depends
   on the hash seed (OCAMLRUNPARAM=R), and the determinism guarantee
   ("bit-identical for every jobs >= 1") must depend on neither. The
   view is cached; only a new-point insertion invalidates it. *)
let sorted_points t =
  match t.sorted with
  | Some pts -> pts
  | None ->
    let pts = ref [] in
    for i = t.ntab - 1 downto 0 do pts := t.tab.(i) :: !pts done;
    let pts =
      List.sort (fun a b -> String.compare a.pname b.pname) !pts
    in
    t.sorted <- Some pts;
    pts

let points t = List.map (fun st -> st.pname) (sorted_points t)

(* Scale factors for Y = X * k: small word/index scalings plus the
   half-word and sign-replication factors used by l.movhi and the
   sign-extending loads. *)
let scale_candidates = [| 2; 4; 8; 0x10000; 0xFFFF; 0xFF_FFFF |]
let full_scale_mask = 0x3F

(* Cold-path accessors between the packed layout and the boxed view.
   [pair_store] recomputes the derived flag bits, so any view mutation
   written back through it leaves the hot-path invariants intact:
   f_diff = diff_live, f_scale = (policy allows scaling && a mask is
   still alive). *)
let pair_view st k : ptracker =
  let m = st.pmeta.(k) in
  let fl = Char.code (Bytes.get st.pflags k) in
  let s = st.pscale.(k) in
  { pi = meta_pi m; pj = meta_pj m; policy = meta_policy m;
    rel = fl land f_rel;
    diff = st.pdiff.(k);
    diff_live = fl land f_diff <> 0;
    scale_ij = (s lsr 6) land full_scale_mask;
    scale_ji = s land full_scale_mask;
    scale_nonzero = s lsr 12 }

let pair_store st k (p : ptracker) =
  st.pmeta.(k) <- meta_make p.pi p.pj p.policy;
  st.pdiff.(k) <- p.diff;
  st.pscale.(k) <-
    scale_pack ~nonzero:p.scale_nonzero ~ij:p.scale_ij ~ji:p.scale_ji;
  let fl =
    p.rel
    lor (if p.diff_live then f_diff else 0)
    lor (if p.policy land p_scale <> 0
         && (p.scale_ij <> 0 || p.scale_ji <> 0) then f_scale else 0)
  in
  Bytes.set st.pflags k (Char.chr fl)

let pack_point name vars stats dstats (pairs : ptracker array) n =
  let npairs = Array.length pairs in
  let st =
    { pname = name; vars; stats; dstats; npairs;
      pmeta = Array.make npairs 0;
      pflags = Bytes.make npairs '\000';
      pdiff = Array.make npairs 0;
      pscale = Array.make npairs 0;
      n; keys = [||]; keys_n = -1 }
  in
  Array.iteri (fun k p -> pair_store st k p) pairs;
  st

(* The signed 32-bit difference vj - vi: [Util.U32.sub] then
   [Util.U32.signed], spelled out because this runs for every live pair
   of every record, where each library call costs a closure
   application. *)
let[@inline] signed_diff vi vj =
  let d = (vj - vi) land 0xFFFF_FFFF in
  if d land 0x8000_0000 <> 0 then d - 0x1_0000_0000 else d

let relation_bit (vi : int) vj =
  if vi < vj then r_lt else if vi = vj then r_eq else r_gt

(* Filter a scale mask against one observation: keep bit b iff
   x * scale_candidates.(b) = y in 32-bit arithmetic. Tail-recursive on
   purpose — this runs per surviving scale pair per record, and the
   closure-plus-ref version allocated twice per call. *)
let filter_scale mask x y =
  let rec go m bit =
    if bit >= Array.length scale_candidates then m
    else begin
      let m =
        if m land (1 lsl bit) <> 0
        && Util.U32.mul x (Array.unsafe_get scale_candidates bit) <> y
        then m land lnot (1 lsl bit)
        else m
      in
      go m (bit + 1)
    end
  in
  go mask 0

(* A point is born from its first record, and every candidate starts
   from that record's values: the variable statistics, and per pair the
   relation bit, the constant difference and the scale factors it
   admits. A candidate this record already rules out was never alive,
   so its end is not a death. *)
let new_point config name (mask : bool array) values =
  let cap = max 1 config.Config.max_oneof in
  let vars =
    Var.all_ids
    |> List.filter (fun id -> mask.(id))
    |> Array.of_list
  in
  let stats = Array.make Var.total None in
  Array.iter
    (fun id ->
       let v = values.(id) in
       let dv = Array.make cap 0 in
       dv.(0) <- v;
       stats.(id) <- Some {
         vmin = v; vmax = v;
         values = dv; ndistinct = 1;
         mod4 = (if Var.id_kind id = Var.Addr then v land 3 else -1);
         mod2 = (if Var.id_kind id = Var.Addr then v land 1 else -1);
       })
    vars;
  let pairs = ref [] in
  let nv = Array.length vars in
  for a = 0 to nv - 1 do
    for b = a + 1 to nv - 1 do
      let i = vars.(a) and j = vars.(b) in
      let policy = pair_policy (Var.id_kind i) (Var.id_kind j) in
      let vi = values.(i) and vj = values.(j) in
      let diff_live = policy land p_diff <> 0 in
      (* All-zero values admit every factor (see [observe_pair]). *)
      let scale = policy land p_scale <> 0 && (vi <> 0 || vj <> 0) in
      if policy <> 0 then
        pairs := { pi = i; pj = j; policy;
                   rel = relation_bit vi vj;
                   diff = (if diff_live then
                             signed_diff vi vj else 0);
                   diff_live;
                   scale_ij = (if scale then filter_scale full_scale_mask vi vj
                               else full_scale_mask);
                   scale_ji = (if scale then filter_scale full_scale_mask vj vi
                               else full_scale_mask);
                   scale_nonzero = (if scale then 1 else 0) }
                 :: !pairs
    done
  done;
  pack_point name vars stats
    (Array.map (fun id -> Option.get stats.(id)) vars)
    (Array.of_list !pairs) 0

let intern t (record : Trace.Record.t) =
  let st =
    match Hashtbl.find_opt t.index record.point with
    | Some slot -> t.tab.(slot)
    | None ->
      let st = new_point t.config record.point record.mask record.values in
      add_point t st;
      st
  in
  t.last <- Some st;
  st

(* ---- The flight-recorder hook ----

   [observe] and [merge_into] call these only when a candidate changes
   state. Without a recorder each is one [t.prov] test, and a
   candidate's key or name is built only when it is recorded.
   Narrowings come from [observe] alone: a merge joins two observed
   histories and witnesses nothing new. *)

let prov_key1 point family id = Printf.sprintf "%s|%s|%d" point family id

let prov_key2 point family i j =
  let i, j = if i <= j then (i, j) else (j, i) in
  Printf.sprintf "%s|%s|%d|%d" point family i j

let record_death t p ~point ~family ~desc =
  let d =
    { d_point = point; d_family = family; d_desc = desc;
      d_workload = p.cur_workload; d_record = t.nrecords;
      d_tick = p.wrecords }
  in
  ring_push p d;
  if not (Hashtbl.mem p.first_death family) then
    Hashtbl.replace p.first_death family d;
  Hashtbl.replace p.death_counts family
    (1 + Option.value ~default:0 (Hashtbl.find_opt p.death_counts family))

(* Death reports name the candidate over variable names; a residue
   candidate ([modulus] > 0) also names its modulus. *)
let var_died t st ~family ~modulus id =
  match t.prov with
  | None -> ()
  | Some p ->
    let v = Var.id_name id in
    record_death t p ~point:st.pname ~family
      ~desc:(if modulus = 0 then Printf.sprintf "%s(%s)" family v
             else Printf.sprintf "%s(%s mod %d)" family v modulus)

let pair_died t st ~family k =
  match t.prov with
  | None -> ()
  | Some p ->
    let m = st.pmeta.(k) in
    record_death t p ~point:st.pname ~family
      ~desc:(Printf.sprintf "%s(%s, %s)" family
               (Var.id_name (meta_pi m)) (Var.id_name (meta_pj m)))

let witness t p =
  { w_workload = p.cur_workload; w_record = t.nrecords; w_tick = p.wrecords }

let var_narrowed t st family id =
  match t.prov with
  | None -> ()
  | Some p ->
    Hashtbl.replace p.witnesses (prov_key1 st.pname family id) (witness t p)

let pair_narrowed t st family k =
  match t.prov with
  | None -> ()
  | Some p ->
    let m = st.pmeta.(k) in
    Hashtbl.replace p.witnesses
      (prov_key2 st.pname family (meta_pi m) (meta_pj m)) (witness t p)

let born t st =
  match t.prov with
  | None -> ()
  | Some p -> Hashtbl.replace p.births st.pname (witness t p)

(* ---- The five death rules ----

   Every falsification goes through one of these, from [observe] (a
   record disagrees) and from [merge_point] (the other shard disagrees)
   alike, so the recorder sees each death whichever path caused it.
   The pair rules take and return the pair's flag byte. *)

(* 1. OneOf dies when its distinct-value set overflows. *)
let kill_oneof t st id vs =
  vs.values <- [||];
  vs.ndistinct <- -1;
  var_died t st ~family:"oneof" ~modulus:0 id

(* Sorted insert into a live distinct-value set; true iff [v] was new
   and the set survived it. The set holds at most max_oneof elements,
   so a linear scan is the fast path. Inlined, like [check_residues]
   and [update_vstat], into [observe]'s per-variable loop: as calls
   they cost the settled hot path several percent. *)
let[@inline] add_value t st id vs v =
  let n = vs.ndistinct in
  let pos = ref 0 in
  while !pos < n && vs.values.(!pos) < v do incr pos done;
  if !pos < n && vs.values.(!pos) = v then false
  else if n >= Array.length vs.values then (kill_oneof t st id vs; false)
  else begin
    for k = n downto !pos + 1 do vs.values.(k) <- vs.values.(k - 1) done;
    vs.values.(!pos) <- v;
    vs.ndistinct <- n + 1;
    true
  end

(* 2. An alignment residue dies when a value's residue, or the other
   shard's, differs from it; a dead residue (-1) differs from all. *)
let[@inline] check_residues t st id vs r4 r2 =
  if vs.mod4 >= 0 && r4 <> vs.mod4 then begin
    vs.mod4 <- -1;
    var_died t st ~family:"mod" ~modulus:4 id
  end;
  if vs.mod2 >= 0 && r2 <> vs.mod2 then begin
    vs.mod2 <- -1;
    var_died t st ~family:"mod" ~modulus:2 id
  end

(* 3. A relation candidate dies once <, = and > have all been seen. *)
let add_relation t st k fl bits =
  let fl' = fl lor bits in
  if fl' land f_rel = f_rel && fl land f_rel <> f_rel then
    pair_died t st ~family:"relation" k;
  fl'

(* 4. A constant difference dies on a record with another difference,
   or on a shard with another (or no) constant. *)
let kill_diff t st k fl =
  pair_died t st ~family:"diff" k;
  fl land lnot f_diff

(* 5. A scaling candidate dies with its last mask bit. *)
let set_scale t st k fl ~nonzero ~ij ~ji =
  st.pscale.(k) <- scale_pack ~nonzero ~ij ~ji;
  if fl land f_scale <> 0 && ij = 0 && ji = 0 then begin
    pair_died t st ~family:"scale" k;
    fl land lnot f_scale
  end else fl

(* ---- Observing ---- *)

let[@inline] update_vstat t st id vs v =
  if v < vs.vmin || v > vs.vmax then begin
    if v < vs.vmin then vs.vmin <- v else vs.vmax <- v;
    var_narrowed t st "interval" id
  end;
  if vs.ndistinct >= 0 && add_value t st id vs v then
    var_narrowed t st "oneof" id;
  if vs.mod4 >= 0 || vs.mod2 >= 0 then
    check_residues t st id vs (v land 3) (v land 1)

(* A pair the hot loop cannot skip: this record shows it a new relation
   bit, or its diff or scale candidate is still live. *)
let observe_pair t st k fl b vi vj =
  let fl =
    if fl land b <> 0 then fl
    else begin
      let fl = add_relation t st k fl b in
      if fl land f_rel <> f_rel then pair_narrowed t st "relation" k;
      fl
    end
  in
  let fl =
    if fl land f_diff <> 0
    && st.pdiff.(k) <> signed_diff vi vj
    then kill_diff t st k fl
    else fl
  in
  (* The all-zero observation is a scale no-op by construction: the
     nonzero counter's guard is false and 0 * k = 0 keeps every
     surviving mask bit — so skip it. (Permanently-zero pairs are
     exactly the ones whose masks never die.) *)
  let fl =
    if fl land f_scale = 0 || (vi = 0 && vj = 0) then fl
    else begin
      let s = st.pscale.(k) in
      let ij = filter_scale ((s lsr 6) land full_scale_mask) vi vj
      and ji = filter_scale (s land full_scale_mask) vj vi in
      let fl = set_scale t st k fl ~nonzero:((s lsr 12) + 1) ~ij ~ji in
      if fl land f_scale <> 0 && (ij lsl 6) lor ji <> s land 0xFFF then
        pair_narrowed t st "scale" k;
      fl
    end
  in
  Bytes.unsafe_set st.pflags k (Char.unsafe_chr fl)

let observe t (record : Trace.Record.t) =
  t.nrecords <- t.nrecords + 1;
  (match t.prov with None -> () | Some p -> p.wrecords <- p.wrecords + 1);
  let values = record.values in
  let st =
    match t.last with
    | Some st when String.equal st.pname record.point -> st
    | _ -> intern t record
  in
  st.n <- st.n + 1;
  if st.n = 1 then born t st
  else begin
    let vars = st.vars and dstats = st.dstats in
    for k = 0 to Array.length vars - 1 do
      let id = vars.(k) in
      update_vstat t st id dstats.(k) values.(id)
    done;
    (* The mining hot loop: ~thousands of pairs per record. A settled
       pair (diff falsified, scale masks dead) whose relation bit is
       already set touches one meta word and one flag byte, and is the
       only case that skips [observe_pair]: nothing about it changes.
       Indices unpacked from [pmeta] are always < Var.total =
       Array.length values. *)
    let pmeta = st.pmeta and pflags = st.pflags in
    for k = 0 to st.npairs - 1 do
      let m = Array.unsafe_get pmeta k in
      let vi = Array.unsafe_get values (m lsr 12)
      and vj = Array.unsafe_get values ((m lsr 5) land 0x7f) in
      let b = relation_bit vi vj in
      let fl = Char.code (Bytes.unsafe_get pflags k) in
      if fl land (b lor f_diff lor f_scale) <> b then
        observe_pair t st k fl b vi vj
    done
  end

(* The pre-optimization observe shape, kept as the differential-testing
   reference: one string-keyed hash lookup per record, an option unwrap
   per variable, and the full pair update for every pair — no settled
   fast path. Produces bit-identical candidate and recorder state to
   [observe]; the QCheck suite holds the two paths equal, and
   [minebench] reports the throughput gap. *)
let observe_baseline t (record : Trace.Record.t) =
  t.nrecords <- t.nrecords + 1;
  (match t.prov with None -> () | Some p -> p.wrecords <- p.wrecords + 1);
  let values = record.values in
  let st =
    match Hashtbl.find_opt t.index record.point with
    | Some slot -> t.tab.(slot)
    | None ->
      let st = new_point t.config record.point record.mask values in
      add_point t st;
      st
  in
  st.n <- st.n + 1;
  (* On the first record [new_point] started everything from it. *)
  if st.n = 1 then born t st
  else begin
    Array.iter
      (fun id ->
         match st.stats.(id) with
         | Some vs -> update_vstat t st id vs values.(id)
         | None -> ())
      st.vars;
    for k = 0 to st.npairs - 1 do
      let m = st.pmeta.(k) in
      let vi = values.(meta_pi m) and vj = values.(meta_pj m) in
      observe_pair t st k (Char.code (Bytes.get st.pflags k))
        (relation_bit vi vj) vi vj
    done
  end

(* ---- Merging ----

   [merge_into dst src] joins two engine states point-by-point so that
   merging the engines of two trace shards is observationally equivalent
   to streaming both shards through one engine sequentially (the property
   the sharded miner in [Pipeline.mine ~jobs] relies on). Both engines
   must share a configuration; [src]'s state is consumed (point states of
   [src] not present in [dst] are adopted by reference). A candidate the
   join falsifies (the shards disagreed) dies through the same rules as
   in [observe], under the merge pseudo-workload [merge_into] names. *)

let merge_point t dst src =
  if not (Array.length dst.vars = Array.length src.vars
          && Array.for_all2 ( = ) dst.vars src.vars
          && dst.npairs = src.npairs) then
    invalid_arg
      (Printf.sprintf
         "Daikon.Engine.merge_into: point %s has incompatible shapes"
         dst.pname);
  (* A join can change what the point extracts without moving [n] (a
     decoded point may carry n = 0), so it drops the row cache. *)
  dst.keys_n <- -1;
  dst.n <- dst.n + src.n;
  Array.iteri
    (fun k id ->
       let d = dst.dstats.(k) and s = src.dstats.(k) in
       if s.vmin < d.vmin then d.vmin <- s.vmin;
       if s.vmax > d.vmax then d.vmax <- s.vmax;
       (* Inserting src's values one by one dies exactly where a
          sequential run over the concatenated streams would have given
          up; a dead src set already held more than the cap. *)
       if d.ndistinct >= 0 && s.ndistinct < 0 then kill_oneof t dst id d;
       for i = 0 to s.ndistinct - 1 do
         if d.ndistinct >= 0 then ignore (add_value t dst id d s.values.(i))
       done;
       check_residues t dst id d s.mod4 s.mod2)
    dst.vars;
  for k = 0 to dst.npairs - 1 do
    if dst.pmeta.(k) <> src.pmeta.(k) then
      invalid_arg "Daikon.Engine.merge_into: mismatched pair trackers";
    let sfl = Char.code (Bytes.get src.pflags k) in
    let fl =
      add_relation t dst k (Char.code (Bytes.get dst.pflags k))
        (sfl land f_rel)
    in
    let fl =
      if fl land f_diff <> 0
      && not (sfl land f_diff <> 0 && dst.pdiff.(k) = src.pdiff.(k))
      then kill_diff t dst k fl
      else fl
    in
    (* Masks intersect. The non-zero support counts can only diverge
       from a sequential run once every scale mask is dead, at which
       point no scaling invariant is extractable anyway. *)
    let s = dst.pscale.(k) and s' = src.pscale.(k) in
    let fl =
      set_scale t dst k fl ~nonzero:((s lsr 12) + (s' lsr 12))
        ~ij:((s lsr 6) land (s' lsr 6) land full_scale_mask)
        ~ji:(s land s' land full_scale_mask)
    in
    Bytes.set dst.pflags k (Char.chr fl)
  done

(* Join two provenance states: src's ring entries precede any deaths the
   point merge below will add; per-key tables keep dst's entry (corpus
   order makes "first" deterministic) and sum the counts. *)
let merge_prov dp sp =
  dp.cur_workload <-
    (if sp.cur_workload = "" then "(merge)" else "merge:" ^ sp.cur_workload);
  dp.wrecords <- 0;
  dp.dropped <- dp.dropped + sp.dropped;
  List.iter (ring_push dp) (ring_contents sp);
  Hashtbl.iter
    (fun fam d ->
       if not (Hashtbl.mem dp.first_death fam) then
         Hashtbl.replace dp.first_death fam d)
    sp.first_death;
  Hashtbl.iter
    (fun fam n ->
       Hashtbl.replace dp.death_counts fam
         (n + Option.value ~default:0 (Hashtbl.find_opt dp.death_counts fam)))
    sp.death_counts;
  Hashtbl.iter
    (fun k w ->
       if not (Hashtbl.mem dp.witnesses k) then
         Hashtbl.replace dp.witnesses k w)
    sp.witnesses;
  Hashtbl.iter
    (fun pt w ->
       if not (Hashtbl.mem dp.births pt) then Hashtbl.replace dp.births pt w)
    sp.births

let merge_into dst src =
  if dst == src then invalid_arg "Daikon.Engine.merge_into: same engine";
  if dst.config <> src.config then
    invalid_arg "Daikon.Engine.merge_into: configurations differ";
  dst.nrecords <- dst.nrecords + src.nrecords;
  (match dst.prov, src.prov with
   | Some dp, Some sp -> merge_prov dp sp
   | _ -> ());
  (* Walk src in interning (insertion) order — deterministic regardless
     of hash seed, unlike the Hashtbl.iter this replaces. *)
  for i = 0 to src.ntab - 1 do
    let sp = src.tab.(i) in
    match Hashtbl.find_opt dst.index sp.pname with
    | Some slot -> merge_point dst dst.tab.(slot) sp
    | None -> add_point dst sp
  done

(* ---- Provenance readout ---- *)

let deaths t = match t.prov with None -> [] | Some p -> ring_contents p

let deaths_dropped t =
  match t.prov with None -> 0 | Some p -> p.dropped

let death_families t =
  match t.prov with
  | None -> []
  | Some p ->
    Hashtbl.fold
      (fun fam n acc -> (fam, n, Hashtbl.find_opt p.first_death fam) :: acc)
      p.death_counts []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* Which tracked candidate an extracted invariant came from. Must follow
   the extraction shapes in [extract_point]: constants and value sets
   come from the oneof stats, Ge/Le bounds from the interval, Minus
   pairs from the constant-diff tracker, Mul pairs from the scale
   masks, and plain V-to-V comparisons from the relation bits. *)
let candidate_key (inv : Expr.t) =
  let point = inv.Expr.point in
  match inv.Expr.body with
  | Expr.In (Expr.V id, _) -> Some (prov_key1 point "oneof" id)
  | Expr.Cmp (_, Expr.Mod (id, _), _) -> Some (prov_key1 point "mod" id)
  | Expr.Cmp (Expr.Eq, Expr.V id, Expr.Imm _) ->
    Some (prov_key1 point "oneof" id)
  | Expr.Cmp ((Expr.Ge | Expr.Le), Expr.V id, Expr.Imm _) ->
    Some (prov_key1 point "interval" id)
  | Expr.Cmp (Expr.Eq, Expr.Bin (Expr.Minus, a, b), Expr.Imm _) ->
    Some (prov_key2 point "diff" a b)
  | Expr.Cmp (Expr.Eq, Expr.V a, Expr.Mul (b, _)) ->
    Some (prov_key2 point "scale" a b)
  | Expr.Cmp (_, Expr.V a, Expr.V b) -> Some (prov_key2 point "relation" a b)
  | _ -> None

let narrow_witness t inv =
  match t.prov with
  | None -> None
  | Some p ->
    let direct =
      match candidate_key inv with
      | Some key -> Hashtbl.find_opt p.witnesses key
      | None -> None
    in
    (match direct with
     | Some _ as w -> w
     (* A candidate that never narrowed after birth is witnessed by the
        record that instantiated it. *)
     | None -> Hashtbl.find_opt p.births inv.Expr.point)

(* ---- Candidate accounting (telemetry) ----

   Birth/death counts per invariant family, computed by scanning the
   tracker state at extraction cadence — the observe/merge hot paths pay
   nothing for this. "Born" counts every candidate ever instantiated for
   a tracked variable or pair; "live" counts the candidates still
   justified by everything observed so far. *)

type family_stats = {
  family : string;
  born : int;
  live : int;
}

let candidate_stats t =
  let oneof_born = ref 0 and oneof_live = ref 0 in
  let interval_born = ref 0 in
  let mod_born = ref 0 and mod_live = ref 0 in
  let rel_born = ref 0 and rel_live = ref 0 in
  let diff_born = ref 0 and diff_live = ref 0 in
  let scale_born = ref 0 and scale_live = ref 0 in
  for i = 0 to t.ntab - 1 do
    let st = t.tab.(i) in
    Array.iter
      (fun id ->
         match st.stats.(id) with
         | None -> ()
         | Some vs ->
           Stdlib.incr oneof_born;
           if vs.ndistinct >= 0 then Stdlib.incr oneof_live;
           Stdlib.incr interval_born;
           if Var.id_kind id = Var.Addr then begin
             mod_born := !mod_born + 2;
             if vs.mod4 >= 0 then Stdlib.incr mod_live;
             if vs.mod2 >= 0 then Stdlib.incr mod_live
           end)
      st.vars;
    for k = 0 to st.npairs - 1 do
      let p = pair_view st k in
      if p.policy land (p_order lor p_eq lor p_ne) <> 0 then begin
        Stdlib.incr rel_born;
        (* All three relation bits observed = no ordering constraint
           is left to extract. *)
        if p.rel <> r_lt lor r_eq lor r_gt then Stdlib.incr rel_live
      end;
      if p.policy land p_diff <> 0 then begin
        Stdlib.incr diff_born;
        if p.diff_live then Stdlib.incr diff_live
      end;
      if p.policy land p_scale <> 0 then begin
        Stdlib.incr scale_born;
        if p.scale_ij <> 0 || p.scale_ji <> 0 then
          Stdlib.incr scale_live
      end
    done
  done;
  [ { family = "oneof"; born = !oneof_born; live = !oneof_live };
    (* min/max intervals only widen; a tracked interval never dies. *)
    { family = "interval"; born = !interval_born; live = !interval_born };
    { family = "mod"; born = !mod_born; live = !mod_live };
    { family = "relation"; born = !rel_born; live = !rel_live };
    { family = "diff"; born = !diff_born; live = !diff_live };
    { family = "scale"; born = !scale_born; live = !scale_live } ]

(* ---- Extraction ---- *)

let is_constant st = st.ndistinct = 1

let constant_value st =
  if st.ndistinct <> 1 then invalid_arg "constant_value";
  st.values.(0)

let extract_point config st acc =
  let cfg = config in
  let add inv acc = inv :: acc in
  if st.n < cfg.Config.min_samples then acc
  else begin
    let acc = ref acc in
    let point = st.pname in
    (* Daikon-style equality-set suppression: among constant variables that
       share a value, only one leader per orig()/post side participates in
       pair invariants; the rest are fully described by their constancy.
       (orig and post variables live in separate equality sets, as in
       Daikon; the cross-side redundancy that survives here is what the
       §3.2 constant-propagation and equivalence-removal passes exist to
       clean up.) *)
    let leaders = Hashtbl.create 32 in
    Array.iter
      (fun id ->
         match st.stats.(id) with
         | Some vs when is_constant vs ->
           let key = (constant_value vs, Var.is_orig id) in
           if not (Hashtbl.mem leaders key) then Hashtbl.replace leaders key id
         | Some _ | None -> ())
      st.vars;
    let is_pair_leader id =
      match st.stats.(id) with
      | Some vs when is_constant vs ->
        Hashtbl.find_opt leaders (constant_value vs, Var.is_orig id) = Some id
      | Some _ -> true
      | None -> false
    in
    (* Unary invariants. *)
    Array.iter
      (fun id ->
         match st.stats.(id) with
         | None -> ()
         | Some vs ->
           if is_constant vs then
             acc := add { Expr.point; body = Expr.Cmp (Expr.Eq, Expr.V id, Expr.Imm (constant_value vs)) } !acc
           else begin
             if vs.ndistinct > 1 && st.n >= cfg.oneof_min then
               acc := add { Expr.point;
                            body = Expr.In (Expr.V id,
                                            Array.to_list
                                              (Array.sub vs.values 0 vs.ndistinct)) } !acc;
             if st.n >= cfg.mod_min then begin
               if vs.mod4 >= 0 then
                 acc := add { Expr.point;
                              body = Expr.Cmp (Expr.Eq, Expr.Mod (id, 4), Expr.Imm vs.mod4) } !acc
               else if vs.mod2 >= 0 then
                 acc := add { Expr.point;
                              body = Expr.Cmp (Expr.Eq, Expr.Mod (id, 2), Expr.Imm vs.mod2) } !acc
             end;
             (* Signed bounds for derived difference variables. *)
             if Var.id_kind id = Var.Diff && st.n >= cfg.mod_min then begin
               let lower =
                 if vs.vmin >= 1 then Some 1
                 else if vs.vmin >= 0 then Some 0
                 else if vs.vmin >= -1 then Some (-1)
                 else None
               and upper =
                 if vs.vmax <= -1 then Some (-1)
                 else if vs.vmax <= 0 then Some 0
                 else if vs.vmax <= 1 then Some 1
                 else None
               in
               (match lower with
                | Some b ->
                  acc := add { Expr.point;
                               body = Expr.Cmp (Expr.Ge, Expr.V id, Expr.Imm b) } !acc
                | None -> ());
               (match upper with
                | Some b ->
                  acc := add { Expr.point;
                               body = Expr.Cmp (Expr.Le, Expr.V id, Expr.Imm b) } !acc
                | None -> ())
             end
           end)
      st.vars;
    (* Pairwise invariants. *)
    for pk = 0 to st.npairs - 1 do
      let p = pair_view st pk in
         let si = st.stats.(p.pi) and sj = st.stats.(p.pj) in
         match si, sj with
         | Some si, Some sj ->
           let both_const = is_constant si && is_constant sj in
           if not both_const
           && is_pair_leader p.pi && is_pair_leader p.pj then begin
             let n = st.n in
             (* Ordering / equality / disequality. *)
             let emit_cmp op =
               acc := add { Expr.point;
                            body = Expr.Cmp (op, Expr.V p.pi, Expr.V p.pj) } !acc
             in
             (match p.rel with
              | 2 when p.policy land p_eq <> 0 && n >= cfg.min_samples ->
                emit_cmp Expr.Eq
              | 1 when p.policy land p_order <> 0 && n >= cfg.order_min ->
                emit_cmp Expr.Lt
              | 3 when p.policy land p_order <> 0 && n >= cfg.order_min ->
                emit_cmp Expr.Le
              | 4 when p.policy land p_order <> 0 && n >= cfg.order_min ->
                emit_cmp Expr.Gt
              | 6 when p.policy land p_order <> 0 && n >= cfg.order_min ->
                emit_cmp Expr.Ge
              | 5 when p.policy land p_ne <> 0 && n >= cfg.ne_min ->
                emit_cmp Expr.Ne
              | _ -> ());
             (* Constant difference, skipping the d = 0 case (that is Eq). *)
             if p.diff_live && p.diff <> 0 && abs p.diff <= cfg.max_diff
             && p.policy land p_diff <> 0 && n >= cfg.min_samples then
               acc := add { Expr.point;
                            body = Expr.Cmp (Expr.Eq,
                                             Expr.Bin (Expr.Minus, p.pj, p.pi),
                                             Expr.Imm p.diff) } !acc;
             (* Scaling Y = X * k (pick the smallest surviving k). *)
             if p.policy land p_scale <> 0
             && p.scale_nonzero >= cfg.scale_nonzero_min
             && n >= cfg.min_samples then begin
               let pick mask =
                 let rec go bit =
                   if bit >= Array.length scale_candidates then None
                   else if mask land (1 lsl bit) <> 0 then Some scale_candidates.(bit)
                   else go (bit + 1)
                 in
                 go 0
               in
               (match pick p.scale_ij with
                | Some k ->
                  acc := add { Expr.point;
                               body = Expr.Cmp (Expr.Eq, Expr.V p.pj,
                                                Expr.Mul (p.pi, k)) } !acc
                | None ->
                  (match pick p.scale_ji with
                   | Some k ->
                     acc := add { Expr.point;
                                  body = Expr.Cmp (Expr.Eq, Expr.V p.pi,
                                                   Expr.Mul (p.pj, k)) } !acc
                   | None -> ()))
             end
           end
         | _ -> ()
    done;
    !acc
  end

(* The currently justified invariant set. Deterministic order: sorted by
   canonical form, with program points visited in canonical order so the
   survivor of a canonical tie never depends on hash-seed iteration.
   Each canonical key is computed once — [Expr.compare] re-renders both
   sides on every call, which made the old [sort_uniq] the hot spot of
   every Figure 3 snapshot. *)
let invariants t =
  let raw =
    List.fold_left
      (fun acc st -> extract_point t.config st acc)
      [] (sorted_points t)
  in
  let keyed = List.map (fun i -> (Expr.canonical i, i)) raw in
  let sorted =
    List.sort (fun (a, _) (b, _) -> String.compare a b) keyed
  in
  let rec dedup = function
    | (ka, a) :: ((kb, _) :: _ as rest) ->
      if String.equal ka kb then dedup rest else a :: dedup rest
    | [ (_, a) ] -> [ a ]
    | [] -> []
  in
  dedup sorted

(* The Figure 3 row path: each point's canonical keys, re-extracting only
   the points whose state moved since [point_keys] last saw them. Keys
   are cached, invariants are not: [invariants] stays the one full
   extraction, and holding the Expr.t values too would keep a second
   copy of every extracted set alive between rows. *)
let point_keys t =
  List.map
    (fun st ->
       if st.keys_n <> st.n then begin
         st.keys <-
           Array.of_list
             (List.sort_uniq String.compare
                (List.rev_map Expr.canonical (extract_point t.config st [])));
         st.keys_n <- st.n
       end;
       (st.pname, st.keys))
    (sorted_points t)

(* ---- Persistent snapshots ----

   Full engine state round-trips through a compact, versioned binary
   codec: header (magic, codec version, an empty key field, payload
   digest), then the payload — configuration, record count, and every
   program point's candidate state in canonical (sorted) point order, so
   the bytes are identical no matter what hash seed built the table.

   The codec names no cache entry: the pipeline's cache store keys its
   entries itself. The key field stays in the header, always empty, so
   the bytes are those every earlier release wrote for an unkeyed
   snapshot; a non-empty one marks a file from the old per-workload
   cache. Such a file, or one whose configuration or codec version does
   not match what the loader expects, is reported [Stale_snapshot]; any
   torn, truncated or bit-flipped file fails the payload digest and is
   reported [Corrupt_snapshot] — both are recoverable by re-mining.
   Writes go through [Util.Binio.atomic_write], so a crashed or racing
   writer can never publish a half-written snapshot. *)

exception Corrupt_snapshot of string
exception Stale_snapshot of string

(* Version 2 appends the flight-recorder (provenance) section to the
   payload. Engines without provenance still encode as version 1, byte
   for byte the format every earlier release wrote — so enabling the
   feature never perturbs existing caches, and a provenance-free run
   produces bit-identical snapshots to one built before the feature
   existed. [decode] accepts both. *)
let codec_version = 2
let snapshot_magic = "SCIFSNAP"

(* Not a codec property: what the engine makes of a trace. Cache keys
   include it next to [codec_version]; see the interface for when to
   bump it. *)
let semantics_version = 1

let encode_vstat w vs =
  Util.Binio.write_int w vs.vmin;
  Util.Binio.write_int w vs.vmax;
  Util.Binio.write_int w vs.ndistinct;
  if vs.ndistinct > 0 then
    for k = 0 to vs.ndistinct - 1 do
      Util.Binio.write_int w vs.values.(k)
    done;
  Util.Binio.write_int w vs.mod4;
  Util.Binio.write_int w vs.mod2

let decode_vstat cap r =
  let vmin = Util.Binio.read_int r in
  let vmax = Util.Binio.read_int r in
  let ndistinct = Util.Binio.read_int r in
  if ndistinct < -1 || ndistinct > cap then
    raise (Corrupt_snapshot "distinct-value count out of range");
  let values =
    if ndistinct < 0 then [||]
    else begin
      let values = Array.make cap 0 in
      for k = 0 to ndistinct - 1 do
        values.(k) <- Util.Binio.read_int r
      done;
      values
    end
  in
  let mod4 = Util.Binio.read_int r in
  let mod2 = Util.Binio.read_int r in
  { vmin; vmax; values; ndistinct; mod4; mod2 }

let encode_pair w p =
  Util.Binio.write_uint w p.pi;
  Util.Binio.write_uint w p.pj;
  Util.Binio.write_uint w p.rel;
  Util.Binio.write_int w p.diff;
  Util.Binio.write_bool w p.diff_live;
  Util.Binio.write_uint w p.scale_ij;
  Util.Binio.write_uint w p.scale_ji;
  (* Once every scale mask is dead the support count is frozen wherever
     the kill happened — a stream-order artifact that extraction never
     reads (both masks gate it) and that a shard merge cannot reproduce
     (the count is the one pair field [merge_point] sums approximately).
     Canonicalize it to 0 so snapshot bytes are a function of exactly
     the mergeable state: jobs=N replay == jobs=1, byte for byte. *)
  Util.Binio.write_uint w
    (if p.scale_ij = 0 && p.scale_ji = 0 then 0 else p.scale_nonzero)

let decode_pair r =
  let pi = Util.Binio.read_uint r in
  let pj = Util.Binio.read_uint r in
  if pi >= Var.total || pj >= Var.total || pi >= pj then
    raise (Corrupt_snapshot "bad pair variable ids");
  let policy = pair_policy (Var.id_kind pi) (Var.id_kind pj) in
  let rel = Util.Binio.read_uint r in
  let diff = Util.Binio.read_int r in
  let diff_live = Util.Binio.read_bool r in
  let scale_ij = Util.Binio.read_uint r in
  let scale_ji = Util.Binio.read_uint r in
  let scale_nonzero = Util.Binio.read_uint r in
  { pi; pj; policy; rel; diff; diff_live; scale_ij; scale_ji;
    scale_nonzero }

let encode_point w st =
  Util.Binio.write_string w st.pname;
  Util.Binio.write_uint w (Array.length st.vars);
  Array.iter
    (fun id ->
       Util.Binio.write_uint w id;
       match st.stats.(id) with
       | Some vs -> encode_vstat w vs
       | None -> raise (Invalid_argument "Engine.save: var without stats"))
    st.vars;
  Util.Binio.write_uint w st.npairs;
  for k = 0 to st.npairs - 1 do encode_pair w (pair_view st k) done;
  Util.Binio.write_uint w st.n

let decode_point config r =
  let pname = Util.Binio.read_string r in
  let nvars = Util.Binio.read_uint r in
  if nvars > Var.total then raise (Corrupt_snapshot "too many variables");
  let cap = max 1 config.Config.max_oneof in
  let stats = Array.make Var.total None in
  let vars =
    Array.init nvars
      (fun _ ->
         let id = Util.Binio.read_uint r in
         if id >= Var.total then
           raise (Corrupt_snapshot "variable id out of range");
         stats.(id) <- Some (decode_vstat cap r);
         id)
  in
  let npairs = Util.Binio.read_uint r in
  if npairs > Var.total * Var.total then
    raise (Corrupt_snapshot "too many pairs");
  let pairs = Array.init npairs (fun _ -> decode_pair r) in
  let n = Util.Binio.read_uint r in
  pack_point pname vars stats
    (Array.map (fun id -> Option.get stats.(id)) vars)
    pairs n

let encode_config w (c : Config.t) =
  Util.Binio.write_uint w c.min_samples;
  Util.Binio.write_uint w c.order_min;
  Util.Binio.write_uint w c.ne_min;
  Util.Binio.write_uint w c.oneof_min;
  Util.Binio.write_uint w c.max_oneof;
  Util.Binio.write_uint w c.mod_min;
  Util.Binio.write_uint w c.scale_nonzero_min;
  Util.Binio.write_uint w c.max_diff

let decode_config r : Config.t =
  let min_samples = Util.Binio.read_uint r in
  let order_min = Util.Binio.read_uint r in
  let ne_min = Util.Binio.read_uint r in
  let oneof_min = Util.Binio.read_uint r in
  let max_oneof = Util.Binio.read_uint r in
  let mod_min = Util.Binio.read_uint r in
  let scale_nonzero_min = Util.Binio.read_uint r in
  let max_diff = Util.Binio.read_uint r in
  { min_samples; order_min; ne_min; oneof_min; max_oneof; mod_min;
    scale_nonzero_min; max_diff }

let encode_death w d =
  Util.Binio.write_string w d.d_point;
  Util.Binio.write_string w d.d_family;
  Util.Binio.write_string w d.d_desc;
  Util.Binio.write_string w d.d_workload;
  Util.Binio.write_uint w d.d_record;
  Util.Binio.write_uint w d.d_tick

let decode_death r =
  let d_point = Util.Binio.read_string r in
  let d_family = Util.Binio.read_string r in
  let d_desc = Util.Binio.read_string r in
  let d_workload = Util.Binio.read_string r in
  let d_record = Util.Binio.read_uint r in
  let d_tick = Util.Binio.read_uint r in
  { d_point; d_family; d_desc; d_workload; d_record; d_tick }

let encode_witness w wt =
  Util.Binio.write_string w wt.w_workload;
  Util.Binio.write_uint w wt.w_record;
  Util.Binio.write_uint w wt.w_tick

let decode_witness r =
  let w_workload = Util.Binio.read_string r in
  let w_record = Util.Binio.read_uint r in
  let w_tick = Util.Binio.read_uint r in
  { w_workload; w_record; w_tick }

(* Tables are dumped key-sorted so provenance snapshots stay canonical
   (identical state -> identical bytes) like the rest of the payload. *)
let encode_prov w p =
  Util.Binio.write_string w p.cur_workload;
  Util.Binio.write_uint w p.cap;
  Util.Binio.write_uint w p.dropped;
  let ds = ring_contents p in
  Util.Binio.write_uint w (List.length ds);
  List.iter (encode_death w) ds;
  let dump tbl enc =
    let kvs =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    Util.Binio.write_uint w (List.length kvs);
    List.iter (fun (k, v) -> Util.Binio.write_string w k; enc v) kvs
  in
  dump p.first_death (encode_death w);
  dump p.death_counts (Util.Binio.write_uint w);
  dump p.witnesses (encode_witness w);
  dump p.births (encode_witness w)

let decode_prov r =
  let cur_workload = Util.Binio.read_string r in
  let cap = Util.Binio.read_uint r in
  let dropped = Util.Binio.read_uint r in
  let p = make_prov cap in
  p.cur_workload <- cur_workload;
  let nring = Util.Binio.read_uint r in
  if nring > max 1 p.cap then
    raise (Corrupt_snapshot "death ring larger than its capacity");
  for _ = 1 to nring do ring_push p (decode_death r) done;
  p.dropped <- dropped;
  let load dec set =
    let n = Util.Binio.read_uint r in
    for _ = 1 to n do
      let k = Util.Binio.read_string r in
      set k (dec r)
    done
  in
  load decode_death (Hashtbl.replace p.first_death);
  load Util.Binio.read_uint (Hashtbl.replace p.death_counts);
  load decode_witness (Hashtbl.replace p.witnesses);
  load decode_witness (Hashtbl.replace p.births);
  p

let encode t =
  let payload = Util.Binio.writer () in
  encode_config payload t.config;
  Util.Binio.write_uint payload t.nrecords;
  let pts = sorted_points t in
  Util.Binio.write_uint payload (List.length pts);
  List.iter (encode_point payload) pts;
  let version =
    match t.prov with
    | None -> 1
    | Some p -> encode_prov payload p; codec_version
  in
  let payload = Util.Binio.contents payload in
  let header = Util.Binio.writer () in
  Util.Binio.write_raw header snapshot_magic;
  Util.Binio.write_uint header version;
  Util.Binio.write_string header "";
  Util.Binio.write_string header (Digest.string payload);
  Util.Binio.write_uint header (String.length payload);
  Util.Binio.contents header ^ payload

let save t path = Util.Binio.atomic_write path (encode t)

let decode ?config data =
  let mlen = String.length snapshot_magic in
  if String.length data < mlen
  || not (String.equal (String.sub data 0 mlen) snapshot_magic) then
    raise (Corrupt_snapshot "bad magic");
  match
    let r = Util.Binio.reader (String.sub data mlen (String.length data - mlen)) in
    let version = Util.Binio.read_uint r in
    if version < 1 || version > codec_version then
      raise (Stale_snapshot
               (Printf.sprintf "codec version %d, want 1..%d"
                  version codec_version));
    if not (String.equal (Util.Binio.read_string r) "") then
      raise (Stale_snapshot "keyed snapshot from the old shard cache");
    let digest = Util.Binio.read_string r in
    let plen = Util.Binio.read_uint r in
    let payload = Util.Binio.read_string_exact r plen in
    if not (Util.Binio.eof r) then
      raise (Corrupt_snapshot "trailing bytes");
    if not (String.equal (Digest.string payload) digest) then
      raise (Corrupt_snapshot "payload digest mismatch");
    let p = Util.Binio.reader payload in
    let stored_config = decode_config p in
    (match config with
     | Some c when c <> stored_config ->
       raise (Stale_snapshot "configuration fingerprint mismatch")
     | Some _ | None -> ());
    let nrecords = Util.Binio.read_uint p in
    let npoints = Util.Binio.read_uint p in
    let t =
      { config = stored_config; index = Hashtbl.create (max 17 npoints);
        tab = [||]; ntab = 0; last = None; sorted = None; nrecords;
        prov = None }
    in
    for _ = 1 to npoints do
      let st = decode_point stored_config p in
      if Hashtbl.mem t.index st.pname then
        raise (Corrupt_snapshot ("duplicate point " ^ st.pname));
      add_point t st
    done;
    if version >= 2 then t.prov <- Some (decode_prov p);
    if not (Util.Binio.eof p) then
      raise (Corrupt_snapshot "trailing payload bytes");
    t
  with
  | t -> t
  | exception Util.Binio.Truncated ->
    raise (Corrupt_snapshot "truncated snapshot")

let load ?config path = decode ?config (Util.Binio.read_file path)
