(* Compiling assertion batteries to specialized closures.

   [Expr.violated] interprets the invariant AST per evaluation: match on
   the body, match on each term, bounds-checked Record.get, plus a
   String.equal point guard. Here the AST is walked once at compile time
   and each assertion becomes one flat [Trace.Record.t -> bool] that
   returns the VIOLATED polarity directly:

     - constant subterms fold (Imm op Imm bodies become a preboxed bool;
       Mod with k = 0 folds to the constant 0 the interpreter defines);
     - the dominant mined shapes (var-vs-imm and var-vs-var comparisons)
       open-code the comparison against r.values.(i) with no closure
       chain;
     - In-sets are sorted, deduped int arrays probed by binary search
       (semantically List.mem: an empty set is always violated);
     - everything else composes the two compiled term readers through
       the same Expr.eval_cmp the oracle uses.

   Point dispatch copies the mining engine's interning trick: batches
   live in a point-keyed table behind a one-entry last-point cache, and
   because trace points are per-branch mnemonic literals, the
   String.equal in the cache check usually short-circuits on physical
   equality. Straight-line code between taken branches keeps hitting the
   cache without touching the table. *)

module Expr = Invariant.Expr

(* ---- term compilation ---- *)

(* A compiled operand: either a folded constant, a bare variable read
   (kept symbolic so comparisons can open-code it), or a residual
   function. *)
type cterm =
  | Const of int
  | Read of int
  | Fn of (Trace.Record.t -> int)

let cterm = function
  | Expr.Imm k -> Const k
  | Expr.V id -> Read id
  | Expr.Mul (id, k) ->
    Fn (fun r -> Util.U32.mul r.Trace.Record.values.(id) k)
  | Expr.Mod (_, 0) -> Const 0       (* the interpreter's k = 0 convention *)
  | Expr.Mod (id, k) -> Fn (fun r -> r.Trace.Record.values.(id) mod k)
  | Expr.Notv id -> Fn (fun r -> Util.U32.lognot r.Trace.Record.values.(id))
  | Expr.Bin (op, a, b) ->
    (match op with
     | Expr.Band -> Fn (fun r ->
         let v = r.Trace.Record.values in v.(a) land v.(b))
     | Expr.Bor -> Fn (fun r ->
         let v = r.Trace.Record.values in v.(a) lor v.(b))
     | Expr.Plus -> Fn (fun r ->
         let v = r.Trace.Record.values in Util.U32.add v.(a) v.(b))
     | Expr.Minus -> Fn (fun r ->
         let v = r.Trace.Record.values in
         Util.U32.signed (Util.U32.sub v.(a) v.(b))))

let force = function
  | Const k -> fun _ -> k
  | Read i -> fun (r : Trace.Record.t) -> r.Trace.Record.values.(i)
  | Fn f -> f

(* ---- body compilation: closures return VIOLATED ---- *)

let compile_cmp op ta tb =
  match ta, tb with
  | Const a, Const b ->
    let v = not (Expr.eval_cmp op a b) in
    fun _ -> v
  | Read i, Const k ->
    (match op with
     | Expr.Eq -> fun (r : Trace.Record.t) -> r.Trace.Record.values.(i) <> k
     | Expr.Ne -> fun r -> r.Trace.Record.values.(i) = k
     | Expr.Lt -> fun r -> r.Trace.Record.values.(i) >= k
     | Expr.Le -> fun r -> r.Trace.Record.values.(i) > k
     | Expr.Gt -> fun r -> r.Trace.Record.values.(i) <= k
     | Expr.Ge -> fun r -> r.Trace.Record.values.(i) < k)
  | Const k, Read i ->
    (match op with
     | Expr.Eq -> fun (r : Trace.Record.t) -> k <> r.Trace.Record.values.(i)
     | Expr.Ne -> fun r -> k = r.Trace.Record.values.(i)
     | Expr.Lt -> fun r -> k >= r.Trace.Record.values.(i)
     | Expr.Le -> fun r -> k > r.Trace.Record.values.(i)
     | Expr.Gt -> fun r -> k <= r.Trace.Record.values.(i)
     | Expr.Ge -> fun r -> k < r.Trace.Record.values.(i))
  | Read i, Read j ->
    (match op with
     | Expr.Eq -> fun (r : Trace.Record.t) ->
         let v = r.Trace.Record.values in v.(i) <> v.(j)
     | Expr.Ne -> fun r -> let v = r.Trace.Record.values in v.(i) = v.(j)
     | Expr.Lt -> fun r -> let v = r.Trace.Record.values in v.(i) >= v.(j)
     | Expr.Le -> fun r -> let v = r.Trace.Record.values in v.(i) > v.(j)
     | Expr.Gt -> fun r -> let v = r.Trace.Record.values in v.(i) <= v.(j)
     | Expr.Ge -> fun r -> let v = r.Trace.Record.values in v.(i) < v.(j))
  | _ ->
    let fa = force ta and fb = force tb in
    (match op with
     | Expr.Eq -> fun r -> fa r <> fb r
     | Expr.Ne -> fun r -> fa r = fb r
     | Expr.Lt -> fun r -> fa r >= fb r
     | Expr.Le -> fun r -> fa r > fb r
     | Expr.Gt -> fun r -> fa r <= fb r
     | Expr.Ge -> fun r -> fa r < fb r)

let compile_in ta values =
  let set = Array.of_list (List.sort_uniq compare values) in
  let n = Array.length set in
  let member =
    if n = 0 then fun _ -> false
    else if n = 1 then (let k = set.(0) in fun x -> x = k)
    else if n <= 8 then
      fun x ->
        let rec go i = i < n && (set.(i) = x || go (i + 1)) in
        go 0
    else
      fun x ->
        let rec bisect lo hi =
          if lo >= hi then false
          else begin
            let mid = (lo + hi) / 2 in
            let v = set.(mid) in
            if v = x then true
            else if v < x then bisect (mid + 1) hi
            else bisect lo mid
          end
        in
        bisect 0 n
  in
  match ta with
  | Const k -> let v = not (member k) in fun _ -> v
  | Read i -> fun (r : Trace.Record.t) -> not (member r.Trace.Record.values.(i))
  | Fn f -> fun r -> not (member (f r))

let compile_body = function
  | Expr.Cmp (op, lhs, rhs) -> compile_cmp op (cterm lhs) (cterm rhs)
  | Expr.In (term, values) -> compile_in (cterm term) values

(* ---- the compiled battery ---- *)

type slot = {
  s_index : int;                           (* position in the battery *)
  s_assertion : Ovl.t;
  s_violated : Trace.Record.t -> bool;
  s_fired : Obs.Metrics.counter;           (* resolved once, at compile *)
}

type t = {
  battery : Ovl.t array;
  by_point : (string, slot array) Hashtbl.t;
  empty : slot array;
  mutable last_point : string;
  mutable last_batch : slot array;
}

let c_records = Obs.Metrics.counter "monitor.compiled.records"
let c_evals = Obs.Metrics.counter "monitor.compiled.evaluations"
let c_firings = Obs.Metrics.counter "monitor.compiled.firings"
let h_run_ns = Obs.Metrics.histogram ~unit:"ns" "monitor.compiled.run_ns"

let compile assertions =
  let battery = Array.of_list assertions in
  let order = Hashtbl.create 64 in
  Array.iteri
    (fun i (a : Ovl.t) ->
       let slot =
         { s_index = i;
           s_assertion = a;
           s_violated = compile_body a.Ovl.invariant.Expr.body;
           s_fired = Obs.Metrics.counter ("monitor.fired." ^ a.Ovl.name) }
       in
       let point = a.Ovl.invariant.Expr.point in
       Hashtbl.replace order point
         (slot :: Option.value ~default:[] (Hashtbl.find_opt order point)))
    battery;
  let by_point = Hashtbl.create 64 in
  Hashtbl.iter
    (fun point slots ->
       Hashtbl.replace by_point point (Array.of_list (List.rev slots)))
    order;
  { battery; by_point; empty = [||]; last_point = "\000"; last_batch = [||] }

let size t = Array.length t.battery

(* Interned-point dispatch: the cache check is a String.equal that hits
   physical equality for per-branch mnemonic literals, so straight-line
   trace sections never touch the hashtable. *)
let batch_for t point =
  if String.equal point t.last_point then t.last_batch
  else begin
    let batch =
      match Hashtbl.find_opt t.by_point point with
      | Some b -> b
      | None -> t.empty
    in
    t.last_point <- point;
    t.last_batch <- batch;
    batch
  end

let run t records =
  let t0 = Obs.Clock.now_ns () in
  let nrecords = ref 0 and nevals = ref 0 and nfirings = ref 0 in
  let firings = ref [] in
  List.iteri
    (fun step (record : Trace.Record.t) ->
       incr nrecords;
       let batch = batch_for t record.Trace.Record.point in
       let n = Array.length batch in
       for i = 0 to n - 1 do
         incr nevals;
         let slot = Array.unsafe_get batch i in
         if slot.s_violated record then begin
           incr nfirings;
           Obs.Metrics.incr slot.s_fired;
           firings :=
             { Monitor.assertion = slot.s_assertion; step; record }
             :: !firings
         end
       done)
    records;
  Obs.Metrics.add c_records !nrecords;
  Obs.Metrics.add c_evals !nevals;
  Obs.Metrics.add c_firings !nfirings;
  Obs.Metrics.observe h_run_ns (Int64.to_int (Obs.Clock.ns_since t0));
  List.rev !firings

let check_mask t = function
  | None -> None
  | Some mask ->
    if Array.length mask <> size t then
      invalid_arg "Compile.first_firing: mask length <> battery size";
    Some mask

type source = (Trace.Record.t -> unit) -> unit

let of_list records emit = List.iter emit records

(* The first-firing step: one record, the live slots of its batch in
   battery order, the first that fires. [step] is the record's index in
   the pass; the pass's record and evaluation counts accumulate here and
   reach the global metrics once, when the pass ends. *)
type pass = {
  compiled : t;
  mask : bool array option;
  mutable index : int;
  mutable evals : int;
}

let first_live p (record : Trace.Record.t) =
  let step = p.index in
  p.index <- step + 1;
  let batch = batch_for p.compiled record.Trace.Record.point in
  let n = Array.length batch in
  let rec probe i =
    if i >= n then None
    else begin
      let slot = Array.unsafe_get batch i in
      if match p.mask with None -> false | Some m -> m.(slot.s_index)
      then probe (i + 1)
      else begin
        p.evals <- p.evals + 1;
        if slot.s_violated record then begin
          Obs.Metrics.incr slot.s_fired;
          Obs.Metrics.add c_firings 1;
          Some { Monitor.assertion = slot.s_assertion; step; record }
        end
        else probe (i + 1)
      end
    end
  in
  probe 0

let first_firing_of ?ignore t (source : source) =
  let p = { compiled = t; mask = check_mask t ignore; index = 0; evals = 0 } in
  let t0 = Obs.Clock.now_ns () in
  let exception Fired of Monitor.firing in
  let result =
    match
      source (fun record ->
          match first_live p record with
          | Some f -> raise_notrace (Fired f)
          | None -> ())
    with
    | () -> None
    | exception Fired f -> Some f
  in
  Obs.Metrics.add c_records p.index;
  Obs.Metrics.add c_evals p.evals;
  Obs.Metrics.observe h_run_ns (Int64.to_int (Obs.Clock.ns_since t0));
  result

let first_firing ?ignore t records =
  first_firing_of ?ignore t (of_list records)

let detects ?ignore t records = first_firing ?ignore t records <> None

(* The fired-set step: mark every assertion of the record's batch that
   fires here and has not fired before. *)
let mark_fired t fired (record : Trace.Record.t) =
  Array.iter
    (fun slot ->
       if not fired.(slot.s_index) && slot.s_violated record then
         fired.(slot.s_index) <- true)
    (batch_for t record.Trace.Record.point)

let fired_set_of t (source : source) =
  let fired = Array.make (size t) false in
  source (mark_fired t fired);
  fired

let fired_set t records = fired_set_of t (of_list records)

let fired_assertions t records =
  let fired = fired_set t records in
  let out = ref [] in
  for i = size t - 1 downto 0 do
    if fired.(i) then out := t.battery.(i) :: !out
  done;
  !out
