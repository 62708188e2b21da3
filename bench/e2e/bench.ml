(* Shared machinery of the scibench workloads: the run context, timed
   phases of checked operations, host facts, span accounting and JSON.

   A workload reaches the program only through its public modules; every
   such call is wrapped in a [bench.*] span so a traced run can tell how
   much of each operation the spans account for. *)

type ctx = {
  seed : int;
  seconds : float;   (** budget of one timed phase *)
  traced : bool;
  out_dir : string;  (** every file a run writes lives here *)
  setup_s : float;   (** set up for at least this long; see {!setups} *)
  kernel_s : float;  (** minimum wall time of one repeated layer kernel *)
}

(* Set up at least three times, and for at least a second: a median of
   three for the campaign's seconds-long mine -> optimize -> identify,
   of hundreds for a millisecond program start or server fork. *)
let min_setups = 3
let default_setup_s = 1.

(* The timed phase of a run: at least one operation of every workload,
   and short enough that two sets of ten runs per workload, with their
   set-ups and checks, finish within an hour on a two-core host running
   1.5x slower than when calm. *)
let default_seconds = 10.

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---- inputs ---- *)

(* Named suite programs; [None] is the 17-program corpus. *)
let programs = function
  | None -> Workloads.Suite.all
  | Some names ->
    List.map (fun n -> Option.get (Workloads.Suite.by_name n)) names

(* The toy sizes identify against three Table 1 bugs: enough for a few
   SCIs, few enough that phase 4's cross-validation takes milliseconds. *)
let toy_bugs = List.filteri (fun i _ -> i < 3) Bugs.Table1.all

(* ---- timing and statistics ---- *)

let now = Obs.Clock.now_ns
let secs_since t0 = Int64.to_float (Obs.Clock.ns_since t0) /. 1e9

(* [span name f] runs one public call of the program inside a bench
   span; with the null sink this costs two clock reads. *)
let span ?attrs name f = Obs.Span.with_ ?attrs ~name:("bench." ^ name) f

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a non-empty sample. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) k))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles as Python's statistics.quantiles(n=4)
   computes them (the "exclusive" method), so spreads read the same
   here as in any tool that judges the benchmark. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* Run [f] repeatedly until [min_s] seconds have passed (at least
   once); the wall time, repetition count and last result. *)
let repeat ~min_s f =
  let t0 = now () in
  let rec go n =
    let r = f () in
    let s = secs_since t0 in
    if s >= min_s then (s, n, r) else go (n + 1)
  in
  go 1

let time f =
  let t0 = now () in
  let r = f () in
  (r, secs_since t0)

(* ---- host facts ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let status_field ?(pid = "self") field =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
         match String.index_opt line ':' with
         | Some i when String.equal (String.sub line 0 i) field ->
           Some (String.trim
                   (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)
      (String.split_on_char '\n' text)

(* VmHWM: the peak resident set of a live process, in MiB. *)
let peak_rss_mb ?pid () =
  match status_field ?pid "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> failwith "VmHWM unavailable"

(* CPUs this process may run on, as [nproc] counts them. *)
let nproc () =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some list ->
    List.fold_left
      (fun n part ->
         match String.split_on_char '-' (String.trim part) with
         | [ a; b ] -> n + int_of_string b - int_of_string a + 1
         | [ a ] when a <> "" -> n + 1
         | _ -> n)
      0 (String.split_on_char ',' list)

(* The commit of the checkout, read from .git without running git;
   "unknown" outside a repository. *)
let git_commit () =
  let ref_of name =
    let loose = Filename.concat ".git" name in
    if Sys.file_exists loose then Some (String.trim (read_file loose))
    else
      match read_file (Filename.concat ".git" "packed-refs") with
      | exception Sys_error _ -> None
      | text ->
        List.find_map
          (fun line ->
             match String.split_on_char ' ' line with
             | [ sha; r ] when String.equal r name -> Some sha
             | _ -> None)
          (String.split_on_char '\n' text)
  in
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "unknown"
  | head ->
    let prefix = "ref: " in
    if String.starts_with ~prefix head then
      let name =
        String.sub head (String.length prefix)
          (String.length head - String.length prefix)
      in
      Option.value ~default:"unknown" (ref_of name)
    else head

let host () =
  Obs.Json.Obj
    [ ("nproc", Obs.Json.Num (float_of_int (nproc ())));
      ("recommended_domain_count",
       Obs.Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Obs.Json.Str Sys.ocaml_version);
      ("word_size", Obs.Json.Num (float_of_int Sys.word_size));
      ("commit", Obs.Json.Str (git_commit ())) ]

(* ---- JSON ---- *)

let json_to_string j =
  let b = Buffer.create 256 in
  let rec go = function
    | Obs.Json.Null -> Buffer.add_string b "null"
    | Obs.Json.Bool v -> Buffer.add_string b (string_of_bool v)
    | Obs.Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Buffer.add_string b (Printf.sprintf "%.0f" f)
    | Obs.Json.Num f -> Obs.Sink.buf_add_json_float b f
    | Obs.Json.Str s -> Obs.Sink.buf_add_json_string b s
    | Obs.Json.Arr l ->
      Buffer.add_char b '[';
      List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; go x) l;
      Buffer.add_char b ']'
    | Obs.Json.Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
           if i > 0 then Buffer.add_char b ',';
           Obs.Sink.buf_add_json_string b k;
           Buffer.add_char b ':';
           go x)
        l;
      Buffer.add_char b '}'
  in
  go j;
  Buffer.contents b

let num f = Obs.Json.Num f
let nums l = Obs.Json.Arr (List.map num l)

(* ---- checked operations and timed phases ---- *)

(* One timed operation: its interval, the work it completed, and the
   output check's verdict ([errors = []] means it passed). *)
type op = {
  start_ns : int64;
  dur_s : float;
  items : int;
  key : string;  (** outputs that every operation of a run must agree on *)
  mutable errors : string list;
}

type phase = {
  ops : op list;
  windows : (int64 * int64) list;
      (** the time the phase spent on its operations: where items_per_s
          divides and where span coverage is audited *)
  traced_phase : bool;
  gc : (string * float * string) list;
      (** the gc.* layer metrics, measured over this phase *)
}

let fail_op op msg = op.errors <- op.errors @ [ msg ]

let gc_metrics ~items ~ops ~(before : Gc.stat) ~(after : Gc.stat) =
  [ ("gc.minor_words_per_item",
     (after.Gc.minor_words -. before.Gc.minor_words)
     /. float_of_int (max 1 items),
     "words");
    ("gc.major_collections",
     float_of_int (after.Gc.major_collections - before.Gc.major_collections)
     /. float_of_int (max 1 ops),
     "count");
    ("gc.heap_top_mb",
     float_of_int (after.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.,
     "MiB") ]

(* Run operations for [seconds] (at least one): [run i] is timed, then
   [inspect] reads its result untimed — items done, agreement key and
   output-check errors. An exception fails that operation and the loop
   goes on. *)
let loop ~seconds ~traced ~run ~inspect () =
  let before = Gc.quick_stat () in
  let t0 = now () in
  let rec go i acc =
    if i > 0 && secs_since t0 >= seconds then List.rev acc
    else begin
      let start_ns = now () in
      let op =
        match run i with
        | r ->
          let dur_s = secs_since start_ns in
          (match inspect r with
           | items, key, errors -> { start_ns; dur_s; items; key; errors }
           | exception e ->
             { start_ns; dur_s; items = 0; key = "";
               errors = [ "check raised " ^ Printexc.to_string e ] })
        | exception e ->
          { start_ns; dur_s = secs_since start_ns; items = 0; key = "";
            errors = [ "raised " ^ Printexc.to_string e ] }
      in
      go (i + 1) (op :: acc)
    end
  in
  let ops = go 0 [] in
  let after = Gc.quick_stat () in
  let items = List.fold_left (fun n o -> n + o.items) 0 ops in
  { ops; traced_phase = traced;
    windows =
      List.map
        (fun o ->
           (o.start_ns, Int64.add o.start_ns (Int64.of_float (o.dur_s *. 1e9))))
        ops;
    gc = gc_metrics ~items ~ops:(List.length ops) ~before ~after }

(* Every operation of a run must reproduce the first one's outputs. *)
let check_agreement phases =
  match List.concat_map (fun p -> p.ops) phases with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i o ->
         if o.errors = [] && not (String.equal o.key first.key) then
           fail_op o
             (Printf.sprintf "operation %d disagrees with operation 0: %s vs %s"
                (i + 1) o.key first.key))
      rest

(* Time [f] repeatedly, [release] tearing down every result but the
   last: the set-up samples and the set-up the run goes on with. *)
let setups ctx ~release f =
  let t0 = now () in
  let rec go k acc =
    let env, s = time f in
    if k + 1 >= min_setups && secs_since t0 >= ctx.setup_s then
      (env, List.rev (s :: acc))
    else begin
      release env;
      go (k + 1) (s :: acc)
    end
  in
  go 0 []

(* ---- tracing: spans stay in memory and are written when the run ends ---- *)

let recorder = ref (Obs.Sink.null, fun () -> [])

(* Route the program's telemetry into memory from now on. *)
let start_tracing () =
  let ((sink, _) as r) = Obs.Sink.memory () in
  recorder := r;
  Obs.Sink.set_global sink

let stop_tracing () = Obs.Sink.set_global Obs.Sink.null

(* Everything recorded so far, the metric registry's snapshot last. *)
let events () = (snd !recorder) ()

let flush_metrics () = Obs.Metrics.emit_all (fst !recorder)

(* The timed phases of a run. Untraced, one phase gets the whole
   budget. Traced, an untraced half comes first — the reference for the
   tracing overhead — then a traced half, then [kernels] runs the layer
   ledger on the traced phase while tracing is still on. *)
let phases ctx ~phase ~kernels =
  if not ctx.traced then ([ phase ~traced:false ~seconds:ctx.seconds ], [])
  else begin
    let seconds = ctx.seconds /. 2. in
    let plain = phase ~traced:false ~seconds in
    start_tracing ();
    Fun.protect ~finally:stop_tracing (fun () ->
        let traced = phase ~traced:true ~seconds in
        ([ plain; traced ], kernels traced))
  end

(* ---- what a workload hands back ---- *)

type result = {
  workload : string;
  item : string;            (** what items_per_s counts *)
  setup_samples : float list;
  phases : phase list;      (** untraced first; a traced run adds one *)
  rss_mb : float;
  layers : (string * float * string) list;
      (** traced runs only: the ledger every workload reports *)
  extras : (string * float * string) list;
      (** traced runs only: layer metrics this workload alone has *)
}

let all_ops r = List.concat_map (fun p -> p.ops) r.phases
let untraced r = List.find (fun p -> not p.traced_phase) r.phases
let traced_phase r = List.find_opt (fun p -> p.traced_phase) r.phases

(* ---- span accounting over a traced run's events ---- *)

let spans_of events =
  List.filter_map
    (function
      | Obs.Sink.Span { name; parent; start_ns; dur_ns; _ } ->
        Some (name, parent, (start_ns, Int64.add start_ns dur_ns))
      | Obs.Sink.Metric _ -> None)
    events

(* Union of intervals clipped to [lo, hi), as sorted disjoint pieces. *)
let union_within (lo, hi) ivs =
  let clipped =
    List.filter_map
      (fun (a, b) ->
         let a = max a lo and b = min b hi in
         if Int64.compare a b < 0 then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  List.fold_left
    (fun acc (a, b) ->
       match acc with
       | (pa, pb) :: rest when Int64.compare a pb <= 0 -> (pa, max pb b) :: rest
       | _ -> (a, b) :: acc)
    [] clipped
  |> List.rev

let length ivs =
  List.fold_left (fun n (a, b) -> Int64.add n (Int64.sub b a)) 0L ivs

(* Share of the windows covered by bench spans, and the longest
   uncovered stretch (offset from its window's start, length). *)
let coverage events windows =
  let bench =
    List.filter_map
      (fun (name, _, iv) ->
         if String.starts_with ~prefix:"bench." name then Some iv else None)
      (spans_of events)
  in
  let total = length windows in
  let covered = ref 0L and gap = ref None in
  List.iter
    (fun (lo, hi) ->
       let pieces = union_within (lo, hi) bench in
       covered := Int64.add !covered (length pieces);
       let note a b =
         let len = Int64.sub b a in
         match !gap with
         | Some (_, l) when Int64.compare l len >= 0 -> ()
         | _ -> if Int64.compare len 0L > 0 then gap := Some (Int64.sub a lo, len)
       in
       let last =
         List.fold_left (fun cur (a, b) -> note cur a; b) lo pieces
       in
       note last hi)
    windows;
  let pct =
    if Int64.compare total 0L = 0 then 100.
    else 100. *. Int64.to_float !covered /. Int64.to_float total
  in
  (pct, !gap)

(* Self time of every span named [name] inside the windows: its length
   minus the part of it that its child spans cover. *)
let self_s events windows name =
  let spans = spans_of events in
  let inside (a, b) =
    List.exists (fun (lo, hi) -> a >= lo && b <= hi) windows
  in
  List.fold_left
    (fun acc (n, _, iv) ->
       if String.equal n name && inside iv then
         let children =
           List.filter_map
             (fun (_, p, c) -> if p = Some name then Some c else None)
             spans
         in
         let a, b = iv in
         acc
         +. Int64.to_float
              (Int64.sub (Int64.sub b a) (length (union_within iv children)))
            /. 1e9
       else acc)
    0. spans

(* Wall time during which at least one [name] span ran, within [iv]. *)
let busy_s events iv name =
  let ivs =
    List.filter_map
      (fun (n, _, s) -> if String.equal n name then Some s else None)
      (spans_of events)
  in
  Int64.to_float (length (union_within iv ivs)) /. 1e9
