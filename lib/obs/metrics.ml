(* The global metrics registry. Counters are single Atomic adds so the
   mining hot paths can bump them from worker domains without a lock;
   histograms serialise on a per-instrument mutex (they are observed at
   per-phase / per-run cadence, not per record). *)

type counter = { cname : string; cunit : string option; n : int Atomic.t }

type gauge = { gname : string; gunit : string option; level : float Atomic.t }

(* Log-linear bucket histogram: values 0-7 get a bucket each, and every
   power of two above is split into 8 linear sub-buckets, so a bucket's
   width is at most 1/8 of its lower bound. 480 buckets cover the int
   range; percentile estimates report the bucket's upper bound. *)
type histogram = {
  hname : string;
  hunit : string option;
  lock : Mutex.t;
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable hmin : int;
  mutable hmax : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 97
let registry_lock = Mutex.create ()

let find_or_register name build cast describe =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some i ->
        (match cast i with
         | Some x -> x
         | None ->
           invalid_arg
             (Printf.sprintf "Obs.Metrics: %s already registered as a %s"
                name (describe i)))
      | None ->
        let x, i = build () in
        Hashtbl.add registry name i;
        x)

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

(* The unit is fixed by whoever registers the instrument first — it is
   part of the declaration, like the kind, not per-call state. *)
let counter ?unit name =
  find_or_register name
    (fun () ->
       let c = { cname = name; cunit = unit; n = Atomic.make 0 } in
       (c, Counter c))
    (function Counter c -> Some c | _ -> None)
    kind_name

let incr c = Atomic.incr c.n
let add c k = ignore (Atomic.fetch_and_add c.n k)
let counter_value c = Atomic.get c.n

let gauge ?unit name =
  find_or_register name
    (fun () ->
       let g = { gname = name; gunit = unit; level = Atomic.make 0.0 } in
       (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)
    kind_name

let set g v = Atomic.set g.level v

let rec set_max g v =
  let cur = Atomic.get g.level in
  if v > cur && not (Atomic.compare_and_set g.level cur v) then set_max g v

let gauge_value g = Atomic.get g.level

let histogram ?unit name =
  find_or_register name
    (fun () ->
       let h = { hname = name; hunit = unit; lock = Mutex.create ();
                 buckets = Array.make 480 0;
                 count = 0; sum = 0; hmin = max_int; hmax = min_int } in
       (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)
    kind_name

(* Sub-bucket [s] of power [e] (2^e <= v < 2^(e+1), e >= 3) holds
   [(8 + s) lsl (e - 3)] up to one below [(9 + s) lsl (e - 3)]. *)
let bucket_of v =
  if v < 8 then v
  else begin
    let rec log2 e v = if v <= 1 then e else log2 (e + 1) (v lsr 1) in
    let e = log2 0 v in
    8 * (e - 2) + ((v lsr (e - 3)) land 7)
  end

let bucket_upper b =
  if b < 8 then b
  else begin
    let e = (b / 8) + 2 and s = b land 7 in
    ((9 + s) lsl (e - 3)) - 1
  end

let observe h v =
  let v = max 0 v in
  let b = bucket_of v in
  Mutex.protect h.lock (fun () ->
      h.buckets.(b) <- h.buckets.(b) + 1;
      h.count <- h.count + 1;
      h.sum <- h.sum + v;
      if v < h.hmin then h.hmin <- v;
      if v > h.hmax then h.hmax <- v)

let histogram_count h = Mutex.protect h.lock (fun () -> h.count)

(* Upper bound of the bucket holding the q-th observation. *)
let percentile_estimate h q =
  if h.count = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
    let seen = ref 0 and b = ref 0 in
    while !seen < rank && !b < Array.length h.buckets do
      seen := !seen + h.buckets.(!b);
      if !seen < rank then Stdlib.incr b
    done;
    min h.hmax (bucket_upper !b)
  end

let histogram_percentile h q =
  Mutex.protect h.lock (fun () -> percentile_estimate h q)

type snapshot = {
  metric : string;
  kind : string;
  value : float;
  attrs : (string * Sink.value) list;
}

let unit_attr = function
  | None -> []
  | Some u -> [ ("unit", Sink.S u) ]

let snapshot_of = function
  | Counter c ->
    { metric = c.cname; kind = "counter";
      value = float_of_int (Atomic.get c.n); attrs = unit_attr c.cunit }
  | Gauge g ->
    { metric = g.gname; kind = "gauge"; value = Atomic.get g.level;
      attrs = unit_attr g.gunit }
  | Histogram h ->
    Mutex.protect h.lock (fun () ->
        let mean =
          if h.count = 0 then 0.0
          else float_of_int h.sum /. float_of_int h.count
        in
        { metric = h.hname; kind = "histogram";
          value = float_of_int h.count;
          attrs =
            [ ("count", Sink.I h.count);
              ("sum", Sink.I h.sum);
              ("min", Sink.I (if h.count = 0 then 0 else h.hmin));
              ("max", Sink.I (if h.count = 0 then 0 else h.hmax));
              ("mean", Sink.F mean);
              ("p50", Sink.I (percentile_estimate h 0.50));
              ("p95", Sink.I (percentile_estimate h 0.95));
              ("p99", Sink.I (percentile_estimate h 0.99)) ]
            @ unit_attr h.hunit })

let snapshot () =
  let all =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold (fun _ i acc -> i :: acc) registry [])
  in
  List.sort (fun a b -> compare a.metric b.metric) (List.map snapshot_of all)

let emit_all sink =
  List.iter
    (fun s ->
       Sink.emit sink
         (Sink.Metric
            { name = s.metric; kind = s.kind; value = s.value;
              attrs = s.attrs }))
    (snapshot ())

let reset () = Mutex.protect registry_lock (fun () -> Hashtbl.reset registry)
