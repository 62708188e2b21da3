(* serve: the mining service under a closed loop — each caller waits for
   its reply before sending again. The server (Serve.Server, 2 workers,
   inflight window 4) runs in a child process forked before any domain
   starts; one generator thread drives [connections] connections over
   Unix.select, speaking Serve.Frame/Proto directly. An episode opens a
   fresh session, mines the programs one request each with row:true
   (the last one also asks for the engine digest), then sends one Check
   of [check] invariants the seed picks. The engine works in small
   increments here, with one extraction and Figure 3 diff per request
   plus framing and scheduling: the reverse of lake's single large
   fold. *)

module Pipeline = Scifinder_core.Pipeline
module Session = Pipeline.Session
module Proto = Serve.Proto

type size = {
  names : string list option;  (** [None]: the 17-program corpus *)
  check : int;                 (** invariants per Check request *)
  bugs : Bugs.Registry.t list;  (** the layer ledger's identification *)
}

let full = { names = None; check = 64; bugs = Bugs.Table1.all }

let toy = { names = Some [ "pi"; "helloworld" ]; check = 4; bugs = Bench.toy_bugs }

let connections = 2

(* ---- the reference: a direct sequential session on the same inputs ---- *)

type reference = {
  steps : (int * Proto.row list) array;  (** per program: records, rows *)
  digest : string;
  early : Invariant.Expr.t list;  (** after the first program *)
  final : Invariant.Expr.t list;
  session : Session.t;
}

let reference size =
  let session = Session.create () in
  let early = ref [] in
  let steps =
    List.mapi
      (fun i (w : Workloads.Rt.t) ->
         let o = Session.mine session ~label:w.name ~row:true [ w ] in
         if i = 0 then early := Session.invariants session;
         (o.Session.o_records, List.map Layers.row_of o.Session.o_rows))
      (Bench.programs size.names)
  in
  { steps = Array.of_list steps; digest = Session.engine_digest session;
    early = !early; final = Session.invariants session; session }

(* Episode [k]'s Check: half from the set after the first program (many
   of those are falsified later), half from the final set. *)
let check_text (ctx : Bench.ctx) size refr k =
  let half = size.check / 2 in
  let seed = (ctx.seed * 7919) + k in
  String.concat "\n"
    (List.map Invariant.Expr.to_string
       (Layers.pick ~seed half refr.early
        @ Layers.pick ~seed:(seed + 1) (size.check - half) refr.final))

(* ---- the server child ---- *)

type server = { pid : int; sock : string; mutable live : bool }

let server_log (ctx : Bench.ctx) = Filename.concat ctx.out_dir "serve.server.jsonl"

let gauge sink name value =
  Obs.Sink.emit sink (Obs.Sink.Metric { name; kind = "gauge"; value; attrs = [] })

(* Every episode abandons its session; evicting it after a second idle
   keeps the daemon's heap — and its peak RSS — independent of how many
   episodes a run completes. *)
let idle_timeout = 1.0

let child ~log sock =
  let gc0 = Gc.quick_stat () in
  let sink =
    match log with Some path -> Obs.Sink.jsonl path | None -> Obs.Sink.null
  in
  Obs.Sink.set_global sink;
  let srv =
    Serve.Server.create
      { (Serve.Server.default_config (Serve.Server.Unix_sock sock)) with
        jobs = 2; max_inflight = 4; idle_timeout }
  in
  Serve.Server.run srv;
  (* the child's own allocation: fork copies the parent's counters *)
  let gc = Gc.quick_stat () in
  gauge sink "gc.minor_words" (gc.Gc.minor_words -. gc0.Gc.minor_words);
  gauge sink "gc.major_collections"
    (float_of_int (gc.Gc.major_collections - gc0.Gc.major_collections));
  gauge sink "gc.top_heap_words" (float_of_int gc.Gc.top_heap_words);
  Obs.Metrics.emit_all sink;
  Obs.Sink.close sink

let rec connect ~deadline sock =
  match Serve.Client.connect_unix sock with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when Bench.secs_since deadline < 30. ->
    Unix.sleepf 0.002;
    connect ~deadline sock

let count = ref 0

(* Fork a server and wait for its first reply: the serve set-up. *)
let start (ctx : Bench.ctx) ~log =
  incr count;
  let sock =
    Filename.concat ctx.out_dir
      (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !count)
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code = match child ~log sock with () -> 0 | exception _ -> 1 in
    Unix._exit code
  | pid ->
    let srv = { pid; sock; live = true } in
    let c = connect ~deadline:(Bench.now ()) sock in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
        match Serve.Client.call c Proto.Status with
        | Proto.Stats _ -> srv
        | r -> failwith ("status: " ^ Proto.encode_response r))

let reap srv =
  if srv.live then begin
    srv.live <- false;
    match Unix.waitpid [] srv.pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "server exited abnormally"
  end

(* Graceful: the server drains, flushes its telemetry and exits. *)
let stop srv =
  if srv.live then begin
    let c = Serve.Client.connect_unix srv.sock in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
        ignore (Serve.Client.call c Proto.Shutdown));
    reap srv
  end

let kill srv =
  if srv.live then begin
    (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
    srv.live <- false;
    ignore (Unix.waitpid [] srv.pid)
  end

(* ---- the load generator ---- *)

type conn = {
  cid : int;
  fd : Unix.file_descr;
  dec : Serve.Frame.decoder;
  mutable episode : int;
  mutable step : int;
  mutable next_id : int;
  mutable inflight : (int * Bench.op) option;
}

(* A request's check that needs the reference session's Check answer is
   settled after the load, so the loop never stalls on it. *)
type pending_check = { op : Bench.op; episode : int; counts : int * int * int }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let load (ctx : Bench.ctx) size refr srv ~traced ~seconds =
  let names =
    List.map (fun (w : Workloads.Rt.t) -> w.name) (Bench.programs size.names)
  in
  let n = List.length names in
  let conns =
    Array.init connections (fun cid ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX srv.sock);
        { cid; fd; dec = Serve.Frame.decoder (); episode = cid; step = 0;
          next_id = 1; inflight = None })
  in
  let ops = ref [] and checks = ref [] and busy = ref 0 in
  let t0 = Bench.now () in
  let send c =
    let request =
      if c.step < n then
        let name = List.nth names c.step in
        Proto.Mine
          { source = Proto.Names [ name ]; label = Some name; row = true;
            digest = c.step = n - 1 }
      else Proto.Check { text = check_text ctx size refr c.episode }
    in
    let id = c.next_id in
    c.next_id <- id + 1;
    let frame =
      Serve.Frame.encode
        (Proto.encode_request
           { Proto.id; session = Some (Printf.sprintf "e%d" c.episode); request })
    in
    let op =
      { Bench.start_ns = Bench.now (); dur_s = 0.; items = 1; key = "";
        errors = [] }
    in
    write_all c.fd frame 0;
    c.inflight <- Some (id, op)
  in
  let expect_mined c op ~records ~rows ~digest =
    let want_records, want_rows = refr.steps.(c.step) in
    if records <> want_records || rows <> want_rows then
      Bench.fail_op op
        (Printf.sprintf "episode %d step %d: rows differ from the direct session"
           c.episode c.step);
    if c.step = n - 1 && digest <> Some refr.digest then
      Bench.fail_op op
        (Printf.sprintf "episode %d: digest differs from the direct session"
           c.episode)
  in
  let finish c response =
    match c.inflight with
    | None -> failwith "reply without a request"
    | Some (id, op) ->
      let op = { op with Bench.dur_s = Bench.secs_since op.Bench.start_ns } in
      Obs.Sink.emit_global
        (Obs.Sink.Span
           { name = "bench.request"; parent = None; domain = 0;
             start_ns = op.start_ns;
             dur_ns = Int64.of_float (op.dur_s *. 1e9);
             attrs =
               [ ("conn", Obs.Sink.I c.cid); ("id", Obs.Sink.I id);
                 ("episode", Obs.Sink.I c.episode);
                 ("step", Obs.Sink.I c.step) ] });
      c.inflight <- None;
      ops := op :: !ops;
      (match response with
       | Error e -> Bench.fail_op op ("undecodable reply: " ^ e)
       | Ok r when Proto.response_id r <> id ->
         Bench.fail_op op (Printf.sprintf "reply id %d for request %d"
                             (Proto.response_id r) id)
       | Ok (Proto.Mined { records; rows; digest; _ }) when c.step < n ->
         expect_mined c op ~records ~rows ~digest
       | Ok (Proto.Checked { supported; violated; vacuous; _ }) when c.step = n ->
         checks :=
           { op; episode = c.episode; counts = (supported, violated, vacuous) }
           :: !checks
       | Ok (Proto.Busy _) ->
         incr busy;
         Bench.fail_op op "busy"
       | Ok r -> Bench.fail_op op ("unexpected reply " ^ Proto.encode_response r));
      (* Connections stop only between episodes, so every run samples
         the programs in the same proportions. *)
      if c.step < n then begin
        c.step <- c.step + 1;
        send c
      end
      else if Bench.secs_since t0 < seconds then begin
        c.episode <- c.episode + connections;
        c.step <- 0;
        send c
      end
  in
  let buf = Bytes.create 65536 in
  let read c =
    let got = Unix.read c.fd buf 0 (Bytes.length buf) in
    if got = 0 then failwith "server closed the connection";
    Serve.Frame.feed c.dec (Bytes.sub_string buf 0 got);
    let rec drain () =
      match Serve.Frame.next c.dec with
      | `Frame payload ->
        finish c (Proto.decode_response payload);
        drain ()
      | `Await -> ()
      | `Error e -> failwith (Serve.Frame.error_message e)
    in
    drain ()
  in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun c -> Unix.close c.fd) conns)
    (fun () ->
       Array.iter send conns;
       let rec pump () =
         let waiting =
           Array.to_list conns |> List.filter (fun c -> c.inflight <> None)
         in
         if waiting <> [] then begin
           match Unix.select (List.map (fun c -> c.fd) waiting) [] [] 60. with
           | [], _, _ -> failwith "no reply within 60 s"
           | ready, _, _ ->
             List.iter (fun c -> if List.mem c.fd ready then read c) waiting;
             pump ()
         end
       in
       pump ());
  let t1 = Bench.now () in
  let ops = List.rev !ops in
  ( { Bench.ops; windows = [ (t0, t1) ];
      traced_phase = traced; gc = [] },
    List.rev !checks, !busy )

(* The direct session's answers to every episode's Check, in one pass. *)
let settle_checks ctx size refr checks =
  let episodes = List.sort_uniq compare (List.map (fun p -> p.episode) checks) in
  let parsed =
    List.map
      (fun k -> (k, Invariant.Io.of_string (check_text ctx size refr k)))
      episodes
  in
  let statuses =
    ref (Session.check refr.session (List.concat_map snd parsed))
  in
  let expected =
    List.map
      (fun (k, invs) ->
         let mine = List.filteri (fun i _ -> i < List.length invs) !statuses in
         statuses := List.filteri (fun i _ -> i >= List.length invs) !statuses;
         let count st = List.length (List.filter (fun (_, s) -> s = st) mine) in
         ( k,
           ( count Session.Supported, count Session.Violated,
             count Session.Vacuous ) ))
      parsed
  in
  List.iter
    (fun p ->
       let s, v, q = List.assoc p.episode expected in
       if p.counts <> (s, v, q) then begin
         let gs, gv, gq = p.counts in
         Bench.fail_op p.op
           (Printf.sprintf
              "episode %d check: served %d/%d/%d, direct session %d/%d/%d \
               (supported/violated/vacuous)"
              p.episode gs gv gq s v q)
       end)
    checks

let histogram (run : Obs.Report.run) name =
  List.find_opt (fun (m : Obs.Report.metric) -> m.mname = name) run.metrics
  |> Option.map (fun (m : Obs.Report.metric) -> m.mattrs)

let attr attrs key =
  match List.assoc_opt key attrs with Some (Obs.Json.Num f) -> f | _ -> 0.

let gauge_value (run : Obs.Report.run) name =
  match
    List.find_opt (fun (m : Obs.Report.metric) -> m.mname = name) run.metrics
  with
  | Some m -> m.mvalue
  | None -> failwith ("server telemetry lacks " ^ name)

(* The server's side of the traced load, from its flushed telemetry. *)
let server_layers ctx ~requests ~busy =
  let run = Obs.Report.load_file (server_log ctx) in
  let ms attrs key = attr attrs key /. 1e6 in
  let job name =
    match histogram run ("serve.job." ^ name ^ "_ns") with
    | Some a ->
      [ ("serve." ^ name ^ "_ms_mean", ms a "mean", "ms");
        ("serve." ^ name ^ "_ms_p50", ms a "p50", "ms");
        ("serve." ^ name ^ "_ms_p95", ms a "p95", "ms") ]
    | None -> failwith "server telemetry lacks the job histograms"
  in
  let per = float_of_int (max 1 requests) in
  ( job "wait" @ job "run"
    @ [ ("serve.busy_ratio", float_of_int busy /. per, "ratio") ],
    [ ("gc.minor_words_per_item", gauge_value run "gc.minor_words" /. per, "words");
      ("gc.major_collections", gauge_value run "gc.major_collections" /. per,
       "count");
      ("gc.heap_top_mb",
       gauge_value run "gc.top_heap_words" *. float_of_int (Sys.word_size / 8)
       /. 1048576.,
       "MiB") ] )

(* A server's workers force two library lazies on first use — the
   runner's exception counters and Invariant.Io's name table — and two
   first requests running at once can both force one and fail with
   Lazy.Undefined. Forcing them before the fork hands every server
   forced copies. *)
let force_lazies () =
  let w = List.hd Workloads.Suite.all in
  ignore
    (Trace.Runner.stream ~tick_period:w.tick_period ~entry:w.entry
       ~observer:ignore w.image);
  ignore (Invariant.Io.of_string "risingEdge(l.add) -> GPR0 = 0")

let run ?(size = full) (ctx : Bench.ctx) =
  force_lazies ();
  let servers = ref [] in
  let start ~log =
    let srv = start ctx ~log in
    servers := srv :: !servers;
    srv
  in
  Fun.protect ~finally:(fun () -> List.iter kill !servers) @@ fun () ->
  (* Every fork happens first: before any domain exists, and while the
     parent's heap — which a child starts from — is still small. *)
  let plain_srv, setup_samples =
    Bench.setups ctx ~release:stop (fun () -> start ~log:None)
  in
  let traced_srv =
    if ctx.traced then Some (start ~log:(Some (server_log ctx))) else None
  in
  let refr = reference size in
  let rss_mb = ref 0. and server_side = ref [] in
  let phase ~traced ~seconds =
    let srv = if traced then Option.get traced_srv else plain_srv in
    let phase, checks, busy = load ctx size refr srv ~traced ~seconds in
    if not traced then rss_mb := Bench.peak_rss_mb ~pid:(string_of_int srv.pid) ();
    stop srv;
    settle_checks ctx size refr checks;
    if not traced then phase
    else begin
      let own, gc =
        server_layers ctx ~requests:(List.length phase.Bench.ops) ~busy
      in
      server_side := own;
      { phase with Bench.gc }
    end
  in
  let kernels _ =
    Layers.run ctx
      { Layers.programs = Bench.programs size.names; lake = None;
        invariants = refr.final; bugs = size.bugs; seed = ctx.seed }
      ~events:Bench.events
  in
  let phases, layers = Bench.phases ctx ~phase ~kernels in
  { Bench.workload = "serve"; item = "requests"; setup_samples; phases;
    rss_mb = !rss_mb; layers; extras = !server_side }
