(* The mining service, bottom-up: the wire framing and the JSON protocol
   under hostile bytes (test_binio discipline: every torn, oversized or
   garbage input is a structured error, never an escaping exception),
   the fair scheduler's ordering/backpressure/drain invariants, and the
   server end-to-end over a real Unix socket — including the acceptance
   bar that a session mined over the socket is byte-identical (SCIFSNAP
   digest and Figure 3 rows) to [Pipeline.mine] run directly. *)

module Pipeline = Scifinder_core.Pipeline

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let with_tmp_dir f =
  let dir = Filename.temp_file "scifinder_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
        Array.iter
          (fun n ->
             try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (try Sys.readdir dir with Sys_error _ -> [||]);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* ---- framing ---- *)

let drain dec =
  let rec go acc =
    match Serve.Frame.next dec with
    | `Frame p -> go (Ok p :: acc)
    | `Await -> List.rev acc
    | `Error e -> List.rev (Error e :: acc)
  in
  go []

let test_frame_roundtrip_bytewise () =
  (* Feeding one byte at a time must yield exactly the encoded frames,
     in order, whatever the payload bytes (including newlines). *)
  let payloads = [ ""; "x"; "{\"a\":1}"; "\n\n\n"; String.make 5000 '\xff' ] in
  let wire = String.concat "" (List.map Serve.Frame.encode payloads) in
  let dec = Serve.Frame.decoder () in
  let out = ref [] in
  String.iter
    (fun c ->
       Serve.Frame.feed dec (String.make 1 c);
       List.iter
         (fun f -> out := f :: !out)
         (drain dec))
    wire;
  let got =
    List.rev_map (function Ok p -> p | Error _ -> "<error>") !out
  in
  Alcotest.(check (list string)) "all frames, in order" payloads got

let expect_frame_error what wire =
  let dec = Serve.Frame.decoder () in
  Serve.Frame.feed dec wire;
  let rec go () =
    match Serve.Frame.next dec with
    | `Frame _ -> go ()
    | `Await -> Alcotest.failf "%s: decoder kept awaiting" what
    | `Error e -> e
  in
  go ()

let test_frame_hostile () =
  (match expect_frame_error "oversized" "99999999\n" with
   | Serve.Frame.Oversized n -> Alcotest.(check int) "length" 99999999 n
   | e -> Alcotest.failf "oversized: got %s" (Serve.Frame.error_message e));
  (match expect_frame_error "ten digits" "1000000000\n" with
   | Serve.Frame.Bad_length _ -> ()
   | e -> Alcotest.failf "ten digits: got %s" (Serve.Frame.error_message e));
  (match expect_frame_error "non-digit" "12a\n{}\n" with
   | Serve.Frame.Bad_length _ -> ()
   | e -> Alcotest.failf "non-digit: got %s" (Serve.Frame.error_message e));
  (match expect_frame_error "empty length" "\n{}\n" with
   | Serve.Frame.Bad_length _ -> ()
   | e -> Alcotest.failf "empty length: got %s" (Serve.Frame.error_message e));
  (match expect_frame_error "negative" "-1\n" with
   | Serve.Frame.Bad_length _ -> ()
   | e -> Alcotest.failf "negative: got %s" (Serve.Frame.error_message e));
  (match expect_frame_error "bad terminator" "2\n{}X" with
   | Serve.Frame.Bad_terminator -> ()
   | e ->
     Alcotest.failf "bad terminator: got %s" (Serve.Frame.error_message e));
  (* A truncated frame is not an error — just [`Await] forever (the
     disconnect is the caller's to detect). *)
  let dec = Serve.Frame.decoder () in
  Serve.Frame.feed dec "100\n{\"half";
  (match Serve.Frame.next dec with
   | `Await -> ()
   | _ -> Alcotest.fail "mid-frame bytes must await, not error");
  Alcotest.(check int) "pending bytes tracked" 10 (Serve.Frame.pending dec)

let frame_gen =
  QCheck.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 200))

let test_frame_qcheck =
  qtest "frame: encode |> feed in random chunks |> next = id"
    QCheck.(make
              Gen.(pair (list_size (0 -- 5) frame_gen) (1 -- 7)))
    (fun (payloads, chunk) ->
       let wire = String.concat "" (List.map Serve.Frame.encode payloads) in
       let dec = Serve.Frame.decoder () in
       let out = ref [] in
       let n = String.length wire in
       let rec feed off =
         if off < n then begin
           let len = min chunk (n - off) in
           Serve.Frame.feed dec (String.sub wire off len);
           List.iter
             (function
               | Ok p -> out := p :: !out
               | Error e -> QCheck.Test.fail_report (Serve.Frame.error_message e))
             (drain dec);
           feed (off + len)
         end
       in
       feed 0;
       List.rev !out = payloads)

(* ---- protocol codec ---- *)

(* Strings with quotes, backslashes, control bytes and non-ASCII: the
   JSON escaping must round-trip all of them. *)
let hostile_string =
  QCheck.Gen.oneofl
    [ "pi"; "helloworld"; "a\"b\\c"; "\x00\x01\x1f"; "caf\xc3\xa9";
      "line\nbreak"; "" ]

let request_gen : Serve.Proto.envelope QCheck.Gen.t =
  let open QCheck.Gen in
  let open Serve.Proto in
  let source =
    oneof
      [ map (fun l -> Names l) (list_size (1 -- 3) hostile_string);
        map2 (fun seed count -> Fuzz { seed; count }) (0 -- 1000) (1 -- 64);
        map (fun d -> Lake d) hostile_string ]
  in
  let request =
    oneof
      [ map3
          (fun source label (row, digest) -> Mine { source; label; row; digest })
          source (option hostile_string) (pair bool bool);
        map (fun text -> Check { text }) hostile_string;
        map2
          (fun (seed, mutants) (triggers, tries) ->
             Campaign { seed; mutants; triggers; tries })
          (pair (0 -- 99) (1 -- 500)) (pair (1 -- 64) (1 -- 5));
        map (fun path -> Snapshot { path }) hostile_string;
        return Status;
        map (fun target -> Cancel { target }) (0 -- 1000);
        return Shutdown ]
  in
  map3
    (fun id session request -> { id; session; request })
    (0 -- 10000) (option hostile_string) request

let response_gen : Serve.Proto.response QCheck.Gen.t =
  let open QCheck.Gen in
  let open Serve.Proto in
  let id = 0 -- 10000 in
  let row =
    map3
      (fun r_label (r_unmodified, r_fresh) (r_deleted, r_total) ->
         { r_label; r_unmodified; r_fresh; r_deleted; r_total })
      hostile_string (pair (0 -- 9999) (0 -- 9999)) (pair (0 -- 9999) (0 -- 9999))
  in
  let session_stat =
    map3
      (fun st_name (st_records, st_sources) (st_queued, st_running) ->
         { st_name; st_records; st_sources; st_queued; st_running })
      hostile_string (pair (0 -- 9999) (0 -- 99)) (pair (0 -- 9) bool)
  in
  oneof
    [ map3
        (fun id (records, total_records) (rows, (invariants, digest)) ->
           Mined { id; records; total_records; rows; invariants; digest })
        id (pair (0 -- 9999) (0 -- 9999))
        (pair (list_size (0 -- 3) row) (pair (-1 -- 500) (option hostile_string)));
      map3
        (fun id (supported, violated) (vacuous, statuses) ->
           Checked { id; supported; violated; vacuous; statuses })
        id (pair (0 -- 99) (0 -- 99))
        (pair (0 -- 99) (list_size (0 -- 4) hostile_string));
      map3
        (fun id (mutants, detected) (fp_triggers, fingerprint) ->
           Campaigned { id; mutants; detected; fp_triggers; fingerprint })
        id (pair (0 -- 99) (0 -- 99)) (pair (0 -- 99) hostile_string);
      map3
        (fun id path (bytes, digest) -> Snapshotted { id; path; bytes; digest })
        id hostile_string (pair (0 -- 999999) hostile_string);
      map3
        (fun id (uptime_ms, sessions) ((queued, running), (completed, busy)) ->
           (* p99 as an exact binary fraction so structural equality
              survives the float's JSON round-trip *)
           Stats
             { id; uptime_ms; sessions; queued; running; completed; busy;
               evicted = completed / 2;
               p99_job_ms = float_of_int busy /. 4. })
        id
        (pair (0 -- 999999) (list_size (0 -- 3) session_stat))
        (pair (pair (0 -- 99) (0 -- 99)) (pair (0 -- 99) (0 -- 99)));
      map3 (fun id target found -> Cancelled { id; target; found })
        id (0 -- 1000) bool;
      map3 (fun id queued limit -> Busy { id; queued; limit })
        id (0 -- 99) (1 -- 99);
      map (fun id -> Bye { id }) id;
      map2 (fun id message -> Failed { id; message }) id hostile_string ]

let test_proto_request_roundtrip =
  qtest "proto: request encode |> decode = id" (QCheck.make request_gen)
    (fun env ->
       match Serve.Proto.(decode_request (encode_request env)) with
       | Ok env' -> env' = env
       | Error m -> QCheck.Test.fail_report m)

let test_proto_response_roundtrip =
  qtest "proto: response encode |> decode = id" (QCheck.make response_gen)
    (fun r ->
       match Serve.Proto.(decode_response (encode_response r)) with
       | Ok r' -> r' = r
       | Error m -> QCheck.Test.fail_report m)

let expect_bad_request what payload =
  match Serve.Proto.decode_request payload with
  | Ok _ -> Alcotest.failf "%s: decoded instead of erroring" what
  | Error _ -> ()
  | exception e ->
    Alcotest.failf "%s: raised %s instead of Error" what (Printexc.to_string e)

let test_proto_hostile () =
  expect_bad_request "empty" "";
  expect_bad_request "garbage" "\xff\xfe\x00\x01";
  expect_bad_request "invalid utf8 in json" "{\"type\":\"\xc3(\"}";
  expect_bad_request "not an object" "[1,2,3]";
  expect_bad_request "unknown type" "{\"id\":1,\"type\":\"explode\"}";
  expect_bad_request "missing type" "{\"id\":1}";
  expect_bad_request "mine with no source"
    "{\"id\":1,\"type\":\"mine\"}";
  expect_bad_request "mine with two sources"
    "{\"id\":1,\"type\":\"mine\",\"names\":[\"pi\"],\"lake\":\"/l\"}";
  expect_bad_request "mine with non-string name"
    "{\"id\":1,\"type\":\"mine\",\"names\":[42]}";
  expect_bad_request "fractional id"
    "{\"id\":1.5,\"type\":\"status\"}";
  expect_bad_request "huge id"
    "{\"id\":1e30,\"type\":\"status\"}";
  expect_bad_request "cancel without target"
    "{\"id\":1,\"type\":\"cancel\"}";
  (* And the response side, which clients decode from the network. *)
  (match Serve.Proto.decode_response "{\"id\":1,\"type\":\"warp\"}" with
   | Ok _ -> Alcotest.fail "unknown response type decoded"
   | Error _ -> ())

(* ---- scheduler ---- *)

let mk_gate () =
  let m = Mutex.create () and c = Condition.create () and open_ = ref false in
  let wait () =
    Mutex.protect m (fun () ->
        while not !open_ do Condition.wait c m done)
  and release () =
    Mutex.protect m (fun () ->
        open_ := true;
        Condition.broadcast c)
  in
  (wait, release)

let test_scheduler_fair_and_ordered () =
  let order = ref [] and olock = Mutex.create () in
  let sched =
    Serve.Scheduler.create ~jobs:1 ~max_inflight:8
      ~on_complete:(fun ~tag ~key:_ r ->
          Mutex.protect olock (fun () -> order := (tag, r) :: !order))
      ()
  in
  let wait, release = mk_gate () in
  let submit session tag r work =
    match Serve.Scheduler.submit sched ~session ~tag ~key:tag
            ~work:(fun () -> work (); r)
    with
    | `Queued _ -> ()
    | `Busy _ | `Stopping -> Alcotest.fail "unexpected refusal"
  in
  (* Hold the single worker, then pile up 3 jobs on A and 3 on B while
     it is blocked: the rotation must interleave them A,B,A,B,A,B. *)
  submit "a" 0 "gate" wait;
  (* Wait until the gate job is actually running so the rest queue. *)
  let rec settle n =
    if n = 0 then Alcotest.fail "gate job never started";
    let s = Serve.Scheduler.stats sched in
    if s.Serve.Scheduler.running = 0 then begin
      Unix.sleepf 0.01;
      settle (n - 1)
    end
  in
  settle 500;
  for i = 1 to 3 do submit "a" (10 + i) "a" ignore done;
  for i = 1 to 3 do submit "b" (20 + i) "b" ignore done;
  release ();
  Serve.Scheduler.drain sched;
  let tags = List.rev_map fst !order in
  Alcotest.(check (list int)) "round-robin, FIFO within a session"
    [ 0; 11; 21; 12; 22; 13; 23 ] tags;
  let s = Serve.Scheduler.stats sched in
  Alcotest.(check int) "completed" 7 s.Serve.Scheduler.completed;
  Alcotest.(check int) "nothing inflight" 0 (Serve.Scheduler.inflight sched)

let test_scheduler_backpressure_and_cancel () =
  let done_ = Atomic.make 0 in
  let sched =
    Serve.Scheduler.create ~jobs:1 ~max_inflight:2
      ~on_complete:(fun ~tag:_ ~key:_ () -> Atomic.incr done_)
      ()
  in
  let wait, release = mk_gate () in
  (match Serve.Scheduler.submit sched ~session:"s" ~tag:1 ~key:1
           ~work:(fun () -> wait ())
   with
   | `Queued _ -> ()
   | _ -> Alcotest.fail "first submit refused");
  let rec settle n =
    if n = 0 then Alcotest.fail "gate job never started";
    if (Serve.Scheduler.stats sched).Serve.Scheduler.running = 0 then begin
      Unix.sleepf 0.01;
      settle (n - 1)
    end
  in
  settle 500;
  (match Serve.Scheduler.submit sched ~session:"s" ~tag:2 ~key:2
           ~work:ignore
   with
   | `Queued _ -> ()
   | _ -> Alcotest.fail "second submit refused");
  (* Window is 2 (one running + one queued): the third must bounce, and
     bounce must not consume a slot. *)
  (match Serve.Scheduler.submit sched ~session:"s" ~tag:3 ~key:3
           ~work:ignore
   with
   | `Busy (depth, limit) ->
     Alcotest.(check (pair int int)) "depth/limit" (2, 2) (depth, limit)
   | _ -> Alcotest.fail "third submit not refused");
  (* Another session is unaffected by s's full window. *)
  (match Serve.Scheduler.submit sched ~session:"t" ~tag:4 ~key:4
           ~work:ignore
   with
   | `Queued _ -> ()
   | _ -> Alcotest.fail "other session refused");
  (* Cancel the queued key-2 job while it is still waiting. *)
  Alcotest.(check (list (pair int int))) "cancel returns the dropped job"
    [ (2, 2) ]
    (Serve.Scheduler.cancel sched ~session:"s" ~key:2);
  Alcotest.(check bool) "session not idle while gate runs" false
    (Serve.Scheduler.session_idle sched "s");
  Alcotest.(check bool) "busy session cannot be forgotten" false
    (Serve.Scheduler.forget sched "s");
  release ();
  Serve.Scheduler.drain sched;
  Alcotest.(check int) "gate + t ran; cancelled job did not" 2
    (Atomic.get done_);
  (match Serve.Scheduler.submit sched ~session:"s" ~tag:9 ~key:9
           ~work:ignore
   with
   | `Stopping -> ()
   | _ -> Alcotest.fail "drained scheduler accepted work")

(* ---- the server, end to end over a Unix socket ---- *)

let with_server ?(jobs = 2) ?(max_inflight = 4) ?(idle_timeout = 300.)
    ?cache_dir ?(mine_jobs = 1) f =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "serve.sock" in
      let cfg =
        { Serve.Server.listen = Serve.Server.Unix_sock path; jobs;
          max_inflight; idle_timeout; cache_dir; mine_jobs }
      in
      let srv = Serve.Server.create cfg in
      let d = Domain.spawn (fun () -> Serve.Server.run srv) in
      Fun.protect
        ~finally:(fun () ->
            Serve.Server.stop srv;
            Domain.join d)
        (fun () -> f path))

let call_one path ?session req =
  let c = Serve.Client.connect_unix path in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () -> Serve.Client.call c ?session req)

let mine_names ?label ?(row = true) ?(digest = false) names =
  Serve.Proto.Mine
    { source = Serve.Proto.Names names; label; row; digest }

let test_server_mine_and_check () =
  with_server (fun path ->
      let c = Serve.Client.connect_unix path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (* One workload mined live for the expected record count. *)
      let m = Pipeline.mine_invariants ~jobs:1 ~names:[ "pi" ] () in
      (match Serve.Client.call c (mine_names ~digest:true [ "pi" ]) with
       | Serve.Proto.Mined { records; total_records; rows; invariants; digest; _ } ->
         Alcotest.(check bool) "some records" true (records > 0);
         Alcotest.(check int) "session total" records total_records;
         Alcotest.(check int) "one row" 1 (List.length rows);
         Alcotest.(check int) "invariants match a direct mine"
           (List.length m) invariants;
         Alcotest.(check bool) "digest returned" true (digest <> None)
       | r -> Alcotest.failf "mine: %s" (Serve.Proto.encode_response r));
      (* Incremental: a second workload lands in the same session. *)
      (match Serve.Client.call c (mine_names [ "helloworld" ]) with
       | Serve.Proto.Mined { records; total_records; _ } ->
         Alcotest.(check bool) "accumulates" true (total_records > records)
       | r -> Alcotest.failf "mine 2: %s" (Serve.Proto.encode_response r));
      (* Check: an invariant of the session's full corpus is supported;
         a pi-only invariant that helloworld's trace falsified is
         violated; nonsense text is a structured failure. *)
      let both =
        Pipeline.mine_invariants ~jobs:1 ~names:[ "pi"; "helloworld" ] ()
      in
      let both_s =
        List.map Invariant.Expr.to_string both
      in
      let falsified =
        List.filter
          (fun i -> not (List.mem (Invariant.Expr.to_string i) both_s))
          m
      in
      Alcotest.(check bool) "helloworld falsified some pi invariant" true
        (falsified <> []);
      let text =
        Invariant.Expr.to_string (List.hd both) ^ "\n"
        ^ Invariant.Expr.to_string (List.hd falsified)
      in
      (match Serve.Client.call c (Serve.Proto.Check { text }) with
       | Serve.Proto.Checked { supported; violated; statuses; _ } ->
         Alcotest.(check int) "supported" 1 supported;
         Alcotest.(check int) "violated" 1 violated;
         Alcotest.(check (list string)) "statuses in input order"
           [ "supported"; "violated" ] statuses
       | r -> Alcotest.failf "check: %s" (Serve.Proto.encode_response r));
      (match Serve.Client.call c (Serve.Proto.Check { text = "not a grammar" })
       with
       | Serve.Proto.Failed _ -> ()
       | r -> Alcotest.failf "bad check: %s" (Serve.Proto.encode_response r));
      (* Status sees the session. *)
      (match Serve.Client.call c Serve.Proto.Status with
       | Serve.Proto.Stats { sessions; completed; _ } ->
         Alcotest.(check bool) "completed some jobs" true (completed >= 2);
         Alcotest.(check bool) "session listed" true
           (List.exists
              (fun (s : Serve.Proto.session_stat) -> s.st_name = "default")
              sessions)
       | r -> Alcotest.failf "status: %s" (Serve.Proto.encode_response r)))

let test_server_hostile_bytes () =
  with_server (fun path ->
      (* Garbage JSON in a valid frame: structured Failed, id 0, and the
         connection stays usable. *)
      let c = Serve.Client.connect_unix path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let fd_of_path () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      in
      let send_raw fd s =
        ignore (Unix.write_substring fd s 0 (String.length s))
      in
      (* 1. hostile payloads on a dedicated connection *)
      let fd = fd_of_path () in
      send_raw fd (Serve.Frame.encode "\xff\xfe not json");
      send_raw fd (Serve.Frame.encode "{\"id\":7,\"type\":\"explode\"}");
      let dec = Serve.Frame.decoder () in
      let buf = Bytes.create 4096 in
      let rec read_frames want acc =
        if List.length acc >= want then List.rev acc
        else
          match Serve.Frame.next dec with
          | `Frame p -> read_frames want (p :: acc)
          | `Error e -> Alcotest.failf "frame error: %s" (Serve.Frame.error_message e)
          | `Await ->
            (match Unix.read fd buf 0 4096 with
             | 0 -> Alcotest.fail "server closed on decodable garbage"
             | n ->
               Serve.Frame.feed dec (Bytes.sub_string buf 0 n);
               read_frames want acc)
      in
      (* Both are answered with a structured Failed. The envelope never
         decoded, so the server cannot echo an id and uses 0. *)
      (match read_frames 2 [] with
       | [ a; b ] ->
         (match Serve.Proto.decode_response a, Serve.Proto.decode_response b with
          | Ok (Serve.Proto.Failed { id = 0; _ }),
            Ok (Serve.Proto.Failed { id = 0; _ }) -> ()
          | _ -> Alcotest.failf "unexpected replies %s / %s" a b)
       | _ -> Alcotest.fail "expected two replies");
      (* ... and the same connection still serves real requests. *)
      send_raw fd
        (Serve.Frame.encode
           (Serve.Proto.encode_request
              { Serve.Proto.id = 8; session = None; request = Serve.Proto.Status }));
      (match read_frames 1 [] with
       | [ a ] ->
         (match Serve.Proto.decode_response a with
          | Ok (Serve.Proto.Stats { id = 8; _ }) -> ()
          | _ -> Alcotest.failf "after garbage: %s" a)
       | _ -> Alcotest.fail "no reply after garbage");
      Unix.close fd;
      (* 2. an unrecoverable framing error gets one Failed, then the
         server hangs up. *)
      let fd = fd_of_path () in
      send_raw fd "99999999\n";
      let dec = Serve.Frame.decoder () in
      let rec read_all acc =
        match Unix.read fd buf 0 4096 with
        | 0 -> acc
        | n ->
          Serve.Frame.feed dec (Bytes.sub_string buf 0 n);
          read_all acc
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> acc
      in
      ignore (read_all ());
      (match Serve.Frame.next dec with
       | `Frame p ->
         (match Serve.Proto.decode_response p with
          | Ok (Serve.Proto.Failed { id = 0; _ }) -> ()
          | _ -> Alcotest.failf "oversized: %s" p)
       | _ -> Alcotest.fail "no Failed before hangup");
      Unix.close fd;
      (* 3. a mid-frame disconnect must not disturb the server ... *)
      let fd = fd_of_path () in
      send_raw fd "100\n{\"half";
      Unix.close fd;
      (* ... which still answers on the pooled connection. *)
      (match Serve.Client.call c Serve.Proto.Status with
       | Serve.Proto.Stats _ -> ()
       | r -> Alcotest.failf "after disconnects: %s" (Serve.Proto.encode_response r));
      (* 4. unknown workload / bad lake dir are structured failures. *)
      (match Serve.Client.call c (mine_names [ "no-such-workload" ]) with
       | Serve.Proto.Failed _ -> ()
       | r -> Alcotest.failf "bad workload: %s" (Serve.Proto.encode_response r));
      (match Serve.Client.call c
               (Serve.Proto.Mine
                  { source = Serve.Proto.Lake "/nonexistent/lake";
                    label = None; row = true; digest = false })
       with
       | Serve.Proto.Failed _ -> ()
       | r -> Alcotest.failf "bad lake: %s" (Serve.Proto.encode_response r)))

let test_server_busy_and_cancel () =
  with_server ~jobs:1 ~max_inflight:2 (fun path ->
      let c = Serve.Client.connect_unix path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (* Pipeline 8 mine requests in one burst against a window of 2:
         every response is either Mined or an explicit Busy, they sum to
         8, and at least one bounced. *)
      let ids =
        List.init 8 (fun _ -> Serve.Client.send c (mine_names [ "pi" ]))
      in
      let mined = ref 0 and busy = ref 0 in
      List.iter
        (fun id ->
           match Serve.Client.recv_id c id with
           | Serve.Proto.Mined _ -> incr mined
           | Serve.Proto.Busy { queued; limit; _ } ->
             Alcotest.(check int) "busy reports the window" 2 limit;
             Alcotest.(check bool) "busy depth at the window" true
               (queued >= 1 && queued <= limit);
             incr busy
           | r -> Alcotest.failf "burst: %s" (Serve.Proto.encode_response r))
        ids;
      Alcotest.(check int) "every request answered" 8 (!mined + !busy);
      Alcotest.(check bool) "backpressure engaged" true (!busy >= 1);
      Alcotest.(check bool) "window still admitted work" true (!mined >= 2);
      (* Cancel: queue a long job (the whole corpus — seconds on one
         worker) then a victim behind it; the victim is dropped and
         answered before the long job finishes. Status polls pin down
         the scheduler state between steps (completion responses are
         written slightly before the worker releases the session, so
         back-to-back submits could otherwise see a stale-full window
         and bounce). *)
      let rec wait_running want n =
        if n = 0 then Alcotest.fail "scheduler never settled";
        match Serve.Client.call c Serve.Proto.Status with
        | Serve.Proto.Stats { running; queued; _ }
          when running = want && queued = 0 -> ()
        | Serve.Proto.Stats _ ->
          Unix.sleepf 0.01;
          wait_running want (n - 1)
        | r -> Alcotest.failf "status: %s" (Serve.Proto.encode_response r)
      in
      wait_running 0 500;
      let long =
        Serve.Client.send c
          (mine_names ~row:false Workloads.Suite.names)
      in
      wait_running 1 500;
      let victim = Serve.Client.send c (mine_names [ "helloworld" ]) in
      (match Serve.Client.call c (Serve.Proto.Cancel { target = victim }) with
       | Serve.Proto.Cancelled { target; found; _ } ->
         Alcotest.(check int) "echoes the target" victim target;
         Alcotest.(check bool) "victim was still queued" true found
       | r -> Alcotest.failf "cancel: %s" (Serve.Proto.encode_response r));
      (match Serve.Client.recv_id c victim with
       | Serve.Proto.Failed { message; _ } ->
         Alcotest.(check string) "cancelled reply" "cancelled" message
       | r -> Alcotest.failf "victim: %s" (Serve.Proto.encode_response r));
      (match Serve.Client.recv_id c long with
       | Serve.Proto.Mined _ -> ()
       | r -> Alcotest.failf "long job: %s" (Serve.Proto.encode_response r));
      (* Cancelling something unknown is found=false, not an error. *)
      (match Serve.Client.call c (Serve.Proto.Cancel { target = 99999 }) with
       | Serve.Proto.Cancelled { found = false; _ } -> ()
       | r -> Alcotest.failf "cancel unknown: %s" (Serve.Proto.encode_response r)))

let test_server_sessions_and_eviction () =
  with_server ~idle_timeout:0.1 (fun path ->
      (* Two named sessions do not share engine state. *)
      let r1 = call_one path ~session:"left" (mine_names [ "pi" ]) in
      let r2 = call_one path ~session:"right" (mine_names [ "pi" ]) in
      (match (r1, r2) with
       | Serve.Proto.Mined { total_records = a; _ },
         Serve.Proto.Mined { total_records = b; _ } ->
         Alcotest.(check int) "independent sessions" a b
       | _ -> Alcotest.fail "session mines failed");
      (* After the idle timeout, the sessions are evicted: mining again
         starts from empty state (total == fresh records, not 2x). *)
      Unix.sleepf 0.6;
      (match call_one path ~session:"left" (mine_names [ "pi" ]) with
       | Serve.Proto.Mined { records; total_records; _ } ->
         Alcotest.(check int) "state was evicted, not resumed"
           records total_records
       | r -> Alcotest.failf "post-evict: %s" (Serve.Proto.encode_response r));
      (match call_one path Serve.Proto.Status with
       | Serve.Proto.Stats { evicted; _ } ->
         Alcotest.(check bool) "evictions counted" true (evicted >= 2)
       | r -> Alcotest.failf "status: %s" (Serve.Proto.encode_response r)))

(* Idle time runs from the end of a session's last job: a job longer
   than the idle timeout must not get its session evicted by the next
   eviction pass, before its client can send another request. *)
let test_server_long_job_keeps_session () =
  with_server ~idle_timeout:0.25 (fun path ->
      let c = Serve.Client.connect_unix path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let t0 = Obs.Clock.now_s () in
      ignore
        (Serve.Client.call c ~session:"long"
           (mine_names ~row:false Workloads.Suite.names));
      Alcotest.(check bool) "the job outlasted the idle timeout" true
        (Obs.Clock.now_s () -. t0 > 0.25);
      (* Let the job's completion settle, then drive one loop pass (and
         so one eviction pass) through another connection. *)
      Unix.sleepf 0.05;
      ignore (call_one path Serve.Proto.Status);
      match Serve.Client.call c ~session:"long" (mine_names [ "pi" ]) with
      | Serve.Proto.Mined { records; total_records; _ } ->
        Alcotest.(check bool) "session survived its long job" true
          (total_records > records)
      | r -> Alcotest.failf "after long job: %s" (Serve.Proto.encode_response r))

let test_server_snapshot_and_shutdown () =
  with_tmp_dir (fun snapdir ->
      with_server (fun path ->
          let snap = Filename.concat snapdir "session.snap" in
          let c = Serve.Client.connect_unix path in
          Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
          (match Serve.Client.call c (mine_names [ "pi" ]) with
           | Serve.Proto.Mined _ -> ()
           | r -> Alcotest.failf "mine: %s" (Serve.Proto.encode_response r));
          (match Serve.Client.call c (Serve.Proto.Snapshot { path = snap }) with
           | Serve.Proto.Snapshotted { bytes; digest; _ } ->
             Alcotest.(check bool) "snapshot written" true
               (Sys.file_exists snap);
             Alcotest.(check int) "byte count is the file size"
               (Unix.stat snap).Unix.st_size bytes;
             Alcotest.(check string) "digest is of the file"
               (Digest.to_hex (Digest.file snap)) digest;
             (* The snapshot is a loadable SCIFSNAP engine. *)
             ignore (Daikon.Engine.load snap)
           | r -> Alcotest.failf "snapshot: %s" (Serve.Proto.encode_response r));
          (* Graceful shutdown over the wire: Bye arrives, then the
             server loop exits (with_server joins the domain). *)
          (match Serve.Client.call c Serve.Proto.Shutdown with
           | Serve.Proto.Bye _ -> ()
           | r -> Alcotest.failf "shutdown: %s" (Serve.Proto.encode_response r))))

(* ---- serve == batch determinism (the acceptance bar) ---- *)

let test_serve_equals_batch () =
  with_server (fun path ->
      (* Mine the standard Figure 3 corpus group by group through a
         session, exactly as the batch pipeline does. *)
      let c = Serve.Client.connect_unix path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let groups = Workloads.Suite.figure3_groups
      and labels = Workloads.Suite.figure3_labels in
      let served_rows = ref [] and served_digest = ref None in
      let last = List.length groups - 1 in
      List.iteri
        (fun i (group, label) ->
           match
             Serve.Client.call c
               (mine_names ~label ~digest:(i = last) group)
           with
           | Serve.Proto.Mined { rows; digest; _ } ->
             served_rows := !served_rows @ rows;
             if i = last then served_digest := digest
           | Serve.Proto.Busy _ ->
             Alcotest.fail "sequential calls cannot be busy"
           | r -> Alcotest.failf "mine %s: %s" label
                    (Serve.Proto.encode_response r))
        (List.combine groups labels);
      (* Figure 3 rows: identical to a direct sharded batch mine. *)
      let batch = Pipeline.mine ~jobs:2 () in
      let of_batch =
        List.map
          (fun (r : Pipeline.figure3_row) ->
             { Serve.Proto.r_label = r.group_label;
               r_unmodified = r.unmodified; r_fresh = r.fresh;
               r_deleted = r.deleted; r_total = r.total })
          batch.Pipeline.figure3
      in
      Alcotest.(check bool) "Figure 3 rows identical to Pipeline.mine" true
        (!served_rows = of_batch);
      (* Engine bytes: identical to the sequential reference (the same
         Session API the server runs, jobs=1, no cache). *)
      let s = Pipeline.Session.create () in
      let rt_groups =
        List.map
          (List.map (fun n -> Option.get (Workloads.Suite.by_name n)))
          groups
      in
      ignore (Pipeline.Session.mine_groups s ~labels rt_groups);
      (match !served_digest with
       | Some d ->
         Alcotest.(check string) "SCIFSNAP digest identical to direct run"
           (Pipeline.Session.engine_digest s) d
       | None -> Alcotest.fail "no digest returned"))

let () =
  Alcotest.run "serve"
    [ ("frame",
       [ Alcotest.test_case "byte-by-byte round-trip" `Quick
           test_frame_roundtrip_bytewise;
         Alcotest.test_case "hostile inputs" `Quick test_frame_hostile;
         test_frame_qcheck ]);
      ("proto",
       [ test_proto_request_roundtrip;
         test_proto_response_roundtrip;
         Alcotest.test_case "hostile inputs" `Quick test_proto_hostile ]);
      ("scheduler",
       [ Alcotest.test_case "fair and ordered" `Quick
           test_scheduler_fair_and_ordered;
         Alcotest.test_case "backpressure and cancel" `Quick
           test_scheduler_backpressure_and_cancel ]);
      ("server",
       [ Alcotest.test_case "mine, check, status" `Quick
           test_server_mine_and_check;
         Alcotest.test_case "hostile bytes" `Quick test_server_hostile_bytes;
         Alcotest.test_case "busy and cancel" `Quick
           test_server_busy_and_cancel;
         Alcotest.test_case "sessions and eviction" `Quick
           test_server_sessions_and_eviction;
         Alcotest.test_case "long job keeps its session" `Quick
           test_server_long_job_keeps_session;
         Alcotest.test_case "snapshot and shutdown" `Quick
           test_server_snapshot_and_shutdown ]);
      ("determinism",
       [ Alcotest.test_case "serve == batch (rows + SCIFSNAP digest)"
           `Slow test_serve_equals_batch ]) ]
