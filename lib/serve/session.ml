(* One client session: a [Pipeline.Session] plus idle-eviction
   bookkeeping, and the executor mapping protocol requests onto it.

   [execute] runs on a scheduler worker domain — the scheduler
   guarantees at most one job per session at a time, so the pipeline
   session is single-writer. It is total: every failure mode lands in a
   [Proto.Failed] response. *)

module Pipeline = Scifinder_core.Pipeline

type t = {
  name : string;
  ps : Pipeline.Session.t;
  mutable last_active : float;  (* Obs.Clock.now_s at last activity *)
}

let create ?cache_dir ~mine_jobs name =
  { name;
    ps = Pipeline.Session.create ~jobs:mine_jobs ?cache_dir ();
    last_active = Obs.Clock.now_s () }

let name t = t.name
let touch t = t.last_active <- Obs.Clock.now_s ()
let last_active t = t.last_active
let records t = Pipeline.Session.record_count t.ps
let sources t = Pipeline.Session.source_count t.ps
let pipeline_session t = t.ps

let fail id fmt =
  Printf.ksprintf (fun message -> Proto.Failed { id; message }) fmt

let row_of (r : Pipeline.figure3_row) =
  { Proto.r_label = r.group_label;
    r_unmodified = r.unmodified;
    r_fresh = r.fresh;
    r_deleted = r.deleted;
    r_total = r.total }

let clamp lo hi v = max lo (min hi v)

(* Hostile inputs bound every generated corpus: a fuzz mine caps at 512
   candidates per request, a campaign at LASHED-campaign scale. *)
let max_fuzz_count = 512

let resolve_workloads = function
  | Proto.Names names ->
    let missing =
      List.filter (fun n -> Option.is_none (Workloads.Suite.by_name n)) names
    in
    (match (names, missing) with
     | [], _ -> Error "mine: empty workload list"
     | _, [] ->
       Ok
         (List.map
            (fun n -> Option.get (Workloads.Suite.by_name n))
            names)
     | _, missing ->
       Error ("unknown workload(s): " ^ String.concat ", " missing))
  | Proto.Fuzz { seed; count } ->
    if count < 1 then Error "fuzz: count must be positive"
    else if count > max_fuzz_count then
      Error (Printf.sprintf "fuzz: count exceeds limit %d" max_fuzz_count)
    else
      Ok (List.init count (fun index -> Fuzz.Gen.candidate ~seed ~index))
  | Proto.Lake _ -> Error "lake source resolved separately"

let execute_exn t ~id (req : Proto.request) : Proto.response =
  match req with
  | Proto.Mine { source = Proto.Lake dir; label = _; row; digest } ->
    (* With [mine_jobs > 1] this replay shards across the session's
       domain pool and merges back into the session engine — the digest
       reported below is byte-identical to a sequential replay, so
       serve == batch identity gates hold at any worker count. *)
    let m = Pipeline.Session.mine_lake t.ps dir in
    Proto.Mined
      { id;
        records = m.Pipeline.record_count;
        total_records = records t;
        rows = (if row then List.map row_of m.Pipeline.figure3 else []);
        invariants = List.length m.Pipeline.invariants;
        digest =
          (if digest then Some (Pipeline.Session.engine_digest t.ps)
           else None) }
  | Proto.Mine { source; label; row; digest } ->
    (match resolve_workloads source with
     | Error m -> fail id "%s" m
     | Ok ws ->
       let o = Pipeline.Session.mine t.ps ?label ~row ws in
       let invariants =
         (* The last row's total is the current invariant count; without
            a row, extraction was skipped and the count is unknown. *)
         match List.rev o.Pipeline.Session.o_rows with
         | last :: _ -> last.Pipeline.total
         | [] -> -1
       in
       Proto.Mined
         { id;
           records = o.Pipeline.Session.o_records;
           total_records = records t;
           rows = List.map row_of o.Pipeline.Session.o_rows;
           invariants;
           digest =
             (if digest then Some (Pipeline.Session.engine_digest t.ps)
              else None) })
  | Proto.Check { text } ->
    let invs = Invariant.Io.of_string text in
    let results = Pipeline.Session.check t.ps invs in
    let count st =
      List.length (List.filter (fun (_, s) -> s = st) results)
    in
    Proto.Checked
      { id;
        supported = count Pipeline.Session.Supported;
        violated = count Pipeline.Session.Violated;
        vacuous = count Pipeline.Session.Vacuous;
        statuses =
          List.map
            (fun (_, s) -> Pipeline.Session.check_status_name s)
            results }
  | Proto.Campaign { seed; mutants; triggers; tries } ->
    if records t = 0 then
      fail id "campaign: session has no mined corpus (mine first)"
    else begin
      let mutants = clamp 1 1000 mutants
      and triggers = clamp 1 128 triggers
      and tries = clamp 1 10 tries in
      let opt = Pipeline.optimize (Pipeline.Session.invariants t.ps) in
      let ident =
        Pipeline.identify
          ~invariants:opt.Pipeline.result.Invopt.Pipeline.optimized
          Bugs.Table1.all
      in
      let sci = ident.Pipeline.summary.Sci.Identify.unique_sci in
      let c = Pipeline.campaign ~seed ~mutants ~triggers ~tries ~sci () in
      Proto.Campaigned
        { id;
          mutants = c.Pipeline.mutant_total;
          detected = c.Pipeline.detected_total;
          fp_triggers = c.Pipeline.fp_trigger_count;
          fingerprint = c.Pipeline.fingerprint }
    end
  | Proto.Snapshot { path } ->
    Pipeline.Session.save t.ps path;
    let bytes = (Unix.stat path).Unix.st_size in
    Proto.Snapshotted
      { id; path; bytes; digest = Digest.to_hex (Digest.file path) }
  | Proto.Status | Proto.Cancel _ | Proto.Shutdown ->
    (* Control requests are answered inline by the server loop. *)
    fail id "control request cannot be scheduled"

let execute t ~id req =
  touch t;
  let response =
    match execute_exn t ~id req with
    | r -> r
    | exception Invariant.Io.Parse_error (m, line) ->
      fail id "parse error at line %d: %s" line m
    | exception Trace.Segment.Corrupt_segment m ->
      fail id "corrupt segment: %s" m
    | exception Invalid_argument m -> fail id "%s" m
    | exception Failure m -> fail id "%s" m
    | exception Sys_error m -> fail id "%s" m
    | exception Unix.Unix_error (e, op, arg) ->
      fail id "%s: %s %s" op (Unix.error_message e) arg
    | exception exn -> fail id "internal error: %s" (Printexc.to_string exn)
  in
  (* Idle time runs from the end of the last job: a job longer than the
     idle timeout would otherwise get its session evicted before its
     client could send the next request. *)
  touch t;
  response
