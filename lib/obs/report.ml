(* Offline digestion of a telemetry JSONL stream ([scifinder --metrics
   RUN.jsonl]) into a human-readable run report. The reader is built for
   hostile input: a telemetry file can be truncated mid-line by a
   crashed run, hand-edited, or simply not be telemetry at all —
   anything that does not parse as a known event is counted and
   skipped, never raised on. *)

let c_skipped = Metrics.counter "json.skipped"

type span = {
  sname : string;
  sparent : string option;
  sdur_ns : float;
  sattrs : (string * Json.t) list;
}

type metric = {
  mname : string;
  mkind : string;
  mvalue : float;
  mattrs : (string * Json.t) list;
}

type run = {
  spans : span list;
  metrics : metric list;
  skipped : int;  (* lines that were not a well-formed known event *)
  total : int;    (* non-blank lines seen *)
}

let str_member k j =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let num_member k j =
  match Json.member k j with Some (Json.Num f) -> Some f | _ -> None

let attrs_member j =
  match Json.member "attrs" j with Some (Json.Obj kvs) -> kvs | _ -> []

(* A line is accepted only if the fields the report depends on are
   present and well-typed; everything else is skip-and-count. NaN and
   huge numerics never make it here — the JSON grammar has no literal
   for them, so such lines fail to parse. *)
let classify j =
  match str_member "type" j with
  | Some "span" ->
    (match (str_member "name" j, num_member "dur_ns" j) with
     | Some sname, Some sdur_ns ->
       let sparent =
         match Json.member "parent" j with
         | Some (Json.Str p) -> Some p
         | _ -> None
       in
       Some (Either.Left { sname; sparent; sdur_ns; sattrs = attrs_member j })
     | _ -> None)
  | Some "metric" ->
    (match (str_member "name" j, str_member "kind" j, num_member "value" j)
     with
     | Some mname, Some mkind, Some mvalue ->
       Some (Either.Right { mname; mkind; mvalue; mattrs = attrs_member j })
     | _ -> None)
  | _ -> None

let load_lines lines =
  let spans = ref [] and metrics = ref [] in
  let skipped = ref 0 and total = ref 0 in
  List.iter
    (fun line ->
       let line = String.trim line in
       if line <> "" then begin
         incr total;
         match Json.parse line with
         | Error _ -> incr skipped
         | Ok j ->
           (match classify j with
            | Some (Either.Left s) -> spans := s :: !spans
            | Some (Either.Right m) -> metrics := m :: !metrics
            | None -> incr skipped)
       end)
    lines;
  Metrics.add c_skipped !skipped;
  { spans = List.rev !spans; metrics = List.rev !metrics;
    skipped = !skipped; total = !total }

let load_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let lines = ref [] in
       (try
          while true do lines := input_line ic :: !lines done
        with End_of_file -> ());
       load_lines (List.rev !lines))

(* ---- Aggregation ---- *)

type node = {
  mutable total : float;           (* summed dur_ns over all instances *)
  mutable count : int;
  mutable parents : (string * int) list;  (* parent name -> occurrences *)
}

let bump_parent n p =
  let seen = List.assoc_opt p n.parents |> Option.value ~default:0 in
  n.parents <- (p, seen + 1) :: List.remove_assoc p n.parents

(* Collapse spans to one node per name; each node hangs under its most
   common parent (span names form a static tree in practice — the mode
   only matters for adversarial input). *)
let span_nodes spans =
  let nodes : (string, node) Hashtbl.t = Hashtbl.create 32 in
  let node name =
    match Hashtbl.find_opt nodes name with
    | Some n -> n
    | None ->
      let n = { total = 0.0; count = 0; parents = [] } in
      Hashtbl.add nodes name n;
      n
  in
  List.iter
    (fun s ->
       let n = node s.sname in
       n.total <- n.total +. s.sdur_ns;
       n.count <- n.count + 1;
       match s.sparent with Some p -> bump_parent n p | None -> ())
    spans;
  nodes

let mode_parent n =
  match List.sort (fun (_, a) (_, b) -> compare b a) n.parents with
  | (p, occ) :: _ when occ * 2 > n.count -> Some p
  | _ -> None

let metric_value run name =
  List.find_opt (fun m -> String.equal m.mname name) run.metrics
  |> Option.map (fun m -> m.mvalue)

let counter run name = metric_value run name |> Option.value ~default:0.0

(* Families present in the run, from the daikon.candidates.<fam>.born
   gauges the pipeline publishes. *)
let funnel_families run =
  List.filter_map
    (fun m ->
       let prefix = "daikon.candidates." and suffix = ".born" in
       let pl = String.length prefix and sl = String.length suffix in
       let l = String.length m.mname in
       if l > pl + sl
          && String.sub m.mname 0 pl = prefix
          && String.sub m.mname (l - sl) sl = suffix
       then Some (String.sub m.mname pl (l - pl - sl))
       else None)
    run.metrics
  |> List.sort_uniq compare

let fmt_ms ns = Printf.sprintf "%.1f" (ns /. 1e6)

let pct num den = if den <= 0.0 then 0.0 else 100.0 *. num /. den

(* ---- Rendering ---- *)

let render ?(top = 5) ?(format = `Text) run =
  let md = format = `Md in
  let b = Buffer.create 2048 in
  let heading s =
    if md then Buffer.add_string b (Printf.sprintf "\n## %s\n\n" s)
    else Buffer.add_string b (Printf.sprintf "\n%s\n" s)
  in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  if md then line "# Flight report" else line "flight report";
  line "%s"
    (Printf.sprintf "events: %d spans, %d metrics; skipped lines: %d of %d"
       (List.length run.spans) (List.length run.metrics) run.skipped
       run.total);

  (* Span tree: total vs self time per span name. *)
  let nodes = span_nodes run.spans in
  if Hashtbl.length nodes > 0 then begin
    heading (if md then "Phases" else "phases (total ms / self ms / count):");
    if md then begin
      line "| phase | total ms | self ms | count |";
      line "|---|---:|---:|---:|"
    end;
    let names = Hashtbl.fold (fun k _ acc -> k :: acc) nodes [] in
    let children name =
      List.filter
        (fun c -> mode_parent (Hashtbl.find nodes c) = Some name)
        names
      |> List.sort (fun a b ->
          compare (Hashtbl.find nodes b).total (Hashtbl.find nodes a).total)
    in
    let self name =
      let n = Hashtbl.find nodes name in
      let kids = List.fold_left
          (fun acc c -> acc +. (Hashtbl.find nodes c).total) 0.0
          (children name)
      in
      Float.max 0.0 (n.total -. kids)
    in
    let roots =
      List.filter
        (fun name ->
           match mode_parent (Hashtbl.find nodes name) with
           | None -> true
           | Some p -> not (Hashtbl.mem nodes p))
        names
      |> List.sort (fun a b ->
          compare (Hashtbl.find nodes b).total (Hashtbl.find nodes a).total)
    in
    let rec walk depth visited name =
      if not (List.mem name visited) then begin
        let n = Hashtbl.find nodes name in
        if md then
          line "| %s%s | %s | %s | %d |"
            (String.concat "" (List.init depth (fun _ -> "&nbsp;&nbsp;")))
            name (fmt_ms n.total) (fmt_ms (self name)) n.count
        else
          line "  %s%-*s %10s %10s  x%d"
            (String.make (2 * depth) ' ')
            (max 1 (26 - (2 * depth)))
            name (fmt_ms n.total) (fmt_ms (self name)) n.count;
        List.iter (walk (depth + 1) (name :: visited)) (children name)
      end
    in
    List.iter (walk 0 []) roots
  end;

  (* Candidate funnel per invariant family. *)
  let fams = funnel_families run in
  if fams <> [] then begin
    heading
      (if md then "Candidate funnel" else "candidate funnel (born -> live):");
    if md then begin
      line "| family | born | dead | live | survival |";
      line "|---|---:|---:|---:|---:|"
    end;
    List.iter
      (fun fam ->
         let v suffix =
           counter run (Printf.sprintf "daikon.candidates.%s.%s" fam suffix)
         in
         let born = v "born" and dead = v "dead" and live = v "live" in
         if md then
           line "| %s | %.0f | %.0f | %.0f | %.1f%% |" fam born dead live
             (pct live born)
         else
           line "  %-10s born %7.0f  dead %7.0f  live %7.0f  (%.1f%% survive)"
             fam born dead live (pct live born))
      fams
  end;

  (* Cache behaviour: hits and misses per lookup kind; stale counts the
     damaged entries among the misses, of any kind. *)
  let hit = counter run "mine.cache.hit"
  and miss = counter run "mine.cache.miss"
  and stale = counter run "mine.cache.stale"
  and shit = counter run "mine.cache.summary_hit"
  and smiss = counter run "mine.cache.summary_miss" in
  if hit +. miss +. shit +. smiss > 0.0 then begin
    heading (if md then "Cache" else "cache:");
    line
      (if md then "- shard: %.0f hit / %.0f miss (%.1f%% hit)"
       else "  shard   %.0f hit / %.0f miss (%.1f%% hit)")
      hit miss (pct hit (hit +. miss));
    line
      (if md then "- summary: %.0f hit / %.0f miss (%.1f%% hit)"
       else "  summary %.0f hit / %.0f miss (%.1f%% hit)")
      shit smiss
      (pct shit (shit +. smiss));
    line
      (if md then "- stale: %.0f damaged entries re-mined"
       else "  stale   %.0f damaged entries re-mined")
      stale
  end;

  (* Slowest shards, by workload attr. *)
  let shards =
    List.filter (fun s -> String.equal s.sname "mine.shard") run.spans
    |> List.sort (fun a b -> compare b.sdur_ns a.sdur_ns)
  in
  if shards <> [] then begin
    heading
      (Printf.sprintf
         (if md then "Slowest shards (top %d)" else "slowest shards (top %d):")
         top);
    if md then begin
      line "| workload | ms |";
      line "|---|---:|"
    end;
    List.iteri
      (fun i s ->
         if i < top then begin
           let w =
             match List.assoc_opt "workload" s.sattrs with
             | Some (Json.Str w) -> w
             | _ -> "?"
           in
           if md then line "| %s | %s |" w (fmt_ms s.sdur_ns)
           else line "  %-24s %10s" w (fmt_ms s.sdur_ns)
         end)
      shards
  end;

  (* Reader health from the run being reported on, if it recorded any. *)
  let recorded_skips = counter run "json.skipped" in
  if recorded_skips > 0.0 then
    line "%sjson.skipped (in run): %.0f" (if md then "\n" else "\n  ")
      recorded_skips;
  Buffer.contents b
