(* scibench: the end-to-end benchmark of SCIFinder.

     scibench all [--seed N] [--seconds S]
         every workload, each in its own process; prints every
         end-to-end metric as "workload metric value unit"
     scibench run W [--seed N] [--seconds S] [--trace]
         one workload (paper, lake, campaign, serve); --trace adds the
         layer ledger and writes out/W.{jsonl,trace.json,layers.json}
     scibench --workload W --seed N --seconds S --trace 0|1
         the same, every option spelled as a flag
     scibench compare A B
         medians and quartiles of two run sets under BENCHMARK.json's
         bounds; exits 1 on a regressed or unresolved pair
     scibench baseline A B
         prints a baseline file holding run sets A and B

   A run set is a runs.jsonl file or FILE:KEY, an array inside a JSON
   object (bench/e2e/baseline.json:a). Every run appends its record to
   bench/e2e/out/runs.jsonl. Run from the repository root. *)

let out_dir = Filename.concat "bench" (Filename.concat "e2e" "out")

let workloads =
  [ ("paper", fun ctx -> W_paper.run ctx);
    ("lake", fun ctx -> W_lake.run ctx);
    ("campaign", fun ctx -> W_campaign.run ctx);
    ("serve", fun ctx -> W_serve.run ctx) ]

let usage () =
  prerr_endline
    "usage: scibench all|run W|compare A B|baseline A B [--seed N] \
     [--seconds S] [--trace [0|1]]";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable rest : string list;
}

let parse args =
  let o =
    { workload = None; seed = 42; seconds = Bench.default_seconds;
      trace = false; rest = [] }
  in
  let rec go = function
    | "--workload" :: w :: tl -> o.workload <- Some w; go tl
    | "--seed" :: n :: tl -> o.seed <- int_of_string n; go tl
    | "--seconds" :: s :: tl -> o.seconds <- float_of_string s; go tl
    | "--trace" :: ("0" | "1" as v) :: tl -> o.trace <- v = "1"; go tl
    | "--trace" :: tl -> o.trace <- true; go tl
    | a :: tl -> o.rest <- o.rest @ [ a ]; go tl
    | [] -> ()
  in
  (try go args with Failure _ -> usage ());
  o

let run_one o name =
  let f = match List.assoc_opt name workloads with Some f -> f | None -> usage () in
  let ctx =
    { Bench.seed = o.seed; seconds = o.seconds; traced = o.trace; out_dir;
      setup_s = Bench.default_setup_s; kernel_s = 0.3 }
  in
  Bench.mkdir_p out_dir;
  let rep = Ledger.report ctx (f ctx) in
  Ledger.append_record ctx rep;
  List.iter print_endline (Ledger.human_lines rep);
  print_endline (Ledger.summary_line ctx rep);
  exit (if Ledger.correct rep then 0 else 1)

(* Each workload in a fresh process, so no heap, cache or domain pool
   carries over from one to the next. *)
let all o =
  Printf.printf "host %s\n%!" (Bench.json_to_string (Bench.host ()));
  let ok =
    List.fold_left
      (fun ok (name, _) ->
         let ic =
           Unix.open_process_args_in Sys.executable_name
             [| Sys.executable_name; "run"; name; "--seed"; string_of_int o.seed;
                "--seconds"; Printf.sprintf "%g" o.seconds |]
         in
         let lines = In_channel.input_lines ic in
         let status = Unix.close_process_in ic in
         List.iter
           (fun l -> if not (String.starts_with ~prefix:"{" l) then print_endline l)
           lines;
         flush stdout;
         ok && status = Unix.WEXITED 0)
      true workloads
  in
  exit (if ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "noop" ] -> exit 0
  | args ->
    let o = parse args in
    (match (o.workload, o.rest) with
     | Some w, [] | None, [ "run"; w ] -> run_one o w
     | None, [ "all" ] -> all o
     | None, [ "compare"; a; b ] ->
       let spec = Ledger.load_spec "BENCHMARK.json" in
       exit
         (if Ledger.compare_sets spec (Ledger.load_runs a) (Ledger.load_runs b) = 0
          then 0
          else 1)
     | None, [ "baseline"; a; b ] ->
       print_endline
         (Bench.json_to_string
            (Obs.Json.Obj
               [ ("schema", Obs.Json.Str "scibench.baseline/1");
                 ("a", Obs.Json.Arr (Ledger.load_runs a));
                 ("b", Obs.Json.Arr (Ledger.load_runs b)) ]))
     | _ -> usage ())
