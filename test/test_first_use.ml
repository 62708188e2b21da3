(* Tables built on first use must survive concurrent first use: in
   OCaml 5, two domains forcing one unforced lazy at once raise
   [CamlinternalLazy.Undefined]. A fresh server whose first two requests
   run concurrently reaches both tables below — the invariant parser's
   variable-name table and the trace runner's exception counters — so
   each round races two domains through them in a fresh child process,
   where first use really is first. *)

let rounds = 10

(* Spin until both domains arrive, so their first uses overlap. *)
let barrier arrived target =
  Atomic.incr arrived;
  while Atomic.get arrived < target do
    Domain.cpu_relax ()
  done

let race () =
  let arrived = Atomic.make 0 in
  let first_use () =
    barrier arrived 2;
    ignore (Invariant.Io.of_string "risingEdge(l.sys) -> PC = 0xC00\n");
    barrier arrived 4;
    (* No steps: the run goes straight to its telemetry fold. *)
    ignore
      (Trace.Runner.stream
         ~config:{ Trace.Runner.default_config with max_steps = 0 }
         ~entry:0 ~observer:ignore [])
  in
  let d = Domain.spawn first_use in
  first_use ();
  Domain.join d

let test_concurrent_first_use () =
  for round = 1 to rounds do
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "race" |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.failf "round %d: concurrent first use failed" round
  done

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "race" then race ()
  else
    Alcotest.run "first_use"
      [ ("race",
         [ Alcotest.test_case "two domains, fresh process" `Quick
             test_concurrent_first_use ]) ]
