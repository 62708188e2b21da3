(* The invariant detector: hand-built record streams must produce exactly
   the expected template instances, and more data must falsify them. *)

module Expr = Invariant.Expr
module Var = Trace.Var
module Engine = Daikon.Engine

let g3 = Var.post_id (Var.Gpr 3)
let g4 = Var.post_id (Var.Gpr 4)
let g5 = Var.post_id (Var.Gpr 5)
let pc = Var.post_id Var.Pc
let pc0 = Var.orig_id Var.Pc
let prod_u = Var.insn_id Var.Prod_u

let record ?(point = "l.add") ?(mask = Array.make Var.total true) assignments =
  let values = Array.make Var.total 0 in
  List.iter (fun (id, v) -> values.(id) <- v) assignments;
  { Trace.Record.point; values; mask }

let feed_engine ?(config = Daikon.Config.relaxed) records =
  let engine = Engine.create ~config () in
  List.iter (Engine.observe engine) records;
  engine

let feed ?config records = Engine.invariants (feed_engine ?config records)

let has invs s = List.exists (fun i -> Expr.to_string i = s) invs
let check_has invs s = Alcotest.(check bool) s true (has invs s)
let check_not invs s = Alcotest.(check bool) ("NOT " ^ s) false (has invs s)

(* Mask limited to a few variables keeps the expected set small. *)
let small_mask ids =
  let m = Array.make Var.total false in
  List.iter (fun id -> m.(id) <- true) ids;
  m

let test_constant () =
  let mask = small_mask [ g3; g4 ] in
  let invs = feed [ record ~mask [ (g3, 7); (g4, 1) ];
                    record ~mask [ (g3, 7); (g4, 2) ] ] in
  check_has invs "risingEdge(l.add) -> GPR3 = 7";
  check_not invs "risingEdge(l.add) -> GPR4 = 1"

let test_oneof () =
  let mask = small_mask [ g3 ] in
  let invs = feed [ record ~mask [ (g3, 1) ]; record ~mask [ (g3, 2) ];
                    record ~mask [ (g3, 1) ]; record ~mask [ (g3, 2) ] ] in
  check_has invs "risingEdge(l.add) -> GPR3 in {0x1, 0x2}"

let test_oneof_overflow_killed () =
  let mask = small_mask [ g3 ] in
  let invs = feed (List.init 8 (fun i -> record ~mask [ (g3, i * 13) ])) in
  Alcotest.(check bool) "no In invariant survives 8 distinct values" false
    (List.exists
       (fun i -> match i.Expr.body with Expr.In _ -> true | _ -> false)
       invs)

let test_oneof_boundary_at_max () =
  (* relaxed max_oneof = 3: exactly three distinct values is the largest
     surviving set; a fourth kills it. *)
  let mask = small_mask [ g3 ] in
  let three =
    [ record ~mask [ (g3, 2) ]; record ~mask [ (g3, 1) ];
      record ~mask [ (g3, 3) ]; record ~mask [ (g3, 2) ] ]
  in
  check_has (feed three) "risingEdge(l.add) -> GPR3 in {0x1, 0x2, 0x3}";
  let four = three @ [ record ~mask [ (g3, 4) ] ] in
  Alcotest.(check bool) "a fourth distinct value kills the set" false
    (List.exists
       (fun i -> match i.Expr.body with Expr.In _ -> true | _ -> false)
       (feed four))

let test_pair_equality () =
  let mask = small_mask [ g3; g4 ] in
  let invs = feed [ record ~mask [ (g3, 5); (g4, 5) ];
                    record ~mask [ (g3, 9); (g4, 9) ] ] in
  check_has invs "risingEdge(l.add) -> GPR3 = GPR4"

let test_pair_order () =
  let mask = small_mask [ g3; g4 ] in
  let invs = feed [ record ~mask [ (g3, 1); (g4, 5) ];
                    record ~mask [ (g3, 2); (g4, 9) ];
                    record ~mask [ (g3, 0); (g4, 1) ] ] in
  check_has invs "risingEdge(l.add) -> GPR3 < GPR4"

let test_pair_le_when_sometimes_equal () =
  let mask = small_mask [ g3; g4 ] in
  let invs = feed [ record ~mask [ (g3, 1); (g4, 5) ];
                    record ~mask [ (g3, 5); (g4, 5) ] ] in
  check_has invs "risingEdge(l.add) -> GPR3 <= GPR4"

let test_pair_relation_killed () =
  let mask = small_mask [ g3; g4 ] in
  let invs = feed [ record ~mask [ (g3, 1); (g4, 5) ];
                    record ~mask [ (g3, 9); (g4, 5) ];
                    record ~mask [ (g3, 5); (g4, 5) ] ] in
  Alcotest.(check bool) "no order relation" false
    (has invs "risingEdge(l.add) -> GPR3 <= GPR4"
     || has invs "risingEdge(l.add) -> GPR3 >= GPR4"
     || has invs "risingEdge(l.add) -> GPR3 < GPR4")

let test_ne_needs_confidence () =
  let mask = small_mask [ g3; g4 ] in
  (* relaxed config: ne_min = 4. Non-monotonic values so only <>
     is a candidate relation. *)
  let mixed =
    [ record ~mask [ (g3, 1); (g4, 100) ];
      record ~mask [ (g3, 200); (g4, 100) ];
      record ~mask [ (g3, 2); (g4, 100) ] ]
  in
  let invs = feed mixed in
  check_not invs "risingEdge(l.add) -> GPR3 != GPR4";
  let more = mixed @ [ record ~mask [ (g3, 201); (g4, 100) ];
                       record ~mask [ (g3, 3); (g4, 100) ] ] in
  let invs = feed more in
  check_has invs "risingEdge(l.add) -> GPR3 != GPR4"

let test_diff () =
  let mask = small_mask [ pc0; pc ] in
  let invs = feed [ record ~mask [ (pc0, 0x2000); (pc, 0x2004) ];
                    record ~mask [ (pc0, 0x2004); (pc, 0x2008) ] ] in
  check_has invs "risingEdge(l.add) -> (PC - orig(PC)) = 4"

let test_diff_killed () =
  let mask = small_mask [ pc0; pc ] in
  let invs = feed [ record ~mask [ (pc0, 0x2000); (pc, 0x2004) ];
                    record ~mask [ (pc0, 0x2004); (pc, 0x2010) ] ] in
  Alcotest.(check bool) "no diff invariant" false
    (List.exists
       (fun i -> match i.Expr.body with
          | Expr.Cmp (_, Expr.Bin (Expr.Minus, _, _), _) -> true
          | _ -> false)
       invs)

let test_scale () =
  let mask = small_mask [ g3; g4 ] in
  let invs = feed [ record ~mask [ (g3, 3); (g4, 12) ];
                    record ~mask [ (g3, 5); (g4, 20) ] ] in
  check_has invs "risingEdge(l.add) -> GPR4 = GPR3 * 4"

let test_scale_reverse_direction () =
  let mask = small_mask [ g3; g4 ] in
  let invs = feed [ record ~mask [ (g3, 12); (g4, 3) ];
                    record ~mask [ (g3, 20); (g4, 5) ] ] in
  check_has invs "risingEdge(l.add) -> GPR3 = GPR4 * 4"

let test_mod_alignment () =
  let mask = small_mask [ pc ] in
  let invs = feed [ record ~mask [ (pc, 0x2000) ]; record ~mask [ (pc, 0x2004) ];
                    record ~mask [ (pc, 0x2010) ] ] in
  check_has invs "risingEdge(l.add) -> PC mod 4 = 0"

let test_mod2_fallback () =
  let mask = small_mask [ pc ] in
  let invs = feed [ record ~mask [ (pc, 0x2000) ]; record ~mask [ (pc, 0x2002) ];
                    record ~mask [ (pc, 0x2006) ] ] in
  check_not invs "risingEdge(l.add) -> PC mod 4 = 0";
  check_has invs "risingEdge(l.add) -> PC mod 2 = 0"

let test_diff_bounds () =
  let mask = small_mask [ prod_u ] in
  let invs = feed ~config:Daikon.Config.relaxed
      [ record ~point:"l.sfltu" ~mask [ (prod_u, 5) ];
        record ~point:"l.sfltu" ~mask [ (prod_u, 0) ];
        record ~point:"l.sfltu" ~mask [ (prod_u, 9) ] ] in
  check_has invs "risingEdge(l.sfltu) -> PROD_U >= 0"

let test_min_samples () =
  let mask = small_mask [ g3 ] in
  let config = { Daikon.Config.relaxed with min_samples = 3 } in
  let invs = feed ~config [ record ~mask [ (g3, 7) ]; record ~mask [ (g3, 7) ] ] in
  Alcotest.(check int) "below threshold: nothing" 0 (List.length invs)

let test_points_separate () =
  let mask = small_mask [ g3 ] in
  let invs = feed [ record ~point:"l.add" ~mask [ (g3, 1) ];
                    record ~point:"l.add" ~mask [ (g3, 1) ];
                    record ~point:"l.sub" ~mask [ (g3, 2) ];
                    record ~point:"l.sub" ~mask [ (g3, 2) ] ] in
  check_has invs "risingEdge(l.add) -> GPR3 = 1";
  check_has invs "risingEdge(l.sub) -> GPR3 = 2"

let test_leader_suppression () =
  (* Two constant-equal post variables: only the leader pairs with the
     changing one, so exactly one ordering invariant appears. *)
  let mask = small_mask [ g3; g4; g5 ] in
  let invs = feed [ record ~mask [ (g3, 0); (g4, 0); (g5, 10) ];
                    record ~mask [ (g3, 0); (g4, 0); (g5, 20) ] ] in
  check_has invs "risingEdge(l.add) -> GPR3 < GPR5";
  check_not invs "risingEdge(l.add) -> GPR4 < GPR5"

(* ---- merge: the join the sharded miner relies on ---- *)

let strings invs = List.map Expr.to_string invs

let test_merge_disjoint_points () =
  let mask = small_mask [ g3 ] in
  let e1 = feed_engine [ record ~point:"l.add" ~mask [ (g3, 1) ];
                         record ~point:"l.add" ~mask [ (g3, 1) ] ] in
  let e2 = feed_engine [ record ~point:"l.sub" ~mask [ (g3, 2) ];
                         record ~point:"l.sub" ~mask [ (g3, 2) ] ] in
  Engine.merge_into e1 e2;
  Alcotest.(check int) "records summed" 4 (Engine.record_count e1);
  Alcotest.(check int) "both points" 2 (Engine.point_count e1);
  let invs = Engine.invariants e1 in
  check_has invs "risingEdge(l.add) -> GPR3 = 1";
  check_has invs "risingEdge(l.sub) -> GPR3 = 2"

let test_merge_joins_point_state () =
  let mask = small_mask [ g3; g4 ] in
  (* Each shard alone believes GPR3 is constant and GPR3 <= GPR4 holds in
     one direction; the join must keep exactly what survives both. *)
  let e1 = feed_engine [ record ~mask [ (g3, 1); (g4, 5) ];
                         record ~mask [ (g3, 1); (g4, 7) ] ] in
  let e2 = feed_engine [ record ~mask [ (g3, 2); (g4, 6) ];
                         record ~mask [ (g3, 2); (g4, 9) ] ] in
  Engine.merge_into e1 e2;
  let invs = Engine.invariants e1 in
  check_not invs "risingEdge(l.add) -> GPR3 = 1";
  check_not invs "risingEdge(l.add) -> GPR3 = 2";
  check_has invs "risingEdge(l.add) -> GPR3 in {0x1, 0x2}";
  check_has invs "risingEdge(l.add) -> GPR3 < GPR4"

let test_merge_config_mismatch () =
  let e1 = Engine.create ~config:Daikon.Config.relaxed () in
  let e2 = Engine.create ~config:Daikon.Config.default () in
  Alcotest.check_raises "configs must match"
    (Invalid_argument "Daikon.Engine.merge_into: configurations differ")
    (fun () -> Engine.merge_into e1 e2)

(* The property the tentpole rests on: for any record stream split at any
   index, merging the two half-engines yields the same invariant set as
   observing the whole stream sequentially. *)
let test_merge_matches_sequential =
  let mask = small_mask [ g3; g4; pc0; pc ] in
  let to_record (pt, a, b, c) =
    record ~point:pt ~mask
      [ (g3, a); (g4, b); (pc0, c); (pc, (c + 4) land 0xFFFF_FFFF) ]
  in
  (* Value pool chosen to collide often: exercises constancy, one-of death
     at the cap, orderings, x2/x4 scalings, constant diffs and mod
     alignment of the Addr-kind PC. *)
  let values = [ 0; 1; 2; 3; 4; 8; 12; 16; 0x2000; 0x2004; 0x2006; 0xFFFF_FFFF ] in
  let entry =
    QCheck.Gen.(quad (oneofl [ "l.add"; "l.sub" ]) (oneofl values)
                  (oneofl values) (oneofl [ 0x2000; 0x2004; 0x2006; 0x3000 ]))
  in
  let print (entries, k) =
    Printf.sprintf "split@%d [%s]" k
      (String.concat "; "
         (List.map
            (fun (pt, a, b, c) -> Printf.sprintf "(%s,%d,%d,0x%X)" pt a b c)
            entries))
  in
  let arb =
    QCheck.make ~print
      QCheck.Gen.(pair (list_size (0 -- 24) entry) (0 -- 100))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"merge(prefix, suffix) = whole" arb
       (fun (entries, splitpos) ->
          let records = List.map to_record entries in
          let n = List.length records in
          let k = if n = 0 then 0 else splitpos mod (n + 1) in
          let prefix = List.filteri (fun i _ -> i < k) records in
          let suffix = List.filteri (fun i _ -> i >= k) records in
          let whole = feed records in
          let merged = feed_engine prefix in
          Engine.merge_into merged (feed_engine suffix);
          strings (Engine.invariants merged) = strings whole
          && Engine.record_count merged = n))

let test_record_count () =
  let engine = Engine.create () in
  Alcotest.(check int) "empty" 0 (Engine.record_count engine);
  Engine.observe engine (record [ (g3, 1) ]);
  Alcotest.(check int) "counted" 1 (Engine.record_count engine);
  Alcotest.(check int) "one point" 1 (Engine.point_count engine)

let () =
  Alcotest.run "daikon"
    [ ("templates",
       [ Alcotest.test_case "constant" `Quick test_constant;
         Alcotest.test_case "oneof" `Quick test_oneof;
         Alcotest.test_case "oneof overflow" `Quick test_oneof_overflow_killed;
         Alcotest.test_case "oneof boundary at max_oneof" `Quick
           test_oneof_boundary_at_max;
         Alcotest.test_case "pair equality" `Quick test_pair_equality;
         Alcotest.test_case "pair order" `Quick test_pair_order;
         Alcotest.test_case "pair le" `Quick test_pair_le_when_sometimes_equal;
         Alcotest.test_case "relation killed" `Quick test_pair_relation_killed;
         Alcotest.test_case "ne confidence" `Quick test_ne_needs_confidence;
         Alcotest.test_case "diff" `Quick test_diff;
         Alcotest.test_case "diff killed" `Quick test_diff_killed;
         Alcotest.test_case "scale" `Quick test_scale;
         Alcotest.test_case "scale reversed" `Quick test_scale_reverse_direction;
         Alcotest.test_case "mod 4" `Quick test_mod_alignment;
         Alcotest.test_case "mod 2 fallback" `Quick test_mod2_fallback;
         Alcotest.test_case "diff bounds" `Quick test_diff_bounds ]);
      ("engine",
       [ Alcotest.test_case "min samples" `Quick test_min_samples;
         Alcotest.test_case "points separate" `Quick test_points_separate;
         Alcotest.test_case "leader suppression" `Quick test_leader_suppression;
         Alcotest.test_case "record count" `Quick test_record_count ]);
      ("merge",
       [ Alcotest.test_case "disjoint points" `Quick test_merge_disjoint_points;
         Alcotest.test_case "joined point state" `Quick
           test_merge_joins_point_state;
         Alcotest.test_case "config mismatch" `Quick test_merge_config_mismatch;
         test_merge_matches_sequential ]) ]
