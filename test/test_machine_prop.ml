(* Property-based differential testing: the machine's datapath against
   the U32 reference semantics, over randomized operands. *)

open Isa
module M = Cpu.Machine
module U = Util.U32

let code_base = 0x2000

(* Execute one instruction with given source registers; return the
   machine afterwards. *)
let exec1 ?(regs = []) insn =
  let items = [ Asm.I insn; Asm.I (Insn.Nop 1) ] in
  let m = M.create () in
  M.load_image m (Asm.assemble { Asm.origin = code_base; items });
  M.set_pc m code_base;
  List.iter (fun (r, v) -> m.M.gpr.(r) <- v) regs;
  ignore (M.run ~max_steps:10 ~observer:(fun _ -> ()) m);
  m

let u32_gen = QCheck.map (fun x -> x land 0xFFFF_FFFF) QCheck.int
let pair_gen = QCheck.pair u32_gen u32_gen

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:300 ~name gen f)

(* Reference semantics of the register-register ALU ops. *)
let reference op a b =
  match op with
  | Insn.Add -> Some (U.add a b)
  | Insn.Sub -> Some (U.sub a b)
  | Insn.And -> Some (U.logand a b)
  | Insn.Or -> Some (U.logor a b)
  | Insn.Xor -> Some (U.logxor a b)
  | Insn.Mul -> Some (U.mul a b)
  | Insn.Mulu -> Some (U.mul a b)   (* low word agrees for signed/unsigned *)
  | Insn.Div -> Some (Option.value ~default:0 (U.div_signed a b))
  | Insn.Divu -> Some (Option.value ~default:0 (U.div_unsigned a b))
  | Insn.Sll -> Some (U.shift_left a (b land 31))
  | Insn.Srl -> Some (U.shift_right_logical a (b land 31))
  | Insn.Sra -> Some (U.shift_right_arith a (b land 31))
  | Insn.Ror -> Some (U.rotate_right a (b land 31))
  | Insn.Addc -> None (* depends on incoming CY; tested separately *)

let alu_ops =
  [ Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor; Insn.Mul; Insn.Mulu;
    Insn.Div; Insn.Divu; Insn.Sll; Insn.Srl; Insn.Sra; Insn.Ror ]

let alu_gen =
  QCheck.triple (QCheck.oneofl alu_ops) u32_gen u32_gen

let sf_ops =
  Insn.[ Sfeq; Sfne; Sfgtu; Sfgeu; Sfltu; Sfleu; Sfgts; Sfges; Sflts; Sfles ]

let reference_sf op a b =
  match op with
  | Insn.Sfeq -> a = b
  | Insn.Sfne -> a <> b
  | Insn.Sfgtu -> U.ugt a b
  | Insn.Sfgeu -> U.uge a b
  | Insn.Sfltu -> U.ult a b
  | Insn.Sfleu -> U.ule a b
  | Insn.Sfgts -> U.sgt a b
  | Insn.Sfges -> U.sge a b
  | Insn.Sflts -> U.slt a b
  | Insn.Sfles -> U.sle a b

let tests =
  [ prop "ALU matches the reference model" alu_gen
      (fun (op, a, b) ->
         match reference op a b with
         | None -> true
         | Some expected ->
           let m = exec1 ~regs:[ (1, a); (2, b) ] (Insn.Alu (op, 3, 1, 2)) in
           m.M.gpr.(3) = expected);
    prop "addc = add + carry-in" pair_gen
      (fun (a, b) ->
         (* run with CY preset via a wrapping add of ~0 + 1 *)
         let items =
           [ Asm.I (Insn.Alu (Insn.Add, 5, 6, 7));   (* sets CY = 1 *)
             Asm.I (Insn.Alu (Insn.Addc, 3, 1, 2));
             Asm.I (Insn.Nop 1) ]
         in
         let m = M.create () in
         M.load_image m (Asm.assemble { Asm.origin = code_base; items });
         M.set_pc m code_base;
         m.M.gpr.(1) <- a; m.M.gpr.(2) <- b;
         m.M.gpr.(6) <- 0xFFFF_FFFF; m.M.gpr.(7) <- 1;
         ignore (M.run ~max_steps:10 ~observer:(fun _ -> ()) m);
         m.M.gpr.(3) = (a + b + 1) land 0xFFFF_FFFF);
    prop "set-flag matches the reference model"
      (QCheck.triple (QCheck.oneofl sf_ops) u32_gen u32_gen)
      (fun (op, a, b) ->
         let m = exec1 ~regs:[ (1, a); (2, b) ] (Insn.Setflag (op, 1, 2)) in
         (Spr.Sr_bits.get m.M.sr Spr.Sr_bits.f = 1) = reference_sf op a b);
    prop "immediate forms agree with register forms"
      (QCheck.pair u32_gen (QCheck.int_bound 0x7FFF))
      (fun (a, k) ->
         let ri = exec1 ~regs:[ (1, a) ] (Insn.Alui (Insn.Addi, 3, 1, k)) in
         let rr = exec1 ~regs:[ (1, a); (2, k) ] (Insn.Alu (Insn.Add, 3, 1, 2)) in
         ri.M.gpr.(3) = rr.M.gpr.(3));
    prop "store/load word roundtrip"
      (QCheck.pair u32_gen (QCheck.int_bound 0x3FF))
      (fun (v, slot) ->
         let addr = 0x8000 + (slot * 4) in
         let m = exec1 ~regs:[ (1, addr); (2, v) ] (Insn.Store (Insn.Sw, 0, 1, 2)) in
         Cpu.Memory.read32 m.M.mem addr = v);
    prop "byte store keeps neighbours"
      (QCheck.pair u32_gen (QCheck.int_bound 0xFF))
      (fun (v, b) ->
         let items =
           [ Asm.I (Insn.Store (Insn.Sw, 0, 1, 2));
             Asm.I (Insn.Store (Insn.Sb, 1, 1, 3));
             Asm.I (Insn.Load (Insn.Lwz, 4, 1, 0));
             Asm.I (Insn.Nop 1) ]
         in
         let m = M.create () in
         M.load_image m (Asm.assemble { Asm.origin = code_base; items });
         M.set_pc m code_base;
         m.M.gpr.(1) <- 0x8000; m.M.gpr.(2) <- v; m.M.gpr.(3) <- b;
         ignore (M.run ~max_steps:10 ~observer:(fun _ -> ()) m);
         let expected = (v land 0xFF00_FFFF) lor (b lsl 16) in
         m.M.gpr.(4) = expected);
    prop "sign extension of loads"
      (QCheck.int_bound 0xFF)
      (fun byte ->
         let items =
           [ Asm.I (Insn.Store (Insn.Sb, 0, 1, 2));
             Asm.I (Insn.Load (Insn.Lbs, 3, 1, 0));
             Asm.I (Insn.Load (Insn.Lbz, 4, 1, 0));
             Asm.I (Insn.Nop 1) ]
         in
         let m = M.create () in
         M.load_image m (Asm.assemble { Asm.origin = code_base; items });
         M.set_pc m code_base;
         m.M.gpr.(1) <- 0x8000; m.M.gpr.(2) <- byte;
         ignore (M.run ~max_steps:10 ~observer:(fun _ -> ()) m);
         m.M.gpr.(3) = U.sext8 byte && m.M.gpr.(4) = U.zext8 byte);
    prop "execution is deterministic" alu_gen
      (fun (op, a, b) ->
         let run () =
           let m = exec1 ~regs:[ (1, a); (2, b) ] (Insn.Alu (op, 3, 1, 2)) in
           (m.M.gpr.(3), m.M.sr)
         in
         run () = run ());
    prop "r0 never changes" alu_gen
      (fun (op, a, b) ->
         let m = exec1 ~regs:[ (1, a); (2, b) ] (Insn.Alu (op, 0, 1, 2)) in
         m.M.gpr.(0) = 0);
  ]

(* ---- a reset machine runs like a fresh one ---- *)

module Rt = Workloads.Rt

type run_view = {
  trace_digest : string;  (* chained MD5 over the fused records *)
  outcome : Trace.Runner.outcome;
  arch : int list;        (* GPRs, PC, SR and the SPRs *)
  pending : int option * M.halt_reason option;
  retired : int;
  exns : (string * int) list;
  exn_suppressed : int;
  truncated : int;
  dcache : int * int * int;
  mem_high_water : int;
}

(* Load [w] into a machine already reset (or created) for it and run it
   under the trigger step cap, recording everything a run shows. *)
let view_run m (w : Rt.t) =
  M.load_image m w.Rt.image;
  M.set_pc m w.Rt.entry;
  let config =
    { Trace.Runner.default_config with
      max_steps = Sci.Identify.trigger_max_steps }
  in
  let trace_digest, outcome =
    Trace.Runner.run_fold ~config ~init:""
      ~f:(fun acc r ->
          Digest.string (acc ^ Marshal.to_string r [ Marshal.No_sharing ]))
      m
  in
  { trace_digest; outcome;
    arch =
      Array.to_list m.M.gpr
      @ [ m.M.pc; m.M.sr; m.M.epcr; m.M.esr; m.M.eear; m.M.machi;
          m.M.maclo ];
    pending = (m.M.delay_target, m.M.halted);
    retired = m.M.retired;
    exns = M.exception_counts m;
    exn_suppressed = m.M.tel.M.exn_suppressed;
    truncated = m.M.tel.M.truncated;
    dcache = M.decode_cache_stats m;
    mem_high_water = m.M.tel.M.mem_high_water }

let fresh_run (fault, (w : Rt.t)) =
  view_run (M.create ~fault ~tick_period:w.Rt.tick_period ()) w

(* Dirty a machine with one program, reset it, then run the other. *)
let reset_run ~dirty:(dfault, (dw : Rt.t)) (fault, (w : Rt.t)) =
  let m = M.create ~fault:dfault ~tick_period:dw.Rt.tick_period () in
  ignore (view_run m dw);
  M.reset m ~fault ~tick_period:w.Rt.tick_period;
  view_run m w

(* Self-modifying code: the first pass through [patch] runs (and caches)
   addi r5,r5,1, then overwrites it with addi r5,r5,100, which the second
   pass must decode afresh: r5 ends at 101, and each pass's store drops
   the cached word (two invalidates). *)
let smc_program =
  let open Asm.Build in
  Rt.build ~name:"smc"
    (Rt.prologue
     @ [ li 5 0; li 6 0; label "patch"; addi 5 5 1; la 3 "patch" ]
     @ li32 4 (Code.encode (Insn.Alui (Insn.Addi, 5, 5, 100)))
     @ [ sw 0 3 4; addi 6 6 1; sfltui 6 2; bf "patch"; nop ]
     @ Rt.exit_program)

(* Read-increment-write the last word of memory: r4 ends at 1 only when
   the run starts from zeroed memory. *)
let top_store_program =
  let open Asm.Build in
  Rt.build ~name:"top-store"
    (Rt.prologue
     @ li32 3 (Cpu.Memory.default_size - 4)
     @ [ lwz 4 3 0; addi 4 4 1; sw 0 3 4 ]
     @ Rt.exit_program)

let mutants = Array.of_list (Bugs.Mutant.generate ~seed:11 ~count:48)

(* A fuzz trigger and either the clean processor or a generated mutant. *)
let gen_case =
  let open QCheck.Gen in
  map3
    (fun seed index m ->
       let w = Fuzz.Gen.candidate ~seed ~index in
       match m with
       | None -> ("clean", (Cpu.Fault.none, w))
       | Some i ->
         let mu = mutants.(i) in
         (mu.Bugs.Mutant.id, (mu.Bugs.Mutant.fault, w)))
    (int_range 1 3) (int_bound 63)
    (opt (int_bound (Array.length mutants - 1)))

let reset_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"a reset machine runs like a fresh one"
       (QCheck.make
          ~print:(fun ((fa, (_, a)), (fb, (_, b))) ->
              Printf.sprintf "run %s/%s after %s/%s" a.Rt.name fa
                b.Rt.name fb)
          (QCheck.Gen.pair gen_case gen_case))
       (fun ((_, run), (_, dirty)) -> fresh_run run = reset_run ~dirty run))

let test_reset_fixed () =
  let clean w = (Cpu.Fault.none, w) in
  let fuzz = clean (Fuzz.Gen.candidate ~seed:1 ~index:5) in
  let mutant = (mutants.(0).Bugs.Mutant.fault, snd fuzz) in
  let smc = clean smc_program and top = clean top_store_program in
  List.iter
    (fun (label, run, dirty) ->
       Alcotest.(check bool) label true (fresh_run run = reset_run ~dirty run))
    [ ("smc after smc", smc, smc); ("smc after fuzz", smc, fuzz);
      ("fuzz after smc", fuzz, smc); ("top after top", top, top);
      ("mutant after top", mutant, top); ("top after mutant", top, mutant) ];
  let v = reset_run ~dirty:smc smc in
  Alcotest.(check int) "smc patched its own code" 101 (List.nth v.arch 5);
  let _, _, invalidates = v.dcache in
  Alcotest.(check int) "two invalidates" 2 invalidates;
  Alcotest.(check int) "top word read as zero" 1
    (List.nth (reset_run ~dirty:top top).arch 4)

let () =
  Alcotest.run "machine-properties"
    [ ("differential", tests);
      ("reset",
       [ reset_prop;
         Alcotest.test_case "self-modifying code, top of memory" `Quick
           test_reset_fixed ]) ]
