(* ISA-level model of the OR1200 processor.

   The model retires one instruction per [step] and exposes everything the
   paper's instrumenter tracks (§3.1.3): GPRs, the exception SPRs, the
   supervision register, the memory bus, operand and destination values,
   effective addresses, and the exception machinery (single branch delay
   slot, delay-slot exception bit, supervisor mode). Faults from [Fault]
   perturb the semantics at the hook points. *)

open Isa

module Sr = Spr.Sr_bits
module Vec = Spr.Vector

type halt_reason =
  | Exit           (* l.nop 1, the simulator exit convention *)
  | Stalled        (* pipeline wedged (bug b2) *)
  | Double_fault   (* bus error while fetching the bus-error handler *)

(* Cheap per-machine telemetry, updated with plain field writes at the
   retirement boundary so the step hot loop stays hot; readers sample it
   after a run (Trace.Runner folds it into the global metrics). *)
type telemetry = {
  exn_entered : int array;
  mutable exn_suppressed : int;
  mutable mem_high_water : int;
  mutable truncated : int;
}

(* Pre-decoded instruction cache: direct-mapped, keyed by physical PC,
   validated against the fetched (possibly fault-corrupted) word. A hit
   skips [Code.decode]'s big match; the [on_decode] fault hook is still
   applied per step (hooks may be stateful). Because an entry is only
   used when the word it decoded matches what fetch just returned, a
   stale entry can never supply a wrong instruction — store invalidation
   below keeps the tags honest (and observable) rather than carrying
   correctness. *)
type dcache = {
  tags : int array;            (* fetch PC, -1 = empty *)
  words : int array;           (* the word [insns.(i)] decodes *)
  insns : Insn.t option array; (* None = the word does not decode *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidates : int;
}

let dcache_bits = 12 (* 4096 entries: 16 KiB of code, direct-mapped *)
let dcache_mask = (1 lsl dcache_bits) - 1

type t = {
  mem : Memory.t;
  tel : telemetry;
  gpr : int array;
  mutable pc : int;
  mutable sr : int;
  mutable epcr : int;
  mutable esr : int;
  mutable eear : int;
  mutable machi : int;
  mutable maclo : int;
  (* Pending branch target: when [Some target] the instruction at [pc] is
     executing in the branch delay slot. *)
  mutable delay_target : int option;
  mutable halted : halt_reason option;
  mutable retired : int;
  mutable prev_insn : Insn.t option;
  mutable prev_word : int;
  mutable fault : Fault.t;
  (* A tick-timer interrupt is requested every [tick_period] retired
     instructions while SR[TEE] is set; 0 disables the timer. *)
  mutable tick_period : int;
  mutable tick_counter : int;
  dcache : dcache option;
}

(* Everything the tracer needs to know about one retired instruction. *)
type event = {
  ev_addr : int;                      (* address of the instruction *)
  ev_insn : Insn.t;                   (* the instruction executed *)
  ev_ir : int;                        (* fetched word (possibly corrupted) *)
  ev_mem_at_pc : int;                 (* actual memory word at ev_addr *)
  ev_opa : int;                       (* value of operand A (0 if unused) *)
  ev_opb : int;                       (* value of operand B (0 if unused) *)
  ev_dest : int;                      (* value written back (0 if none) *)
  ev_ea : int;                        (* load/store/branch effective address *)
  ev_membus : int;                    (* data transferred on the memory bus *)
  ev_exn : Vec.kind option;           (* exception entered by this step *)
  ev_exn_suppressed : bool;           (* a requested exception was dropped *)
  ev_in_delay_slot : bool;
  ev_branch_taken : bool;
  ev_next_pc : int;                   (* address of the next instruction *)
  ev_spr_orig : int;                  (* addressed SPR value before (mtspr/mfspr) *)
  ev_spr_post : int;                  (* addressed SPR value after *)
  ev_illegal : bool;                  (* the fetched word did not decode *)
}

type step_result =
  | Retired of event
  | Halt of halt_reason

(* Index into telemetry.exn_entered, in [Vec.all] declaration order. *)
let vec_index = function
  | Vec.Reset -> 0
  | Vec.Bus_error -> 1
  | Vec.Data_page_fault -> 2
  | Vec.Insn_page_fault -> 3
  | Vec.Tick_timer -> 4
  | Vec.Alignment -> 5
  | Vec.Illegal -> 6
  | Vec.External_interrupt -> 7
  | Vec.Range -> 8
  | Vec.Syscall -> 9
  | Vec.Trap -> 10

let exception_counts t =
  List.map
    (fun k -> (Vec.name k, t.tel.exn_entered.(vec_index k)))
    Vec.all

(* Hoisted: [vec_index] covers exactly this many vectors, and machines
   are created per workload (and per fuzz candidate), so don't walk
   [Vec.all] on every creation. *)
let n_vectors = List.length Vec.all

let decode_cache_stats t =
  match t.dcache with
  | Some dc -> (dc.hits, dc.misses, dc.invalidates)
  | None -> (0, 0, 0)

let create ?(fault = Fault.none) ?(tick_period = 0) ?mem_size
    ?(decode_cache = true) () =
  let mem = match mem_size with
    | Some size -> Memory.create ~size ()
    | None -> Memory.create ()
  in
  { mem;
    tel = { exn_entered = Array.make n_vectors 0;
            exn_suppressed = 0;
            mem_high_water = -1;
            truncated = 0 };
    gpr = Array.make 32 0;
    pc = Vec.address Vec.Reset;
    sr = Sr.reset;
    epcr = 0; esr = 0; eear = 0;
    machi = 0; maclo = 0;
    delay_target = None;
    halted = None;
    retired = 0;
    prev_insn = None;
    prev_word = 0;
    fault;
    tick_period;
    tick_counter = 0;
    dcache =
      if decode_cache then
        Some { tags = Array.make (1 lsl dcache_bits) (-1);
               words = Array.make (1 lsl dcache_bits) 0;
               insns = Array.make (1 lsl dcache_bits) None;
               hits = 0; misses = 0; invalidates = 0 }
      else None }

(* Everything [create] sets, put back in place: a reset machine runs
   the next program exactly as a fresh one would, and its telemetry and
   decode-cache counters describe that run alone. *)
let reset t ~fault ~tick_period =
  Memory.reset t.mem;
  Array.fill t.tel.exn_entered 0 n_vectors 0;
  t.tel.exn_suppressed <- 0;
  t.tel.mem_high_water <- -1;
  t.tel.truncated <- 0;
  Array.fill t.gpr 0 32 0;
  t.pc <- Vec.address Vec.Reset;
  t.sr <- Sr.reset;
  t.epcr <- 0; t.esr <- 0; t.eear <- 0;
  t.machi <- 0; t.maclo <- 0;
  t.delay_target <- None;
  t.halted <- None;
  t.retired <- 0;
  t.prev_insn <- None;
  t.prev_word <- 0;
  t.fault <- fault;
  t.tick_period <- tick_period;
  t.tick_counter <- 0;
  match t.dcache with
  | Some dc ->
    let n = Array.length dc.tags in
    Array.fill dc.tags 0 n (-1);
    Array.fill dc.words 0 n 0;
    Array.fill dc.insns 0 n None;
    dc.hits <- 0; dc.misses <- 0; dc.invalidates <- 0
  | None -> ()

let load_image t image =
  (* New code: drop every cached decode rather than chase which words
     the image touched. *)
  (match t.dcache with
   | Some dc ->
     Array.fill dc.tags 0 (Array.length dc.tags) (-1);
     Array.fill dc.insns 0 (Array.length dc.insns) None
   | None -> ());
  Memory.load_image t.mem image

let set_pc t pc = t.pc <- pc

let spr_read t = function
  | Spr.Vr -> 0x12000001 (* OR1200-ish version word *)
  | Spr.Sr -> t.sr
  | Spr.Epcr0 -> t.epcr
  | Spr.Eear0 -> t.eear
  | Spr.Esr0 -> t.esr
  | Spr.Machi -> t.machi
  | Spr.Maclo -> t.maclo

let spr_write t spr v =
  match spr with
  | Spr.Vr -> ()
  | Spr.Sr -> t.sr <- (v land Sr.writable_mask) lor (1 lsl Sr.fo)
  | Spr.Epcr0 -> t.epcr <- v
  | Spr.Eear0 -> t.eear <- v
  | Spr.Esr0 -> t.esr <- v
  | Spr.Machi -> t.machi <- v
  | Spr.Maclo -> t.maclo <- v

let flag t = Sr.get t.sr Sr.f = 1
let supervisor t = Sr.get t.sr Sr.sm = 1

(* Internal exception request raised while executing an instruction. *)
exception Exn_request of Vec.kind * int (* kind, effective address for EEAR *)

(* 64-bit MAC accumulator helpers. *)
let mac_acc t = Int64.logor (Int64.shift_left (Int64.of_int t.machi) 32)
    (Int64.of_int t.maclo)

let set_mac_acc t v =
  t.machi <- Int64.to_int (Int64.shift_right_logical v 32) land 0xFFFF_FFFF;
  t.maclo <- Int64.to_int (Int64.logand v 0xFFFF_FFFFL)

(* The architectural comparison semantics of the set-flag instructions. *)
let compare_sf op a b =
  let open Util.U32 in
  match op with
  | Insn.Sfeq -> a = b
  | Insn.Sfne -> a <> b
  | Insn.Sfgtu -> ugt a b
  | Insn.Sfgeu -> uge a b
  | Insn.Sfltu -> ult a b
  | Insn.Sfleu -> ule a b
  | Insn.Sfgts -> sgt a b
  | Insn.Sfges -> sge a b
  | Insn.Sflts -> slt a b
  | Insn.Sfles -> sle a b

(* Mutable per-step scratch for building the event record. *)
type scratch = {
  mutable s_opa : int;
  mutable s_opb : int;
  mutable s_dest : int;
  mutable s_ea : int;
  mutable s_membus : int;
  mutable s_branch_taken : bool;
  mutable s_target : int option;
  mutable s_spr_orig : int;
  mutable s_spr_post : int;
}

let step t =
  match t.halted with
  | Some r -> Halt r
  | None ->
    let pc = t.pc in
    let in_delay_slot = t.delay_target <> None in
    let mem_word = Memory.peek32 t.mem pc in
    let fetch_ctx =
      { Fault.fetch_pc = pc; prev_insn = t.prev_insn; prev_word = t.prev_word }
    in
    let raw =
      try Memory.read32 t.mem pc
      with Memory.Bus_error _ -> -1
    in
    if raw = -1 then begin
      (* Instruction fetch off the end of memory: treat as a fatal double
         fault rather than looping through the bus-error vector. *)
      t.halted <- Some Double_fault;
      Halt Double_fault
    end else begin
      let ir = t.fault.on_fetch fetch_ctx raw in
      let s = { s_opa = 0; s_opb = 0; s_dest = 0; s_ea = 0; s_membus = 0;
                s_branch_taken = false; s_target = None;
                s_spr_orig = 0; s_spr_post = 0 } in
      let sr_before = t.sr in
      let exn_suppressed = ref false in
      let branch_pc = pc - 4 in
      (* Writeback honouring the r0-hardwired-to-zero rule and the
         writeback fault hooks. *)
      let wb insn reg value =
        let value = value land 0xFFFF_FFFF in
        let value = t.fault.on_writeback insn ~reg ~pc value in
        s.s_dest <- value;
        if reg <> 0 || t.fault.allow_gpr0_write then t.gpr.(reg) <- value
      in
      let set_flag_bit bit v = t.sr <- Sr.put t.sr bit v in
      let arith_flags ~cy ~ov =
        set_flag_bit Sr.cy (if cy then 1 else 0);
        set_flag_bit Sr.ov (if ov then 1 else 0);
        if ov && Sr.get sr_before Sr.ove = 1 then
          raise (Exn_request (Vec.Range, pc))
      in
      let decoded = match t.dcache with
        | Some dc ->
          let slot = (pc lsr 2) land dcache_mask in
          let raw_decoded =
            if Array.unsafe_get dc.tags slot = pc
            && Array.unsafe_get dc.words slot = ir then begin
              dc.hits <- dc.hits + 1;
              Array.unsafe_get dc.insns slot
            end else begin
              dc.misses <- dc.misses + 1;
              let d = Code.decode ir in
              dc.tags.(slot) <- pc;
              dc.words.(slot) <- ir;
              dc.insns.(slot) <- d;
              d
            end
          in
          (match raw_decoded with
           | Some insn -> Some (t.fault.on_decode insn)
           | None -> None)
        | None ->
          (match Code.decode ir with
           | Some insn -> Some (t.fault.on_decode insn)
           | None -> None)
      in
      (* b2: l.macrc directly after l.mac wedges the pipeline. *)
      (match decoded, t.prev_insn with
       | Some (Insn.Macrc _), Some (Insn.Macc (Insn.Mac, _, _))
         when t.fault.macrc_after_mac_stalls ->
         t.halted <- Some Stalled
       | _ -> ());
      if t.halted = Some Stalled then Halt Stalled
      else begin
        let exn_taken = ref None in
        (* Execute, collecting an optional exception request. *)
        let exec insn =
          let open Insn in
          let g r = t.gpr.(r) in
          match insn with
          | Nop k -> if k = 1 then t.halted <- Some Exit
          | Alu (op, rd, ra, rb) ->
            let a = g ra and b = g rb in
            s.s_opa <- a; s.s_opb <- b;
            let module U = Util.U32 in
            let result, flags = match op with
              | Add ->
                let r = U.add a b in
                (r, Some (U.carry_add a b 0, U.overflow_add a b 0))
              | Addc ->
                let cin = Sr.get sr_before Sr.cy in
                let r = (a + b + cin) land 0xFFFF_FFFF in
                (r, Some (U.carry_add a b cin, U.overflow_add a b cin))
              | Sub -> (U.sub a b, Some (U.ult a b, U.overflow_sub a b))
              | And -> (U.logand a b, None)
              | Or -> (U.logor a b, None)
              | Xor -> (U.logxor a b, None)
              | Mul ->
                let wide = Int64.mul (Int64.of_int (U.signed a)) (Int64.of_int (U.signed b)) in
                let r = Int64.to_int (Int64.logand wide 0xFFFF_FFFFL) in
                let ov = Int64.of_int (U.signed r) <> wide in
                (r, Some (false, ov))
              | Mulu ->
                let wide = Int64.mul (Int64.of_int a) (Int64.of_int b) in
                let r = Int64.to_int (Int64.logand wide 0xFFFF_FFFFL) in
                let cy = Int64.shift_right_logical wide 32 <> 0L in
                (r, Some (cy, false))
              | Div ->
                (match U.div_signed a b with
                 | Some r -> (r, None)
                 | None -> arith_flags ~cy:false ~ov:true; (0, None))
              | Divu ->
                (match U.div_unsigned a b with
                 | Some r -> (r, None)
                 | None -> arith_flags ~cy:true ~ov:false; (0, None))
              | Sll -> (U.shift_left a (b land 31), None)
              | Srl -> (U.shift_right_logical a (b land 31), None)
              | Sra -> (U.shift_right_arith a (b land 31), None)
              | Ror -> (U.rotate_right a (b land 31), None)
            in
            let result = t.fault.on_alu insn result in
            (match flags with
             | Some (cy, ov) -> arith_flags ~cy ~ov
             | None -> ());
            wb insn rd result
          | Alui (op, rd, ra, k) ->
            let a = g ra in
            s.s_opa <- a;
            let module U = Util.U32 in
            let simm = U.sext16 k and uimm = k land 0xFFFF in
            let result, flags = match op with
              | Addi -> (U.add a simm, Some (U.carry_add a simm 0, U.overflow_add a simm 0))
              | Addic ->
                let cin = Sr.get sr_before Sr.cy in
                ((a + simm + cin) land 0xFFFF_FFFF,
                 Some (U.carry_add a simm cin, U.overflow_add a simm cin))
              | Andi -> (U.logand a uimm, None)
              | Ori -> (U.logor a uimm, None)
              | Xori -> (U.logxor a uimm, None)
              | Muli ->
                let wide = Int64.mul (Int64.of_int (U.signed a))
                    (Int64.of_int (U.signed simm)) in
                let r = Int64.to_int (Int64.logand wide 0xFFFF_FFFFL) in
                (r, Some (false, Int64.of_int (U.signed r) <> wide))
            in
            let result = t.fault.on_alu insn result in
            (match flags with Some (cy, ov) -> arith_flags ~cy ~ov | None -> ());
            wb insn rd result
          | Shifti (op, rd, ra, l6) ->
            let a = g ra in
            s.s_opa <- a;
            let n = l6 land 31 in
            let module U = Util.U32 in
            let result = match op with
              | Slli -> U.shift_left a n
              | Srli -> U.shift_right_logical a n
              | Srai -> U.shift_right_arith a n
              | Rori -> U.rotate_right a n
            in
            wb insn rd (t.fault.on_alu insn result)
          | Ext (op, rd, ra) ->
            let a = g ra in
            s.s_opa <- a;
            let module U = Util.U32 in
            let result = match op with
              | Extbs -> U.sext8 a
              | Extbz -> U.zext8 a
              | Exths -> U.sext16 a
              | Exthz -> U.zext16 a
              | Extws | Extwz -> a
            in
            wb insn rd (t.fault.on_alu insn result)
          | Setflag (op, ra, rb) ->
            let a = g ra and b = g rb in
            s.s_opa <- a; s.s_opb <- b;
            let r = compare_sf op a b in
            let r = t.fault.on_compare op ~a ~b r in
            set_flag_bit Sr.f (if r then 1 else 0)
          | Setflagi (op, ra, k) ->
            let a = g ra and b = Util.U32.sext16 k in
            s.s_opa <- a; s.s_opb <- b;
            let r = compare_sf op a b in
            let r = t.fault.on_compare op ~a ~b r in
            set_flag_bit Sr.f (if r then 1 else 0)
          | Load (op, rd, ra, off) ->
            let base = g ra in
            s.s_opa <- base;
            let ea = Util.U32.add base (Util.U32.sext16 off) in
            let ea = t.fault.on_eff_addr insn ea in
            s.s_ea <- ea;
            let module U = Util.U32 in
            let width, aligned = match op with
              | Lwz | Lws -> (4, ea land 3 = 0)
              | Lhz | Lhs -> (2, ea land 1 = 0)
              | Lbz | Lbs -> (1, true)
            in
            if not aligned then raise (Exn_request (Vec.Alignment, ea));
            let raw_data =
              try
                (match width with
                 | 4 -> Memory.read32 t.mem ea
                 | 2 -> Memory.read16 t.mem ea
                 | _ -> Memory.read8 t.mem ea)
              with Memory.Bus_error a -> raise (Exn_request (Vec.Bus_error, a))
            in
            s.s_membus <- raw_data;
            let extended = match op with
              | Lwz | Lws -> raw_data
              | Lbz -> U.zext8 raw_data
              | Lbs -> U.sext8 raw_data
              | Lhz -> U.zext16 raw_data
              | Lhs -> U.sext16 raw_data
            in
            let value = t.fault.on_load insn ~addr:ea ~raw:raw_data extended in
            wb insn rd value
          | Store (op, off, ra, rb) ->
            let base = g ra and value = g rb in
            s.s_opa <- base; s.s_opb <- value;
            let ea = Util.U32.add base (Util.U32.sext16 off) in
            let ea = t.fault.on_eff_addr insn ea in
            s.s_ea <- ea;
            let width, aligned = match op with
              | Sw -> (4, ea land 3 = 0)
              | Sh -> (2, ea land 1 = 0)
              | Sb -> (1, true)
            in
            if not aligned then raise (Exn_request (Vec.Alignment, ea));
            let value = t.fault.on_store insn ~addr:ea ~exec_pc:pc value in
            s.s_membus <- value;
            (try
               (match width with
                | 4 -> Memory.write32 t.mem ea value
                | 2 -> Memory.write16 t.mem ea value
                | _ -> Memory.write8 t.mem ea value)
             with Memory.Bus_error a -> raise (Exn_request (Vec.Bus_error, a)));
            (* Self-modifying code: drop any cached decode of the word
               this store just overwrote (sub-word stores land inside
               one aligned word, so one slot check covers every width). *)
            (match t.dcache with
             | Some dc ->
               let wa = ea land lnot 3 in
               let slot = (wa lsr 2) land dcache_mask in
               if dc.tags.(slot) = wa then begin
                 dc.tags.(slot) <- -1;
                 dc.invalidates <- dc.invalidates + 1
               end
             | None -> ());
            (* b17: a store straight after a load clobbers the load's
               destination register with the store data. *)
            (match t.fault.store_after_load_clobbers ~prev:t.prev_insn insn with
             | Some reg when reg <> 0 -> t.gpr.(reg) <- value
             | Some _ | None -> ())
          | Jump d | Jump_link d ->
            if in_delay_slot then raise (Exn_request (Vec.Illegal, pc));
            let target = Util.U32.add pc
                (Util.U32.of_int (Util.U32.signed (Util.U32.sext ~bits:26 d) * 4)) in
            s.s_ea <- target;
            s.s_branch_taken <- true;
            s.s_target <- Some target;
            (match insn with
             | Jump_link _ -> wb insn 9 (Util.U32.add pc 8)
             | _ -> ())
          | Jump_reg rb | Jump_link_reg rb ->
            if in_delay_slot then raise (Exn_request (Vec.Illegal, pc));
            let target = g rb in
            s.s_opb <- target;
            if target land 3 <> 0 then raise (Exn_request (Vec.Alignment, target));
            s.s_ea <- target;
            s.s_branch_taken <- true;
            s.s_target <- Some target;
            (match insn with
             | Jump_link_reg _ -> wb insn 9 (Util.U32.add pc 8)
             | _ -> ())
          | Branch_flag d | Branch_noflag d ->
            if in_delay_slot then raise (Exn_request (Vec.Illegal, pc));
            let target = Util.U32.add pc
                (Util.U32.of_int (Util.U32.signed (Util.U32.sext ~bits:26 d) * 4)) in
            s.s_ea <- target;
            let taken = match insn with
              | Branch_flag _ -> flag t
              | _ -> not (flag t)
            in
            if taken then begin
              s.s_branch_taken <- true;
              s.s_target <- Some target
            end
          | Movhi (rd, k) -> wb insn rd ((k land 0xFFFF) lsl 16)
          | Mfspr (rd, ra, k) ->
            if not (supervisor t) then raise (Exn_request (Vec.Illegal, pc));
            let spr_addr = g ra lor (k land 0xFFFF) in
            s.s_opa <- g ra;
            let v = match Spr.of_address spr_addr with
              | Some spr -> spr_read t spr
              | None -> 0
            in
            s.s_spr_orig <- v;
            s.s_spr_post <- v;
            wb insn rd v
          | Mtspr (ra, rb, k) ->
            if not (supervisor t) then raise (Exn_request (Vec.Illegal, pc));
            let spr_addr = g ra lor (k land 0xFFFF) in
            let v = g rb in
            s.s_opa <- g ra; s.s_opb <- v;
            (match Spr.of_address spr_addr with
             | Some spr ->
               s.s_spr_orig <- spr_read t spr;
               if not (t.fault.mtspr_is_nop ~spr_addr) then spr_write t spr v;
               s.s_spr_post <- spr_read t spr
             | None -> ())
          | Macc (op, ra, rb) ->
            let a = g ra and b = g rb in
            s.s_opa <- a; s.s_opb <- b;
            let prod = Int64.mul (Int64.of_int (Util.U32.signed a))
                (Int64.of_int (Util.U32.signed b)) in
            let acc = mac_acc t in
            set_mac_acc t
              (match op with Mac -> Int64.add acc prod | Msb -> Int64.sub acc prod)
          | Maci (ra, k) ->
            let a = g ra in
            s.s_opa <- a;
            let prod = Int64.mul (Int64.of_int (Util.U32.signed a))
                (Int64.of_int (Util.U32.signed (Util.U32.sext16 k))) in
            set_mac_acc t (Int64.add (mac_acc t) prod)
          | Macrc rd ->
            let v = t.maclo in
            set_mac_acc t 0L;
            wb insn rd v
          | Sys _ -> raise (Exn_request (Vec.Syscall, pc))
          | Trap _ -> raise (Exn_request (Vec.Trap, pc))
          | Rfe ->
            if not (supervisor t) then raise (Exn_request (Vec.Illegal, pc));
            let new_sr = t.fault.on_rfe_sr t.esr in
            let new_pc = t.fault.on_rfe_pc t.epcr in
            t.sr <- (new_sr land 0xFFFF_FFFF) lor (1 lsl Sr.fo);
            s.s_branch_taken <- true;
            s.s_target <- Some new_pc;
            s.s_ea <- new_pc
        in
        (* Exception entry per the OR1k architecture, with fault hooks. *)
        let enter_exception kind ~eear_value =
          let next_pc = match t.delay_target with
            | Some target -> target
            | None -> Util.U32.add pc 4
          in
          let ctx = { Fault.kind; faulting_pc = pc; next_pc;
                      in_delay_slot; branch_pc } in
          if t.fault.suppress_exception ctx ~prev:t.prev_insn then begin
            exn_suppressed := true;
            (* The instruction completes as a no-op; control continues. *)
            None
          end else if kind = Vec.Syscall && in_delay_slot
                   && t.fault.syscall_in_delay_slot_loops then begin
            (* b1: the PC is not correctly updated; the processor re-runs
               the branch and its delay slot forever. *)
            t.delay_target <- None;
            t.pc <- branch_pc;
            Some (kind, `Looped)
          end else begin
            let epcr = match kind with
              | Vec.Syscall | Vec.Tick_timer | Vec.External_interrupt ->
                if in_delay_slot then branch_pc else next_pc
              | Vec.Reset | Vec.Bus_error | Vec.Data_page_fault
              | Vec.Insn_page_fault | Vec.Alignment | Vec.Illegal
              | Vec.Range | Vec.Trap ->
                if in_delay_slot then branch_pc else pc
            in
            let epcr = t.fault.on_exception_epcr ctx epcr in
            let new_sr =
              let v = t.sr in
              let v = Sr.set v Sr.sm in
              let v = Sr.clear v Sr.iee in
              let v = Sr.clear v Sr.tee in
              Sr.put v Sr.dsx (if in_delay_slot then 1 else 0)
            in
            let new_sr = t.fault.on_exception_sr ctx new_sr in
            let vector = Vec.address kind in
            let vector = t.fault.on_exception_vector ctx vector in
            t.esr <- t.sr;
            t.epcr <- epcr;
            t.eear <- eear_value;
            t.sr <- new_sr lor (1 lsl Sr.fo);
            t.delay_target <- None;
            t.pc <- vector;
            Some (kind, `Vectored)
          end
        in
        (match decoded with
         | None ->
           (match enter_exception Vec.Illegal ~eear_value:pc with
            | Some (k, _) -> exn_taken := Some k
            | None -> t.pc <- Util.U32.add pc 4)
         | Some insn ->
           (try
              exec insn;
              (* Sequencing: delay-slot completion, then branches, then the
                 tick timer. l.rfe and exceptions set the PC themselves. *)
              (match insn with
               | Insn.Rfe ->
                 t.delay_target <- None;
                 t.pc <- (match s.s_target with Some x -> x | None -> Util.U32.add pc 4)
               | _ ->
                 (match t.delay_target with
                  | Some target ->
                    (* This instruction was the delay slot. *)
                    t.delay_target <- None;
                    t.pc <- target
                  | None ->
                    if s.s_branch_taken then begin
                      t.delay_target <- s.s_target;
                      t.pc <- Util.U32.add pc 4
                    end else
                      t.pc <- Util.U32.add pc 4));
              (* Tick timer: raised at the retirement boundary. *)
              if t.tick_period > 0 then begin
                t.tick_counter <- t.tick_counter + 1;
                (* Interrupt shadow: like the OR1200, no interrupt is taken
                   at the boundary of an SR-writing instruction, so l.rfe
                   and l.mtspr retire with architecturally clean state. *)
                let in_shadow = match insn with
                  | Insn.Rfe | Insn.Mtspr _ -> true
                  | _ -> false
                in
                if t.tick_counter >= t.tick_period
                && Sr.get t.sr Sr.tee = 1
                && t.delay_target = None
                && not in_shadow then begin
                  t.tick_counter <- 0;
                  (* EPCR must resume at the instruction we were about to
                     execute; t.pc already points there. *)
                  let resume = t.pc in
                  let ctx = { Fault.kind = Vec.Tick_timer; faulting_pc = pc;
                              next_pc = resume; in_delay_slot = false;
                              branch_pc } in
                  if not (t.fault.suppress_exception ctx ~prev:t.prev_insn) then begin
                    let epcr = t.fault.on_exception_epcr ctx resume in
                    let new_sr =
                      let v = Sr.set t.sr Sr.sm in
                      let v = Sr.clear v Sr.iee in
                      let v = Sr.clear v Sr.tee in
                      Sr.put v Sr.dsx 0
                    in
                    let new_sr = t.fault.on_exception_sr ctx new_sr in
                    let vector = t.fault.on_exception_vector ctx
                        (Vec.address Vec.Tick_timer) in
                    t.esr <- t.sr;
                    t.epcr <- epcr;
                    t.sr <- new_sr lor (1 lsl Sr.fo);
                    t.pc <- vector;
                    exn_taken := Some Vec.Tick_timer
                  end
                end
              end
            with Exn_request (kind, eear_value) ->
              (match enter_exception kind ~eear_value with
               | Some (k, _) -> exn_taken := Some k
               | None ->
                 (* Suppressed: fall through as a no-op. *)
                 (match t.delay_target with
                  | Some target -> t.delay_target <- None; t.pc <- target
                  | None -> t.pc <- Util.U32.add pc 4))));
        t.retired <- t.retired + 1;
        (* Telemetry: a handful of plain field writes per retirement. *)
        (match !exn_taken with
         | Some k ->
           let i = vec_index k in
           t.tel.exn_entered.(i) <- t.tel.exn_entered.(i) + 1
         | None -> ());
        if !exn_suppressed then
          t.tel.exn_suppressed <- t.tel.exn_suppressed + 1;
        (match decoded with
         | Some (Insn.Load _ | Insn.Store _) ->
           if s.s_ea > t.tel.mem_high_water then
             t.tel.mem_high_water <- s.s_ea
         | _ -> ());
        let insn = match decoded with
          | Some i -> i
          | None -> Insn.Nop 0xFFFF (* placeholder for the illegal word *)
        in
        t.prev_insn <- Some insn;
        t.prev_word <- ir;
        Retired {
          ev_addr = pc;
          ev_insn = insn;
          ev_ir = ir;
          ev_mem_at_pc = mem_word;
          ev_opa = s.s_opa;
          ev_opb = s.s_opb;
          ev_dest = s.s_dest;
          ev_ea = s.s_ea;
          ev_membus = s.s_membus;
          ev_exn = !exn_taken;
          ev_exn_suppressed = !exn_suppressed;
          ev_in_delay_slot = in_delay_slot;
          ev_branch_taken = s.s_branch_taken;
          ev_next_pc = t.pc;
          ev_spr_orig = s.s_spr_orig;
          ev_spr_post = s.s_spr_post;
          ev_illegal = (decoded = None);
        }
      end
    end

(* Run until halt or [max_steps], feeding every event to [observer]. *)
let run ?(max_steps = 1_000_000) ~observer t =
  let rec loop n =
    if n >= max_steps then begin
      t.tel.truncated <- t.tel.truncated + 1;
      `Max_steps
    end
    else
      match step t with
      | Halt r -> `Halted r
      | Retired ev -> observer ev; loop (n + 1)
  in
  loop 0
