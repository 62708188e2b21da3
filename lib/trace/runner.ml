(* Trace runner: executes a program on a [Cpu.Machine.t] and produces one
   [Record.t] per retired instruction, fusing each control-flow instruction
   with the instruction in its delay slot as §3.1.5 prescribes. When the
   delay-slot instruction itself raises an exception, a record for it is
   emitted as well, so that e.g. "l.sys in a delay slot" (bug b1) is
   observable at the l.sys program point. *)

module M = Cpu.Machine
module Sr = Isa.Spr.Sr_bits

type config = {
  mask_config : Record.mask_config;
  max_steps : int;
}

let default_config = {
  mask_config = Record.default_config;
  max_steps = 400_000;
}

type outcome = [ `Halted of M.halt_reason | `Max_steps ]

(* Snapshot the dual variables of the machine into [dst] at offset [off].
   PC/NPC/NNPC are filled by the caller. *)
let snapshot_duals machine dst off =
  let set d v = dst.(off + Var.dual_index d) <- v in
  for i = 0 to 31 do set (Var.Gpr i) machine.M.gpr.(i) done;
  let sr = machine.M.sr in
  set Var.Sr_full sr;
  set Var.Sf (Sr.get sr Sr.f);
  set Var.Sm (Sr.get sr Sr.sm);
  set Var.Cy (Sr.get sr Sr.cy);
  set Var.Ov (Sr.get sr Sr.ov);
  set Var.Dsx (Sr.get sr Sr.dsx);
  set Var.Tee (Sr.get sr Sr.tee);
  set Var.Iee (Sr.get sr Sr.iee);
  set Var.Epcr machine.M.epcr;
  set Var.Esr machine.M.esr;
  set Var.Eear machine.M.eear;
  set Var.Machi machine.M.machi;
  set Var.Maclo machine.M.maclo

let set_pc_triplet dst off addr =
  dst.(off + Var.dual_index Var.Pc) <- addr land 0xFFFF_FFFF;
  dst.(off + Var.dual_index Var.Npc) <- (addr + 4) land 0xFFFF_FFFF;
  dst.(off + Var.dual_index Var.Nnpc) <- (addr + 8) land 0xFFFF_FFFF

(* Build the full record for an event. [pre] is the dual snapshot taken
   before the (first) instruction; the machine currently holds the post
   state. [head_ev] provides address and instruction variables; [exn_ev]
   is the event whose exception outcome applies (the delay-slot event for
   fused records). *)
let build_record ~machine ~mask_table ~config ~pre ~head_ev ~exn_ev =
  let values = Array.make Var.total 0 in
  Array.blit pre 0 values 0 Var.dual_count;
  snapshot_duals machine values Var.dual_count;
  set_pc_triplet values 0 head_ev.M.ev_addr;
  set_pc_triplet values Var.dual_count exn_ev.M.ev_next_pc;
  let insn = head_ev.M.ev_insn in
  let point =
    if head_ev.M.ev_illegal then "illegal" else Isa.Insn.mnemonic insn
  in
  let mask = Record.mask_for mask_table config point insn in
  let seti v x = values.(Var.insn_id v) <- x in
  seti Var.Ir head_ev.M.ev_ir;
  seti Var.Mem_at_pc head_ev.M.ev_mem_at_pc;
  (match Isa.Insn.immediate insn with
   | Some im -> seti Var.Im im
   | None -> ());
  (match Isa.Insn.dest_reg insn with
   | Some rd -> seti Var.Regd rd
   | None -> ());
  let ra, rb = Isa.Insn.src_regs insn in
  (match ra with Some r -> seti Var.Rega r | None -> ());
  (match rb with Some r -> seti Var.Regb r | None -> ());
  seti Var.Opa head_ev.M.ev_opa;
  seti Var.Opb head_ev.M.ev_opb;
  seti Var.Dest head_ev.M.ev_dest;
  seti Var.Ea head_ev.M.ev_ea;
  seti Var.Membus head_ev.M.ev_membus;
  seti Var.Spr_orig head_ev.M.ev_spr_orig;
  seti Var.Spr_post head_ev.M.ev_spr_post;
  seti Var.Opcode (head_ev.M.ev_ir lsr 26);
  (match insn with
   | Isa.Insn.Load (_, _, _, off) | Isa.Insn.Store (_, off, _, _) ->
     seti Var.Ea_ref (Util.U32.add head_ev.M.ev_opa (Util.U32.sext16 off))
   | _ -> ());
  (* Extension-correctness observations for sign-extending loads. *)
  (match insn with
   | Isa.Insn.Load (Isa.Insn.Lbs, _, _, _) ->
     seti Var.Ext_sign ((head_ev.M.ev_membus lsr 7) land 1);
     seti Var.Ext_hi (head_ev.M.ev_dest lsr 8)
   | Isa.Insn.Load (Isa.Insn.Lhs, _, _, _) ->
     seti Var.Ext_sign ((head_ev.M.ev_membus lsr 15) land 1);
     seti Var.Ext_hi (head_ev.M.ev_dest lsr 16)
   | _ -> ());
  (* Exception-derived variables, from the event that (possibly) raised. *)
  let post_dsx = values.(Var.dual_count + Var.dual_index Var.Dsx) in
  (match exn_ev.M.ev_exn with
   | Some _ ->
     seti Var.Exn 1;
     seti Var.Vec exn_ev.M.ev_next_pc;
     seti Var.Epcr_d
       (Util.U32.sub machine.M.epcr head_ev.M.ev_addr);
     let expected_dsx = if exn_ev.M.ev_in_delay_slot then 1 else 0 in
     seti Var.Dsx_ok (if post_dsx = expected_dsx then 1 else 0)
   | None ->
     seti Var.Exn 0;
     seti Var.Vec 0;
     seti Var.Epcr_d 0;
     seti Var.Dsx_ok 1);
  (* Compare-direction products at set-flag points (§3.1.4). *)
  (match insn with
   | Isa.Insn.Setflag _ | Isa.Insn.Setflagi _ ->
     let a = head_ev.M.ev_opa and b = head_ev.M.ev_opb in
     let du = Util.U32.signed (Util.U32.sub a b) in
     let ds = Util.U32.signed a - Util.U32.signed b in
     let sf = values.(Var.dual_count + Var.dual_index Var.Sf) in
     let sign = 1 - (2 * sf) in
     seti Var.Cmpdiff_u du;
     seti Var.Cmpdiff_s ds;
     seti Var.Prod_u (du * sign);
     seti Var.Prod_s (ds * sign);
     seti Var.Cmpz (if du = 0 then 1 else 0)
   | _ -> ());
  (* Zero out inapplicable instruction variables for hygiene. *)
  Array.iteri (fun id applicable -> if not applicable then values.(id) <- 0) mask;
  { Record.point; values; mask }

(* Per-machine telemetry, folded into the global metrics once per run:
   a dozen atomic adds per traced program, nothing per instruction. *)
let c_retired = Obs.Metrics.counter "cpu.retired"
let c_exn_suppressed = Obs.Metrics.counter "cpu.exn_suppressed"
let c_truncated = Obs.Metrics.counter "cpu.truncated_runs"
let g_mem_high = Obs.Metrics.gauge "cpu.mem_high_water"
let c_dc_hit = Obs.Metrics.counter "cpu.decode_cache.hit"
let c_dc_miss = Obs.Metrics.counter "cpu.decode_cache.miss"
let c_dc_invalidate = Obs.Metrics.counter "cpu.decode_cache.invalidate"

(* Built at module initialisation, not lazily: two domains forcing one
   unforced lazy at once raise [CamlinternalLazy.Undefined]. *)
let exn_counters =
  List.map
    (fun k -> Obs.Metrics.counter ("cpu.exn." ^ Isa.Spr.Vector.name k))
    Isa.Spr.Vector.all

let fold_machine_telemetry machine =
  let tel = machine.M.tel in
  Obs.Metrics.add c_retired machine.M.retired;
  Obs.Metrics.add c_exn_suppressed tel.M.exn_suppressed;
  Obs.Metrics.add c_truncated tel.M.truncated;
  if tel.M.mem_high_water >= 0 then
    Obs.Metrics.set_max g_mem_high (float_of_int tel.M.mem_high_water);
  List.iteri
    (fun i c -> Obs.Metrics.add c tel.M.exn_entered.(i))
    exn_counters;
  let dc_hits, dc_misses, dc_invalidates = M.decode_cache_stats machine in
  Obs.Metrics.add c_dc_hit dc_hits;
  Obs.Metrics.add c_dc_miss dc_misses;
  Obs.Metrics.add c_dc_invalidate dc_invalidates

(* Execute [machine] until halt, folding every fused record through [f].
   This is the primitive every other entry point wraps: the trace is
   never materialised, and the consumer (typically [Daikon.Engine.observe]
   or an accumulating fold) sees each record the moment it is built.

   Pre-state snapshots use a double buffer instead of a per-branch
   [Array.copy]: at most one branch is pending at any time, so when a
   branch's pre-state must survive its delay slot, its buffer is handed
   to [pending] and the next snapshot goes to the other buffer. (The
   delay-slot's own exceptional record needs no copy at all: the PC
   triplet of the pre-state is overwritten by [build_record], so the
   current buffer can be passed as is.)

   A consumer that has seen enough (the campaign, at its first firing)
   raises out of [f]; the run stops there. *)
let run_fold ?(config = default_config) ~init ~f machine : _ * outcome =
  let mask_table = Record.create_mask_table () in
  let mask_config = config.mask_config in
  let buf_a = Array.make Var.dual_count 0 in
  let buf_b = Array.make Var.dual_count 0 in
  let cur = ref buf_a in
  let pending : (int array * M.event) option ref = ref None in
  let acc = ref init in
  let emit ~pre ~head_ev ~exn_ev =
    acc := f !acc (build_record ~machine ~mask_table ~config:mask_config
                     ~pre ~head_ev ~exn_ev)
  in
  let rec loop steps =
    if steps >= config.max_steps then begin
      (* Flush a dangling branch so no observation is lost, and record
         the truncation: a budget abort is an outcome, not a quiet end
         of trace (generated workloads rely on seeing it). *)
      (match !pending with
       | Some (pre_b, ev_b) -> emit ~pre:pre_b ~head_ev:ev_b ~exn_ev:ev_b
       | None -> ());
      machine.M.tel.M.truncated <- machine.M.tel.M.truncated + 1;
      `Max_steps
    end else begin
      snapshot_duals machine !cur 0;
      match M.step machine with
      | M.Halt reason ->
        (match !pending with
         | Some (pre_b, ev_b) -> emit ~pre:pre_b ~head_ev:ev_b ~exn_ev:ev_b
         | None -> ());
        `Halted reason
      | M.Retired ev ->
        (match !pending with
         | Some (pre_b, ev_b) ->
           (* [ev] executed in the delay slot of [ev_b]: fuse. *)
           pending := None;
           emit ~pre:pre_b ~head_ev:ev_b ~exn_ev:ev;
           (* An exceptional delay-slot instruction also gets its own
              record so its program point observes the exception. *)
           if ev.M.ev_exn <> None || ev.M.ev_exn_suppressed then
             emit ~pre:!cur ~head_ev:ev ~exn_ev:ev;
           loop (steps + 1)
         | None ->
           if Isa.Insn.has_delay_slot ev.M.ev_insn && ev.M.ev_exn = None then begin
             pending := Some (!cur, ev);
             cur := (if !cur == buf_a then buf_b else buf_a);
             loop (steps + 1)
           end else begin
             emit ~pre:!cur ~head_ev:ev ~exn_ev:ev;
             loop (steps + 1)
           end)
    end
  in
  (* [f] ends the run early by raising: the exception passes through
     once the run's telemetry is folded, and is no truncation. *)
  let outcome =
    Fun.protect ~finally:(fun () -> fold_machine_telemetry machine)
      (fun () -> loop 0)
  in
  (!acc, outcome)

(* Execute [machine] until halt, feeding fused records to [observer]. *)
let run ?config ~observer machine : outcome =
  snd (run_fold ?config ~init:() ~f:(fun () r -> observer r) machine)

(* Convenience: run a fresh machine over an assembled program and return
   the captured records (used for trigger traces, which are small). *)
let capture ?(config = default_config) ?(fault = Cpu.Fault.none)
    ?(tick_period = 0) ~entry image =
  let machine = M.create ~fault ~tick_period () in
  M.load_image machine image;
  M.set_pc machine entry;
  let records = ref [] in
  let outcome = run ~config ~observer:(fun r -> records := r :: !records) machine in
  (List.rev !records, outcome)

(* Streaming variant: the observer sees each record; only the outcome is
   returned. Used for the (large) invariant-mining corpus so traces are
   never materialised. *)
let stream ?(config = default_config) ?(fault = Cpu.Fault.none)
    ?(tick_period = 0) ~entry ~observer image =
  let machine = M.create ~fault ~tick_period () in
  M.load_image machine image;
  M.set_pc machine entry;
  run ~config ~observer machine

(* Segment-writer observer: every fused record goes straight from the
   fold into the open segment writer — no materialization on the write
   side either. *)
let stream_to_segment ?config ?fault ?tick_period ~entry ~writer image =
  stream ?config ?fault ?tick_period ~entry ~observer:(Segment.add writer)
    image
