(** The ISA-level model of the OR1200 processor.

    One instruction retires per {!step}; the model exposes everything the
    paper's instrumenter tracks (§3.1.3): GPRs, the exception SPRs, the
    supervision register, the memory bus, operand and destination values,
    effective addresses, and the exception machinery (single branch delay
    slot, delay-slot exception bit, supervisor mode). {!Fault} hooks
    perturb the semantics. *)

type halt_reason =
  | Exit           (** the l.nop 1 simulator-exit convention *)
  | Stalled        (** pipeline wedged (bug b2) *)
  | Double_fault   (** instruction fetch off the end of memory *)

(** Cheap per-machine telemetry, updated with plain field writes at the
    retirement boundary (the step hot loop takes no locks and reads no
    clocks). Sampled after a run — [Trace.Runner] folds it into the
    global [Obs.Metrics]. *)
type telemetry = {
  exn_entered : int array;
      (** exception entries, indexed in {!Isa.Spr.Vector.all} order *)
  mutable exn_suppressed : int;
      (** requested exceptions dropped by a fault hook *)
  mutable mem_high_water : int;
      (** highest load/store effective address touched; -1 if none *)
  mutable truncated : int;
      (** runs of this machine aborted by a step budget ([`Max_steps]):
          the runaway-program guard for generated workloads. Bumped by
          {!run} and by [Trace.Runner]; distinct from a halt so a fuzzing
          loop can count timeouts instead of silently truncating. *)
}

(** Pre-decoded instruction cache: direct-mapped, keyed by physical PC,
    validated against the fetched (possibly fault-corrupted) word — so a
    stale entry can never supply a wrong instruction even under fetch
    faults. Stores into a cached word drop the entry (self-modifying
    code); the counters surface as [cpu.decode_cache.*] metrics. *)
type dcache = {
  tags : int array;                 (** fetch PC per slot, -1 = empty *)
  words : int array;                (** the word each entry decoded *)
  insns : Isa.Insn.t option array;  (** [None] = word does not decode *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidates : int;
}

type t = {
  mem : Memory.t;
  tel : telemetry;
  gpr : int array;                    (** 32 registers; gpr.(0) stays 0 *)
  mutable pc : int;
  mutable sr : int;
  mutable epcr : int;
  mutable esr : int;
  mutable eear : int;
  mutable machi : int;
  mutable maclo : int;
  mutable delay_target : int option;
      (** pending branch target: when [Some _] the instruction at [pc]
          executes in the branch delay slot *)
  mutable halted : halt_reason option;
  mutable retired : int;
  mutable prev_insn : Isa.Insn.t option;
  mutable prev_word : int;
  mutable fault : Fault.t;           (** set by {!create} and {!reset} *)
  mutable tick_period : int;
      (** a tick interrupt is requested every [tick_period] retired
          instructions while SR\[TEE\] is set; 0 disables the timer *)
  mutable tick_counter : int;
  dcache : dcache option;
      (** [None] when created with [~decode_cache:false] *)
}

(** Everything the tracer needs to know about one retired instruction. *)
type event = {
  ev_addr : int;                      (** address of the instruction *)
  ev_insn : Isa.Insn.t;               (** the instruction executed *)
  ev_ir : int;                        (** fetched word (possibly corrupted) *)
  ev_mem_at_pc : int;                 (** actual memory word at ev_addr *)
  ev_opa : int;                       (** operand A value (0 if unused) *)
  ev_opb : int;                       (** operand B value (0 if unused) *)
  ev_dest : int;                      (** writeback value (0 if none) *)
  ev_ea : int;                        (** memory/branch effective address *)
  ev_membus : int;                    (** data on the memory bus *)
  ev_exn : Isa.Spr.Vector.kind option; (** exception entered by this step *)
  ev_exn_suppressed : bool;           (** a requested exception was dropped *)
  ev_in_delay_slot : bool;
  ev_branch_taken : bool;
  ev_next_pc : int;                   (** address of the next instruction *)
  ev_spr_orig : int;                  (** addressed SPR before (mtspr/mfspr) *)
  ev_spr_post : int;                  (** addressed SPR after *)
  ev_illegal : bool;                  (** the fetched word did not decode *)
}

type step_result =
  | Retired of event
  | Halt of halt_reason

val create :
  ?fault:Fault.t -> ?tick_period:int -> ?mem_size:int ->
  ?decode_cache:bool -> unit -> t
(** A machine at the reset vector (PC = 0x100, SR = FO|SM).
    [decode_cache] (default true) enables the pre-decoded instruction
    cache; disabling it reproduces the decode-per-step baseline for
    benchmarking. Identical architectural behaviour either way. *)

val reset : t -> fault:Fault.t -> tick_period:int -> unit
(** Put [t] back where {!create} left it, now with [fault] and
    [tick_period]: GPRs, PC, SR and the SPRs, the pending delay target,
    the halt and retirement state, the previous instruction, the tick
    counter, the telemetry record, the decode cache (entries and
    counters) and memory ({!Memory.reset}, which zeroes only the pages
    written since the last reset). A reset machine then runs any
    program exactly as a fresh one would, and its telemetry describes
    that run alone. The memory size and whether the decode cache is on
    are kept. Costs what the previous run wrote, not a fresh 2 MiB. *)

val decode_cache_stats : t -> int * int * int
(** [(hits, misses, invalidates)]; all zero when the cache is off. *)

val exception_counts : t -> (string * int) list
(** [tel.exn_entered] keyed by vector name, in {!Isa.Spr.Vector.all}
    order. *)

val load_image : t -> (int * int) list -> unit

val set_pc : t -> int -> unit

val spr_read : t -> Isa.Spr.t -> int

val spr_write : t -> Isa.Spr.t -> int -> unit

val flag : t -> bool
(** SR\[F\]. *)

val supervisor : t -> bool
(** SR\[SM\]. *)

val compare_sf : Isa.Insn.sf_op -> int -> int -> bool
(** The architectural comparison semantics of the set-flag
    instructions. *)

val step : t -> step_result
(** Retire one instruction (or report the halt). Exceptions, delay slots
    and the tick timer are resolved inside the step; the returned event
    describes the architectural outcome. *)

val run :
  ?max_steps:int -> observer:(event -> unit) -> t ->
  [ `Halted of halt_reason | `Max_steps ]
(** Step until halt or [max_steps] (default 1,000,000), feeding every
    event to [observer]. *)
