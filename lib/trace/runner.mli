(** The trace runner: executes a program on a {!Cpu.Machine.t} and emits
    one {!Record.t} per retired instruction, fusing each control-flow
    instruction with the instruction in its delay slot (§3.1.5). A
    delay-slot instruction that raises an exception additionally gets a
    record of its own, so "l.sys in a delay slot" (bug b1) is observable
    at the l.sys program point. *)

type config = {
  mask_config : Record.mask_config;
  max_steps : int;
}

val default_config : config

type outcome = [ `Halted of Cpu.Machine.halt_reason | `Max_steps ]

val run_fold :
  ?config:config -> init:'a -> f:('a -> Record.t -> 'a) -> Cpu.Machine.t ->
  'a * outcome
(** Drive a prepared machine, folding every fused record through [f] as
    it is produced — the primitive the other entry points wrap. The
    trace is never materialised and no per-record state is copied (the
    pre-state snapshot double-buffers across delay slots). The record
    passed to [f] is freshly allocated and owned by the consumer.

    [f] ends the run early by raising: the machine stops after the
    record [f] raised on, its telemetry is folded into the global
    metrics, and the exception passes through. An early stop is not a
    truncation ([cpu.truncated_runs] does not count it) and no dangling
    branch is flushed. The machine's telemetry is folded once per call,
    so a machine reused across runs ({!Cpu.Machine.reset}) counts each
    run once. *)

val run :
  ?config:config -> observer:(Record.t -> unit) -> Cpu.Machine.t -> outcome
(** [run_fold] with a [unit] accumulator: streams fused records to
    [observer]. *)

val capture :
  ?config:config -> ?fault:Cpu.Fault.t -> ?tick_period:int ->
  entry:int -> (int * int) list -> Record.t list * outcome
(** Run a fresh machine over an assembled image and return the stored
    records (for the small trigger traces). *)

val stream :
  ?config:config -> ?fault:Cpu.Fault.t -> ?tick_period:int ->
  entry:int -> observer:(Record.t -> unit) -> (int * int) list -> outcome
(** Streaming variant for the large mining corpus: records are never
    materialised. *)

val stream_to_segment :
  ?config:config -> ?fault:Cpu.Fault.t -> ?tick_period:int ->
  entry:int -> writer:Segment.writer -> (int * int) list -> outcome
(** {!stream} with the segment writer as observer: each fused record is
    appended to [writer] the moment it is built, so recording a trace
    lake materialises nothing beyond the writer's one buffered block.
    The caller closes [writer]. *)
