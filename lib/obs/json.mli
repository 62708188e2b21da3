(** A minimal JSON reader — just enough to validate and inspect the
    telemetry JSONL stream, Chrome traces, the serve protocol and
    scibench's result files without pulling a JSON dependency into the
    toolchain. Accepts standard JSON (RFC 8259)
    minus the exotic corners we never emit (surrogate-pair escapes are
    passed through verbatim). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing garbage is an error. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing fields or non-objects. *)

val to_string_hum : t -> string
(** Debug rendering (not guaranteed round-trippable). *)
