(** Flat big-endian memory with two regions mirroring the OR1200 SoC of
    the paper's evaluation platform: on-chip SRAM at the bottom of the
    address space and SDRAM above it (the distinction matters to bug
    b14). *)

type t

val sram_base : int
val sdram_base : int
val default_size : int

type region = Sram | Sdram

val region_of : int -> region

val create : ?size:int -> unit -> t
(** Zero-filled memory; [size] defaults to 2 MiB. *)

val reset : t -> unit
(** Zero-fill again, as {!create} left it. Memory tracks which 4 KiB
    pages any write (including {!load_image}) has touched since it was
    created or last reset, and [reset] zeroes only those, so resetting
    after a short run costs what the run wrote, not the whole size. *)

exception Bus_error of int
(** Raised with the offending address on out-of-bounds access. *)

val read8 : t -> int -> int
val write8 : t -> int -> int -> unit
val read16 : t -> int -> int
val write16 : t -> int -> int -> unit
val read32 : t -> int -> int
val write32 : t -> int -> int -> unit

val peek32 : t -> int -> int
(** Non-raising word read for tracing: out-of-bounds or misaligned
    addresses read as 0. *)

val load_image : t -> (int * int) list -> unit
(** Write an assembled [(address, word)] image. *)

val size : t -> int
