(* Flat big-endian memory with two regions mirroring the OR1200 SoC used in
   the paper's evaluation platform: on-chip SRAM at the bottom of the address
   space and SDRAM above it. The region distinction matters only to bug b14
   ("byte and half-word write to SRAM failure when executing from SDRAM").

   Every write marks the 4 KiB pages it touches dirty, so [reset] zeroes
   only the pages written since creation or the last reset: a machine
   reused across short runs does not re-zero its 2 MiB each time. *)

type t = {
  data : Bytes.t;
  size : int;
  dirty : Bytes.t;  (* one byte per page; '\001' = written since reset *)
}

let sram_base = 0x0000_0000
let sdram_base = 0x0010_0000
let default_size = 0x0020_0000 (* 2 MiB *)

let page_bits = 12

type region = Sram | Sdram

let region_of addr = if addr >= sdram_base then Sdram else Sram

let create ?(size = default_size) () =
  { data = Bytes.make size '\000';
    size;
    dirty = Bytes.make ((size + (1 lsl page_bits) - 1) lsr page_bits) '\000' }

let in_bounds t addr width = addr >= 0 && addr + width <= t.size

exception Bus_error of int

let check t addr width =
  if not (in_bounds t addr width) then raise (Bus_error addr)

(* Mark the pages of an in-bounds access [addr, addr + width): an
   unaligned access may straddle two. *)
let mark t addr width =
  Bytes.unsafe_set t.dirty (addr lsr page_bits) '\001';
  Bytes.unsafe_set t.dirty ((addr + width - 1) lsr page_bits) '\001'

let read8 t addr =
  check t addr 1;
  Char.code (Bytes.get t.data addr)

let set8 t addr v = Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF))

let write8 t addr v =
  check t addr 1;
  Bytes.unsafe_set t.dirty (addr lsr page_bits) '\001';
  set8 t addr v

let read16 t addr =
  check t addr 2;
  (read8 t addr lsl 8) lor read8 t (addr + 1)

let write16 t addr v =
  check t addr 2;
  mark t addr 2;
  set8 t addr (v lsr 8);
  set8 t (addr + 1) v

let read32 t addr =
  check t addr 4;
  (read8 t addr lsl 24) lor (read8 t (addr + 1) lsl 16)
  lor (read8 t (addr + 2) lsl 8) lor read8 t (addr + 3)

let write32 t addr v =
  check t addr 4;
  mark t addr 4;
  set8 t addr (v lsr 24);
  set8 t (addr + 1) (v lsr 16);
  set8 t (addr + 2) (v lsr 8);
  set8 t (addr + 3) v

(* Read a word for tracing without raising: out-of-bounds reads as 0. *)
let peek32 t addr =
  if in_bounds t addr 4 && addr land 3 = 0 then read32 t addr else 0

let load_image t image =
  List.iter (fun (addr, word) -> write32 t addr word) image

let reset t =
  let page = 1 lsl page_bits in
  for p = 0 to Bytes.length t.dirty - 1 do
    if Bytes.unsafe_get t.dirty p <> '\000' then begin
      let off = p lsl page_bits in
      Bytes.fill t.data off (min page (t.size - off)) '\000';
      Bytes.unsafe_set t.dirty p '\000'
    end
  done

let size t = t.size
