(* Workload names name on-disk artifacts (trace lake segments), and
   registered or fuzz-generated names are unconstrained strings: '/'
   walks out of the lake directory, ".." climbs it, NUL truncates the
   path. Percent-encoding everything outside a conservative safe set
   keeps typical names ("basicmath", "fuzz-0017") readable byte-for-byte
   while making every name a single path component.

   The encoding is injective ('%' itself is escaped), so distinct
   workload names can never collide on one segment file. *)

let safe c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_'

let encode name =
  let n = String.length name in
  let plain = ref true in
  for i = 0 to n - 1 do
    if not (safe name.[i]) then plain := false
  done;
  if !plain && n > 0 then name
  else begin
    let b = Buffer.create (n + 8) in
    String.iter
      (fun c ->
         if safe c then Buffer.add_char b c
         else Printf.ksprintf (Buffer.add_string b) "%%%02X" (Char.code c))
      name;
    Buffer.contents b
  end

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | _ -> None

let decode enc =
  let n = String.length enc in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then Some (Buffer.contents b)
    else if enc.[i] <> '%' then begin
      Buffer.add_char b enc.[i];
      go (i + 1)
    end
    else if i + 2 >= n then None
    else
      match (hex_val enc.[i + 1], hex_val enc.[i + 2]) with
      | Some hi, Some lo ->
        Buffer.add_char b (Char.chr ((hi lsl 4) lor lo));
        go (i + 3)
      | _ -> None
  in
  go 0
