(* Textual persistence of invariant sets.

   The paper's Table 8 notes that "a full Invariant Generation step is
   only performed once and all subsequent generation is incremental" —
   which requires saving the mined set. The format is exactly the paper
   notation the pretty-printer emits, one invariant per line:

     risingEdge(l.rfe) -> SR = orig(ESR0)
     risingEdge(l.sys) -> PC = 0xC00
     risingEdge(l.add) -> (PC - orig(PC)) = 4
     risingEdge(l.lwz) -> EA in {0x8000, 0x8004}

   Lines starting with '#' and blank lines are ignored, so saved sets can
   be annotated and hand-curated (the paper's envisioned usage: "experts
   would validate them before putting into a processor"). *)

module Expr = Expr

exception Parse_error of string * int (* message, line number *)

(* ---- writing ---- *)

let to_channel oc invariants =
  output_string oc "# SCIFinder invariant set\n";
  output_string oc (Printf.sprintf "# %d invariants\n" (List.length invariants));
  List.iter
    (fun inv ->
       output_string oc (Expr.to_string inv);
       output_char oc '\n')
    invariants

let save path invariants =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc)
    (fun () -> to_channel oc invariants)

(* ---- variable-name table ---- *)

(* Built at module initialisation, not lazily: two domains forcing one
   unforced lazy at once raise [CamlinternalLazy.Undefined]. The table
   is read-only afterwards, so domains share it safely. *)
let id_of_name =
  let table = Hashtbl.create 256 in
  List.iter
    (fun id -> Hashtbl.replace table (Trace.Var.id_name id) id)
    Trace.Var.all_ids;
  table

let lookup_var line_no name =
  match Hashtbl.find_opt id_of_name name with
  | Some id -> id
  | None -> raise (Parse_error ("unknown variable " ^ name, line_no))

(* ---- tokenizer ---- *)

type token =
  | Tword of string          (* variable names, operators, keywords *)
  | Tint of int
  | Tlparen | Trparen
  | Tlbrace | Trbrace
  | Tcomma

(* The printed format has no spaces inside a token except that grouping
   parentheses attach to their first/last word ("(PC", "orig(PC))").
   Tokenise by whitespace after padding braces/commas, then peel
   unbalanced parentheses off the word edges ("orig(PC)" is balanced and
   stays whole). *)
let tokenize line_no s =
  let padded = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '{' -> Buffer.add_string padded " { "
       | '}' -> Buffer.add_string padded " } "
       | ',' -> Buffer.add_string padded " , "
       | c -> Buffer.add_char padded c)
    s;
  let words =
    String.split_on_char ' ' (Buffer.contents padded)
    |> List.filter (fun w -> w <> "")
  in
  let out = ref [] in
  let emit t = out := t :: !out in
  let count c w =
    String.fold_left (fun acc d -> if d = c then acc + 1 else acc) 0 w
  in
  let emit_core w =
    match w with
    | "{" -> emit Tlbrace
    | "}" -> emit Trbrace
    | "," -> emit Tcomma
    | w ->
      (match int_of_string_opt w with
       | Some v -> emit (Tint v)
       | None ->
         if w = "" then raise (Parse_error ("empty token", line_no))
         else emit (Tword w))
  in
  List.iter
    (fun w ->
       (* peel leading grouping parens *)
       let w = ref w in
       while String.length !w > 1 && !w.[0] = '('
             && count '(' !w > count ')' !w do
         emit Tlparen;
         w := String.sub !w 1 (String.length !w - 1)
       done;
       (* peel trailing grouping parens *)
       let trailing = ref 0 in
       while String.length !w > 1 && !w.[String.length !w - 1] = ')'
             && count ')' !w > count '(' !w do
         incr trailing;
         w := String.sub !w 0 (String.length !w - 1)
       done;
       emit_core !w;
       for _ = 1 to !trailing do emit Trparen done)
    words;
  List.rev !out

(* ---- parser ---- *)

let parse_line line_no line =
  let prefix = "risingEdge(" in
  let plen = String.length prefix in
  if String.length line <= plen || String.sub line 0 plen <> prefix then
    raise (Parse_error ("expected risingEdge(...)", line_no));
  let close =
    match String.index_opt line ')' with
    | Some i -> i
    | None -> raise (Parse_error ("unterminated point", line_no))
  in
  let point = String.sub line plen (close - plen) in
  let rest = String.sub line (close + 1) (String.length line - close - 1) in
  let rest = String.trim rest in
  let arrow = "-> " in
  if String.length rest < 3 || String.sub rest 0 2 <> "->" then
    raise (Parse_error ("expected ->", line_no));
  let body_str =
    String.trim (String.sub rest 2 (String.length rest - 2))
  in
  ignore arrow;
  let tokens = ref (tokenize line_no body_str) in
  let peek () = match !tokens with [] -> None | t :: _ -> Some t in
  let advance () = match !tokens with [] -> () | _ :: r -> tokens := r in
  let expect_word w =
    match peek () with
    | Some (Tword s) when s = w -> advance ()
    | _ -> raise (Parse_error ("expected " ^ w, line_no))
  in
  (* term := '(' VAR op2 VAR ')' | 'not' VAR | VAR ['*' INT | 'mod' INT]
           | INT *)
  let parse_term () =
    match peek () with
    | Some (Tint v) -> advance (); Expr.Imm v
    | Some Tlparen ->
      advance ();
      let a =
        match peek () with
        | Some (Tword w) -> advance (); lookup_var line_no w
        | _ -> raise (Parse_error ("expected variable", line_no))
      in
      let op =
        match peek () with
        | Some (Tword "and") -> advance (); Expr.Band
        | Some (Tword "or") -> advance (); Expr.Bor
        | Some (Tword "+") -> advance (); Expr.Plus
        | Some (Tword "-") -> advance (); Expr.Minus
        | _ -> raise (Parse_error ("expected binary operator", line_no))
      in
      let b =
        match peek () with
        | Some (Tword w) -> advance (); lookup_var line_no w
        | _ -> raise (Parse_error ("expected variable", line_no))
      in
      (match peek () with
       | Some Trparen -> advance ()
       | _ -> raise (Parse_error ("expected )", line_no)));
      Expr.Bin (op, a, b)
    | Some (Tword "not") ->
      advance ();
      (match peek () with
       | Some (Tword w) -> advance (); Expr.Notv (lookup_var line_no w)
       | _ -> raise (Parse_error ("expected variable after not", line_no)))
    | Some (Tword w) ->
      advance ();
      let id = lookup_var line_no w in
      (match peek () with
       | Some (Tword "*") ->
         advance ();
         (match peek () with
          | Some (Tint k) -> advance (); Expr.Mul (id, k)
          | _ -> raise (Parse_error ("expected scale constant", line_no)))
       | Some (Tword "mod") ->
         advance ();
         (match peek () with
          | Some (Tint k) -> advance (); Expr.Mod (id, k)
          | _ -> raise (Parse_error ("expected modulus", line_no)))
       | _ -> Expr.V id)
    | _ -> raise (Parse_error ("expected term", line_no))
  in
  let lhs = parse_term () in
  let body =
    match peek () with
    | Some (Tword "in") ->
      advance ();
      (match peek () with
       | Some Tlbrace -> advance ()
       | _ -> raise (Parse_error ("expected {", line_no)));
      let values = ref [] in
      let rec loop () =
        match peek () with
        | Some (Tint v) ->
          advance ();
          values := v :: !values;
          (match peek () with
           | Some Tcomma -> advance (); loop ()
           | Some Trbrace -> advance ()
           | _ -> raise (Parse_error ("expected , or }", line_no)))
        | Some Trbrace -> advance ()
        | _ -> raise (Parse_error ("expected set member", line_no))
      in
      loop ();
      Expr.In (lhs, List.rev !values)
    | Some (Tword op) ->
      let cmp =
        match op with
        | "=" -> Expr.Eq | "!=" -> Expr.Ne
        | "<" -> Expr.Lt | "<=" -> Expr.Le
        | ">" -> Expr.Gt | ">=" -> Expr.Ge
        | other -> raise (Parse_error ("unknown comparison " ^ other, line_no))
      in
      advance ();
      let rhs = parse_term () in
      Expr.Cmp (cmp, lhs, rhs)
    | _ -> raise (Parse_error ("expected comparison or in", line_no))
  in
  ignore expect_word;
  (match peek () with
   | None -> ()
   | Some _ -> raise (Parse_error ("trailing tokens", line_no)));
  { Expr.point; body }

let of_string s =
  let lines = String.split_on_char '\n' s in
  List.concat
    (List.mapi
       (fun idx line ->
          let line = String.trim line in
          if line = "" || line.[0] = '#' then []
          else [ parse_line (idx + 1) line ])
       lines)

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic)
    (fun () ->
       let n = in_channel_length ic in
       let s = really_input_string ic n in
       (* Name the offending file: load-time parse errors surface to CLI
          users, who may be several saved invariant sets deep. *)
       try of_string s with
       | Parse_error (msg, line) ->
         raise (Parse_error (Printf.sprintf "%s: %s" path msg, line)))
