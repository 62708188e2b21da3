(** Injective percent-encoding of arbitrary workload names into single
    filesystem path components, for the on-disk artifacts they name
    (trace-lake segments). A hostile name — ["../../etc/passwd"], a name
    with ['/'] or NUL — encodes to a plain component that cannot escape
    its directory; typical alphanumeric names pass through unchanged. *)

val encode : string -> string
(** Every byte outside [[A-Za-z0-9_-]] (including ['%'], ['.'] and
    ['/']) becomes [%XX]. [encode] is injective, so distinct names never
    share a file. *)

val decode : string -> string option
(** Inverse of {!encode} (also accepts lowercase hex). [None] on a
    malformed escape. *)
