(** The one JSON value type, parser and printer: traces, metrics and the
    [BENCH_*.json] baselines are written by {!to_string} and read back by
    {!parse}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Raises {!Parse_error} on malformed input, including a [\u] escape that
    names a surrogate. *)

val parse_result : string -> (t, string) result
val member : string -> t -> t option

val number : float -> string
(** An integral value below [1e15] in magnitude prints as an integer, any
    other finite value as the shortest of [%.15g]/[%.16g]/[%.17g] that
    reads back equal, a non-finite value as [null]. *)

val to_string : t -> string
(** One layout: a non-empty top-level object puts one member per line,
    indented 2, and a non-empty array directly inside it one element per
    line, indented 4; everything deeper is inline with [", "] and [": "].
    Ends with a newline. [parse (to_string v) = v] whenever every number
    in [v] is finite. *)
