(** The JSON alias the frozen [perfbench/] harness reads: {!Json}'s value
    type, parser and field lookup under the names perfbench imports. The
    bench gate itself is [git diff --exit-code] on the regenerated
    [BENCH_*.json] files, which hold only numbers a rerun reproduces. *)

type json = Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse : string -> json
val parse_result : string -> (json, string) result
val member : string -> json -> json option
