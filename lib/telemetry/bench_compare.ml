(* perfbench's name for [Json]. *)

type json = Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse = Json.parse
let parse_result = Json.parse_result
let member = Json.member
