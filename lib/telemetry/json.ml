(* The one JSON module: value type, recursive-descent parser and printer.
   The build has no JSON library to depend on. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          (if !pos >= n then fail "unterminated escape";
           let e = s.[!pos] in
           advance ();
           match e with
           | ('"' | '\\' | '/') as c -> Buffer.add_char buf c
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' -> (
               if !pos + 4 > n then fail "truncated \\u escape";
               let code = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
               pos := !pos + 4;
               match code with
               | Some c when Uchar.is_valid c ->
                   Buffer.add_utf_8_uchar buf (Uchar.of_int c)
               | _ -> fail "bad \\u escape")
           | _ -> fail "unknown escape");
          loop ()
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    while
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
      | _ -> false
    do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  (* Comma-separated [item]s up to [close], after the opening bracket. *)
  let items close item =
    skip_ws ();
    if peek () = Some close then (advance (); [])
    else
      let rec more acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); more acc
        | Some c when c = close -> advance (); List.rev acc
        | _ -> fail (Printf.sprintf "expected , or %c" close)
      in
      more []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        Obj
          (items '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, parse_value ())))
    | Some '[' -> advance (); Arr (items ']' parse_value)
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_result s = try Ok (parse s) with Parse_error msg -> Error msg

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Printer *)

(* Integral values take the integer path: [string_of_int] is several
   times cheaper than [Printf] on the span counts that fill a trace. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then string_of_int (int_of_float v)
  else if not (Float.is_finite v) then "null"
  else
    let rec shortest digits =
      let s = Printf.sprintf "%.*g" digits v in
      if digits = 17 || float_of_string s = v then s else shortest (digits + 1)
    in
    shortest 15

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_list buf ~sep add_item items =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf sep;
      add_item x)
    items

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num v -> Buffer.add_string buf (number v)
  | Str s -> add_string buf s
  | Arr items ->
      Buffer.add_char buf '[';
      add_list buf ~sep:", " (add buf) items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      add_list buf ~sep:", " (add_member buf) fields;
      Buffer.add_char buf '}'

and add_member buf (k, v) =
  add_string buf k;
  Buffer.add_string buf ": ";
  add buf v

(* The top level and the arrays directly inside it break lines, so each
   row of a bench file and each event of a trace sits on a line of its
   own. *)
let to_string v =
  let buf = Buffer.create 4096 in
  (match v with
  | Obj (_ :: _ as fields) ->
      Buffer.add_string buf "{\n  ";
      add_list buf ~sep:",\n  "
        (function
          | k, Arr (_ :: _ as items) ->
              add_string buf k;
              Buffer.add_string buf ": [\n    ";
              add_list buf ~sep:",\n    " (add buf) items;
              Buffer.add_string buf "\n  ]"
          | member -> add_member buf member)
        fields;
      Buffer.add_string buf "\n}"
  | v -> add buf v);
  Buffer.add_char buf '\n';
  Buffer.contents buf
