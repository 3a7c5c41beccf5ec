type t = bool array
(* LSB first: index i has weight 2^i. *)

let length = Array.length

let get x i =
  if i < 0 || i >= Array.length x then invalid_arg "Bitstring.get";
  x.(i)

let zero n =
  if n < 0 then invalid_arg "Bitstring.zero";
  Array.make n false

let init n f =
  if n < 0 then invalid_arg "Bitstring.init";
  Array.init n f

let of_int ~width v =
  if width < 0 || v < 0 then invalid_arg "Bitstring.of_int";
  Array.init width (fun i -> if i >= 62 then false else (v lsr i) land 1 = 1)

let to_int x =
  if Array.length x > 62 then invalid_arg "Bitstring.to_int: too long";
  let v = ref 0 in
  for i = Array.length x - 1 downto 0 do
    v := (!v lsl 1) lor (if x.(i) then 1 else 0)
  done;
  !v

let to_signed_int x =
  let n = Array.length x in
  if n = 0 then 0
  else if n > 62 then invalid_arg "Bitstring.to_signed_int: too long"
  else begin
    let v = ref 0 in
    for i = n - 2 downto 0 do
      v := (!v lsl 1) lor (if x.(i) then 1 else 0)
    done;
    if x.(n - 1) then !v - (1 lsl (n - 1)) else !v
  end

let of_signed_int ~width v =
  if width <= 0 then invalid_arg "Bitstring.of_signed_int";
  if v < -(1 lsl (width - 1)) || v >= 1 lsl (width - 1) then
    invalid_arg "Bitstring.of_signed_int: not representable";
  let u = if v >= 0 then v else v + (1 lsl width) in
  of_int ~width u


let of_string s =
  let n = String.length s in
  Array.init n (fun i ->
      match s.[n - 1 - i] with
      | '0' -> false
      | '1' -> true
      | _ -> invalid_arg "Bitstring.of_string")

let to_string x =
  let n = Array.length x in
  String.init n (fun i -> if x.(n - 1 - i) then '1' else '0')

let equal = ( = )
let compare = Stdlib.compare
let pp fmt x = Format.pp_print_string fmt (to_string x)
let maj a b c = (a && b) || (a && c) || (b && c)

let carries x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Bitstring.carries";
  let c = Array.make (n + 1) false in
  for i = 0 to n - 1 do
    c.(i + 1) <- maj x.(i) y.(i) c.(i)
  done;
  c

let borrows x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Bitstring.borrows";
  let b = Array.make (n + 1) false in
  for i = 0 to n - 1 do
    b.(i + 1) <- maj (not x.(i)) y.(i) b.(i)
  done;
  b

let add x y =
  let n = Array.length x in
  let c = carries x y in
  Array.init (n + 1) (fun i ->
      if i = n then c.(n) else x.(i) <> y.(i) <> c.(i))

let ones_complement x = Array.map not x

let twos_complement x =
  let n = Array.length x in
  let one = of_int ~width:n 1 in
  Array.sub (add (ones_complement x) one) 0 n

let sub x y =
  let n = Array.length x in
  let b = borrows x y in
  Array.init (n + 1) (fun i ->
      if i = n then b.(n) else x.(i) <> y.(i) <> b.(i))

let hamming_weight x = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 x

let hamming_weight_int v =
  if v < 0 then invalid_arg "Bitstring.hamming_weight_int";
  let rec loop acc v = if v = 0 then acc else loop (acc + (v land 1)) (v lsr 1) in
  loop 0 v

let lt x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Bitstring.lt";
  let rec loop i =
    if i < 0 then false
    else if x.(i) <> y.(i) then y.(i)
    else loop (i - 1)
  in
  loop (n - 1)

let msb x = x.(Array.length x - 1)

let pad x n =
  let len = Array.length x in
  if n < len then invalid_arg "Bitstring.pad";
  Array.init n (fun i -> if i < len then x.(i) else false)

let truncate x n = Array.sub x 0 (min n (Array.length x))
