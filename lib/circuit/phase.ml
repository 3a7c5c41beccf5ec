type t = { num : int; log2_den : int }

let zero = { num = 0; log2_den = 0 }

(* Reduce so that num is odd (or the phase is zero) and 0 <= num < 2^k. *)
let normalize num log2_den =
  let den = 1 lsl log2_den in
  let num = ((num mod den) + den) mod den in
  if num = 0 then zero
  else begin
    let rec shed num k = if num land 1 = 0 then shed (num lsr 1) (k - 1) else (num, k) in
    let num, log2_den = shed num log2_den in
    { num; log2_den }
  end

let make ~num ~log2_den =
  if log2_den < 0 || log2_den > 61 then invalid_arg "Phase.make";
  normalize num log2_den

let theta k = make ~num:1 ~log2_den:k

let add a b =
  let k = max a.log2_den b.log2_den in
  let na = a.num lsl (k - a.log2_den) and nb = b.num lsl (k - b.log2_den) in
  normalize (na + nb) k

let neg a = normalize (-a.num) a.log2_den
let is_zero a = a.num = 0
let equal a b = a.num = b.num && a.log2_den = b.log2_den
let compare a b = Stdlib.compare (a.num, a.log2_den) (b.num, b.log2_den)
let num a = a.num
let log2_den a = a.log2_den

let to_radians a =
  2.0 *. Float.pi *. float_of_int a.num /. float_of_int (1 lsl a.log2_den)

let pp fmt a =
  if a.num = 0 then Format.pp_print_string fmt "0"
  else Format.fprintf fmt "2pi*%d/2^%d" a.num a.log2_den
