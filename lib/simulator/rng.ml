open Mbu_circuit

(* The cell lives in 8 bytes, so reading and writing it moves an unboxed
   int64: a draw allocates nothing. *)
type t = Bytes.t

let gamma = 0x9e3779b97f4a7c15L

(* SplitMix64's output function: a bijection of 64-bit words. *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) gamma in
  Bytes.set_int64_le t 0 s;
  mix s

(* Each word of the key moves the cell by one mixed step, so the key is
   absorbed in order: [absorb h x] is a bijection of [x] for a fixed [h]. *)
let absorb h x = mix (Int64.add (Int64.add h (Int64.of_int x)) gamma)

let make ~stream ~seed index =
  of_state (absorb (absorb (absorb 0L stream) seed) index)

let of_random rs = of_state (Random.State.bits64 rs)

let[@inline] float t =
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1p-53

(* Within this module [float] is inlined and its draw stays unboxed. *)
let below t p = float t < p

(* [r] is uniform on [0, 2^62), so [r mod bound] is unbiased unless [r]
   falls in the last, partial run of [bound] values below 2^62:
   [r - v > max_int - bound + 1] says it did, and the draw is redone. *)
let rec int_below t bound =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then int_below t bound else v

let int t bound =
  if bound <= 0 then
    Mbu_error.invalid ~subsystem:"Rng.int"
      (Printf.sprintf "bound %d must be positive" bound);
  int_below t bound
