open Mbu_circuit
open Mbu_bitstring

(* Loop invariant: the accumulator value t is < 2p and lives in the current
   (n+2)-wire window. One step with multiplier bit x_i:
     t += x_i . a                       (t < 3p < 2^(n+2))
     m := t mod 2                       (moved into quotient wire q_i)
     t := (t - m) / 2 + m . (p+1)/2     ( = (t + m p) / 2 < 2p )
   The division by two is free: the vacated low wire is provably |0> after
   the move, and re-enters the window as the new top wire. *)
let mul_const_redc style b ~a ~p ~x ~acc ~quotient =
  let n = Register.length x in
  let invalid = Mbu_error.invalid ~subsystem:"Montgomery.mul_const_redc" in
  if p <= 0 || p land 1 = 0 || p lsr n <> 0 then invalid "need an odd modulus below 2^n";
  if a < 0 || a >= p then invalid "need 0 <= a < p";
  if Register.length acc <> n + 2 then invalid "acc needs n+2 wires";
  if Register.length quotient <> n then invalid "quotient needs n wires";
  let half = Bitstring.of_int ~width:n ((p + 1) / 2) in
  let a = Bitstring.of_int ~width:n a in
  let window = ref (Register.qubits acc) in
  for i = 0 to n - 1 do
    let reg = Register.make ~name:"acc" !window in
    Adder.add_const_mod_controlled style b ~ctrl:(Register.get x i) ~a ~y:reg;
    (* move the low bit into the quotient wire (which starts |0>) *)
    let w0 = !window.(0) in
    let qi = Register.get quotient i in
    Builder.cnot b ~control:w0 ~target:qi;
    Builder.cnot b ~control:qi ~target:w0;
    (* rotate: w0 (now |0>) becomes the most significant wire *)
    let rotated = Array.append (Array.sub !window 1 (n + 1)) [| w0 |] in
    window := rotated;
    let reg = Register.make ~name:"acc" rotated in
    Adder.add_const_mod_controlled style b ~ctrl:qi ~a:half ~y:reg
  done;
  Register.make ~name:"mont" !window
