open Mbu_circuit
open Mbu_bitstring

(* One padding step: before step j the register value is below p 2^j, so
   the branch that received the conditional +p 2^j is identified by
   [value >= p 2^j] — which is what the outcome-1 phase fix conditions on.
   [prepare]'s check keeps [p 2^j] below [2^(length reg)]. *)
let pad_step style b ~p ~j reg =
  let s = Bitstring.of_int ~width:(Register.length reg) (p lsl j) in
  Builder.with_ancilla b (fun u ->
      Builder.h b u;
      Adder.add_const_mod_controlled style b ~ctrl:u ~a:s ~y:reg;
      Builder.h b u;
      let bit = Builder.measure ~reset:true b u in
      Builder.if_bit b bit (fun () ->
          Builder.with_ancilla b (fun t ->
              Adder.compare_ge_const style b ~a:s ~x:reg ~target:t;
              Builder.z b t;
              Adder.compare_ge_const style b ~a:s ~x:reg ~target:t)))

let prepare style b ~p ~pad reg =
  let total = Register.length reg in
  let n = total - pad in
  if pad < 1 || n < 1 then invalid_arg "Coset.prepare: bad padding split";
  if p <= 0 || (n < 62 && p > 1 lsl n) then
    invalid_arg "Coset.prepare: modulus does not fit the data wires";
  for j = 0 to pad - 1 do
    pad_step style b ~p ~j reg
  done

(* 62 bits keep every bit of [a], so an oversize addend reaches Adder's
   fit check instead of being truncated here. *)
let add_const style b ~a reg =
  Adder.add_const_mod style b ~a:(Bitstring.of_int ~width:62 a) ~y:reg

let decode ~value ~p = value mod p
