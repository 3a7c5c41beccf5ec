open Mbu_circuit
open Mbu_bitstring

let divmod_const style b ~d ~x ~quotient =
  let n = Register.length x in
  let k = Register.length quotient in
  if d < 1 then invalid_arg "Divider.divmod_const: divisor must be positive";
  if k < 1 then invalid_arg "Divider.divmod_const: empty quotient register";
  if n >= 62 || d lsl (k - 1) >= 1 lsl n then
    invalid_arg "Divider.divmod_const: d.2^(k-1) must fit the dividend";
  Builder.with_ancilla b (fun pad ->
      let xs = Register.extend x pad in
      for i = k - 1 downto 0 do
        let s = Bitstring.of_int ~width:n (d lsl i) in
        let qi = Register.get quotient i in
        (* q_i = [remainder >= s]; then subtract q_i . s — by construction
           the subtraction never underflows, so the pad stays |0>. *)
        Adder.compare_ge_const style b ~a:s ~x ~target:qi;
        Adder.sub_const_controlled style b ~ctrl:qi ~a:s ~y:xs
      done)
