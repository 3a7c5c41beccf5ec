open Mbu_circuit

(* Figure 24. After H + measure:
   - outcome 0: the garbage qubit is |0>, done;
   - outcome 1: the data carries a phase (-1)^{g(x)} and the qubit is |1>.
     H returns the qubit to |->; U_g kicks back exactly (-1)^{g(x)},
     cancelling the phase; H + X return the qubit to |0>. *)
let uncompute_bit b ~garbage ~ug =
  Builder.with_span b "mbu.uncompute_bit" @@ fun () ->
  Builder.h b garbage;
  let bit = Builder.measure b garbage in
  Builder.if_bit b bit (fun () ->
      Builder.h b garbage;
      ug ();
      Builder.h b garbage;
      Builder.x b garbage)

let in_range ?(mbu = true) style b ~x ~y ~z ~target =
  let n = Register.length x in
  if Register.length y <> n || Register.length z <> n then
    Mbu_error.invalid ~subsystem:"Mbu.in_range" "unequal register lengths";
  Builder.with_span b
    (Printf.sprintf "mbu.in_range[%s]%s" (Adder.style_name style)
       (if mbu then "+mbu" else ""))
  @@ fun () ->
  Builder.with_ancilla b (fun t1 ->
      (* t1 <- 1[y < x], i.e. 1[x > y]. *)
      let lower () = Adder.compare style b ~x ~y ~target:t1 in
      lower ();
      (* target <- target XOR (t1 AND 1[x < z]), with 1[x < z] = 1[z > x]. *)
      Adder.compare_controlled style b ~ctrl:t1 ~x:z ~y:x ~target;
      (* Erase the intermediate comparison — the circuit the MBU lemma can
         skip half the time. *)
      if mbu then uncompute_bit b ~garbage:t1 ~ug:lower else lower ())
