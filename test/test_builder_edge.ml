(* Builder and register edge cases: allocation discipline, misuse errors. *)

open Mbu_circuit

(* Builder misuse now raises the structured [Mbu_error.Error] with the
   offending wire attached, not a bare [Invalid_argument]. *)
let check_mbu_error name ~subsystem ?qubit f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Mbu_error.Error")
  | exception Mbu_error.Error e ->
      Alcotest.(check string) (name ^ " subsystem") subsystem e.Mbu_error.subsystem;
      (match qubit with
      | None -> ()
      | Some q ->
          Alcotest.(check (option int)) (name ^ " qubit") (Some q)
            e.Mbu_error.qubit)

let test_double_free_rejected () =
  let b = Builder.create () in
  let a = Builder.alloc_ancilla b in
  Builder.free_ancilla b a;
  check_mbu_error "double free" ~subsystem:"Builder.free_ancilla" ~qubit:a
    (fun () -> Builder.free_ancilla b a)

(* Freeing an input wire used to put it in the pool, so the next ancilla
   aliased the input. *)
let test_free_input_rejected () =
  let b = Builder.create () in
  let q = Builder.fresh_qubit b in
  check_mbu_error "free of an input" ~subsystem:"Builder.free_ancilla" ~qubit:q
    (fun () -> Builder.free_ancilla b q);
  Alcotest.(check bool) "next ancilla is a new wire" true
    (Builder.alloc_ancilla b <> q)

(* Freeing a wire the builder never handed out used to be accepted, and
   [to_circuit] failed late on the width. *)
let test_free_unallocated_rejected () =
  let b = Builder.create () in
  let _q = Builder.fresh_qubit b in
  check_mbu_error "free of wire 7" ~subsystem:"Builder.free_ancilla" ~qubit:7
    (fun () -> Builder.free_ancilla b 7);
  let a = Builder.alloc_ancilla b in
  Builder.x b a;
  Builder.free_ancilla b a;
  Alcotest.(check int) "width" 2 (Builder.to_circuit b).Circuit.num_qubits

let test_inputs_before_ancillas () =
  let b = Builder.create () in
  let _a = Builder.alloc_ancilla b in
  check_mbu_error "input after ancilla" ~subsystem:"Builder.fresh_qubit"
    (fun () -> ignore (Builder.fresh_qubit b))

let test_unbalanced_capture () =
  let b = Builder.create () in
  let q = Builder.fresh_qubit b in
  (* leak a capture frame on purpose via an exception *)
  (try
     ignore
       (Builder.capture b (fun () ->
            Builder.x b q;
            failwith "boom"))
   with Failure _ -> ());
  (* the frame was popped by the exception handler, so the builder is
     still usable *)
  Builder.x b q;
  let c = Builder.to_circuit b in
  Alcotest.(check int) "only the post-exception gate" 1 (Circuit.num_gates c)

let test_register_pool_reuse_order () =
  let b = Builder.create () in
  let r = Builder.alloc_ancilla_register b "a" 3 in
  let wires = Register.qubits r in
  Builder.free_ancilla_register b r;
  let r2 = Builder.alloc_ancilla_register b "b" 3 in
  Alcotest.(check bool) "register wires reused" true
    (Register.qubits r2 = wires);
  Builder.free_ancilla_register b r2;
  Alcotest.(check int) "no growth" 3 (Builder.num_qubits b)

let test_register_sub_append () =
  let b = Builder.create () in
  let r = Builder.fresh_register b "r" 6 in
  let lo = Register.sub r ~pos:0 ~len:3 and hi = Register.sub r ~pos:3 ~len:3 in
  let back = Register.append lo hi in
  Alcotest.(check bool) "append restores wires" true
    (Register.qubits back = Register.qubits r);
  Alcotest.check_raises "sub out of bounds" (Invalid_argument "Array.sub")
    (fun () -> ignore (Register.sub r ~pos:4 ~len:4))

let test_emit_adjoint_rejects_measurement () =
  let b = Builder.create () in
  let q = Builder.fresh_qubit b in
  Alcotest.check_raises "adjoint of measuring block"
    (Invalid_argument "Instr.adjoint: circuit contains a measurement")
    (fun () ->
      Builder.emit_adjoint b (fun () ->
          Builder.h b q;
          ignore (Builder.measure b q)))

let test_builder_gate_validation () =
  let b = Builder.create () in
  let q = Builder.fresh_qubit b in
  Alcotest.check_raises "self-controlled cnot"
    (Invalid_argument "Gate: repeated wire") (fun () ->
      Builder.cnot b ~control:q ~target:q)

let suite =
  ( "builder-edge",
    [ Alcotest.test_case "double free rejected" `Quick test_double_free_rejected;
      Alcotest.test_case "free of an input rejected" `Quick test_free_input_rejected;
      Alcotest.test_case "free of an unallocated wire rejected" `Quick
        test_free_unallocated_rejected;
      Alcotest.test_case "inputs before ancillas" `Quick test_inputs_before_ancillas;
      Alcotest.test_case "capture unwinds on exception" `Quick test_unbalanced_capture;
      Alcotest.test_case "ancilla register pool reuse" `Quick
        test_register_pool_reuse_order;
      Alcotest.test_case "register sub/append" `Quick test_register_sub_append;
      Alcotest.test_case "adjoint rejects measurement" `Quick
        test_emit_adjoint_rejects_measurement;
      Alcotest.test_case "gate validation at emit" `Quick
        test_builder_gate_validation ] )
