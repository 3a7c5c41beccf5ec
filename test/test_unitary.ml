(* Exact unitary-equality checks for the structural identities the library
   relies on: adjoint inversion, optimizer soundness, decomposition
   equality, gate identities — all up to global phase, column by column plus
   a superposed probe that catches relative-phase mistakes. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core

let circuit_of f =
  let b = Builder.create () in
  f b;
  Builder.to_circuit b

let test_gate_identities () =
  let cases =
    [ ( "HH = I",
        circuit_of (fun b -> let q = Builder.fresh_qubit b in Builder.h b q; Builder.h b q),
        circuit_of (fun b -> ignore (Builder.fresh_qubit b)) );
      ( "HZH = X",
        circuit_of (fun b ->
            let q = Builder.fresh_qubit b in
            Builder.h b q; Builder.z b q; Builder.h b q),
        circuit_of (fun b -> Builder.x b (Builder.fresh_qubit b)) );
      ( "SS = Z",
        circuit_of (fun b ->
            let q = Builder.fresh_qubit b in
            Builder.phase b q (Phase.theta 2);
            Builder.phase b q (Phase.theta 2)),
        circuit_of (fun b -> Builder.z b (Builder.fresh_qubit b)) );
      ( "cphase(theta1) = CZ",
        circuit_of (fun b ->
            let a = Builder.fresh_qubit b and c = Builder.fresh_qubit b in
            Builder.cphase b ~control:a ~target:c (Phase.theta 1)),
        circuit_of (fun b ->
            let a = Builder.fresh_qubit b and c = Builder.fresh_qubit b in
            Builder.cz b a c) );
      ( "SWAP = 3 CNOT",
        circuit_of (fun b ->
            let a = Builder.fresh_qubit b and c = Builder.fresh_qubit b in
            Builder.swap b a c),
        circuit_of (fun b ->
            let a = Builder.fresh_qubit b and c = Builder.fresh_qubit b in
            Builder.cnot b ~control:a ~target:c;
            Builder.cnot b ~control:c ~target:a;
            Builder.cnot b ~control:a ~target:c) ) ]
  in
  List.iter
    (fun (name, c1, c2) ->
      Alcotest.(check bool) name true (Sim.circuits_equal_unitary c1 c2))
    cases

let test_toffoli_decomposition_unitary () =
  let direct =
    circuit_of (fun b ->
        let r = Builder.fresh_register b "r" 3 in
        Builder.toffoli b ~c1:(Register.get r 0) ~c2:(Register.get r 1)
          ~target:(Register.get r 2))
  in
  let decomposed =
    circuit_of (fun b ->
        let r = Builder.fresh_register b "r" 3 in
        List.iter (Builder.gate b)
          (Decompose.toffoli_7t ~c1:(Register.get r 0) ~c2:(Register.get r 1)
             ~target:(Register.get r 2)))
  in
  Alcotest.(check bool) "7-T toffoli is exactly a toffoli" true
    (Sim.circuits_equal_unitary direct decomposed)

let test_adder_adjoint_unitary () =
  (* CDKPM adder then its adjoint = identity, as full unitaries at n = 2 *)
  let with_adder f =
    circuit_of (fun b ->
        let x = Builder.fresh_register b "x" 2 in
        let y = Builder.fresh_register b "y" 3 in
        f b x y)
  in
  let id = with_adder (fun _ _ _ -> ()) in
  let round =
    with_adder (fun b x y ->
        Adder_cdkpm.add b ~x ~y;
        Builder.emit_adjoint b (fun () -> Adder_cdkpm.add b ~x ~y))
  in
  Alcotest.(check bool) "add . add^dag = I" true
    (Sim.circuits_equal_unitary ~dim_qubits:6 id round)

let test_optimizer_preserves_unitary () =
  (* beyond the sampled checks of test_optimize: full unitary equality *)
  let build () =
    circuit_of (fun b ->
        let r = Builder.fresh_register b "r" 3 in
        Qft.apply b r;
        Builder.x b (Register.get r 0);
        Builder.x b (Register.get r 0);
        Builder.cphase b ~control:(Register.get r 1) ~target:(Register.get r 2)
          (Phase.theta 3);
        Qft.apply_inverse b r;
        Builder.h b (Register.get r 1))
  in
  let c = build () in
  Alcotest.(check bool) "optimized = original as unitaries" true
    (Sim.circuits_equal_unitary c (Optimize.circuit c))

let test_catches_phase_difference () =
  (* sanity: the checker must reject S vs Z (same basis action on |0>,|1>
     columns differ in phase) *)
  let s_gate =
    circuit_of (fun b -> Builder.phase b (Builder.fresh_qubit b) (Phase.theta 2))
  in
  let z_gate = circuit_of (fun b -> Builder.z b (Builder.fresh_qubit b)) in
  Alcotest.(check bool) "S <> Z" false (Sim.circuits_equal_unitary s_gate z_gate);
  (* and reject CZ vs plain Z on one wire *)
  let cz =
    circuit_of (fun b ->
        let a = Builder.fresh_qubit b and c = Builder.fresh_qubit b in
        Builder.cz b a c)
  in
  let z1 =
    circuit_of (fun b ->
        let _a = Builder.fresh_qubit b and c = Builder.fresh_qubit b in
        Builder.z b c)
  in
  Alcotest.(check bool) "CZ <> I x Z" false (Sim.circuits_equal_unitary cz z1)

(* Misuse is an [Mbu_error] of kind [Invalid] naming the function called. *)
let expect_invalid ~subsystem f =
  match f () with
  | _ -> Alcotest.fail (subsystem ^ ": expected Mbu_error.Error")
  | exception Mbu_error.Error e ->
      Alcotest.(check string) "subsystem" subsystem e.Mbu_error.subsystem;
      Alcotest.(check bool) "kind Invalid" true (e.Mbu_error.kind = Mbu_error.Invalid)

let measuring =
  circuit_of (fun b ->
      let q = Builder.fresh_qubit b in
      Builder.h b q;
      ignore (Builder.measure b q))

let test_column_rejects_measurement () =
  expect_invalid ~subsystem:"Sim.unitary_column" (fun () ->
      Sim.unitary_column measuring 0)

let test_equal_rejects_measurement () =
  expect_invalid ~subsystem:"Sim.circuits_equal_unitary" (fun () ->
      Sim.circuits_equal_unitary measuring measuring)

let test_equal_rejects_wide () =
  let wide = circuit_of (fun b -> ignore (Builder.fresh_register b "r" 13)) in
  expect_invalid ~subsystem:"Sim.circuits_equal_unitary" (fun () ->
      Sim.circuits_equal_unitary wide wide)

let suite =
  ( "unitary",
    [ Alcotest.test_case "gate identities" `Quick test_gate_identities;
      Alcotest.test_case "toffoli decomposition" `Quick
        test_toffoli_decomposition_unitary;
      Alcotest.test_case "adder adjoint" `Quick test_adder_adjoint_unitary;
      Alcotest.test_case "optimizer unitary-exact" `Quick
        test_optimizer_preserves_unitary;
      Alcotest.test_case "rejects phase differences" `Quick
        test_catches_phase_difference;
      Alcotest.test_case "unitary_column: measurement is Invalid" `Quick
        test_column_rejects_measurement;
      Alcotest.test_case "equal_unitary: measurement is Invalid" `Quick
        test_equal_rejects_measurement;
      Alcotest.test_case "equal_unitary: 13 wires is Invalid" `Quick
        test_equal_rejects_wide ] )
