(* Failure injection: deliberately break the MBU phase corrections and
   check that the superposition-fidelity harness catches each break. This
   guards the guards — a test suite whose phase checks silently passed on
   broken circuits would be worthless. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core

(* A sabotaged logical-AND erasure: measures but never applies the
   conditional CZ. On a superposed input this leaves a random relative
   phase. *)
let broken_and_uncompute b ~target =
  Builder.h b target;
  ignore (Builder.measure ~reset:true b target)

(* Gidney-style adder block with the sabotage: x+y still computes in the
   computational basis, but phases are wrong on superpositions. *)
let sabotaged_gidney_add b ~x ~y =
  let n = Register.length x in
  let xq = Register.get x and yq = Register.get y in
  if n < 2 then invalid_arg "sabotage needs n >= 2";
  let t = Array.init (n - 1) (fun _ -> Builder.alloc_ancilla b) in
  let c i = if i = 0 then None else Some t.(i - 1) in
  let cnot_opt c q = match c with Some w -> Builder.cnot b ~control:w ~target:q | None -> () in
  for i = 0 to n - 2 do
    cnot_opt (c i) (xq i);
    cnot_opt (c i) (yq i);
    Builder.toffoli b ~c1:(xq i) ~c2:(yq i) ~target:t.(i);
    cnot_opt (c i) t.(i)
  done;
  cnot_opt (c (n - 1)) (xq (n - 1));
  cnot_opt (c (n - 1)) (yq (n - 1));
  Builder.toffoli b ~c1:(xq (n - 1)) ~c2:(yq (n - 1)) ~target:(yq n);
  cnot_opt (c (n - 1)) (yq n);
  cnot_opt (c (n - 1)) (xq (n - 1));
  Builder.cnot b ~control:(xq (n - 1)) ~target:(yq (n - 1));
  for i = n - 2 downto 0 do
    cnot_opt (c i) t.(i);
    broken_and_uncompute b ~target:t.(i);
    (* <- sabotage: no CZ *)
    cnot_opt (c i) (xq i);
    Builder.cnot b ~control:(xq i) ~target:(yq i)
  done;
  Array.iter (Builder.free_ancilla b) (Array.init (n - 1) (fun i -> t.(n - 2 - i)))

(* Probability that one run of the sabotaged adder on a superposed input
   produces the phase-perfect state. Each skipped CZ flips a coin; we just
   need to observe at least one bad run. *)
let test_sabotaged_adder_caught () =
  let n = 3 in
  (* classical correctness still holds — the sabotage is invisible to
     basis-state tests, which is the whole point *)
  Helpers.check_adder_exhaustive ~reps:2 ~name:"sabotaged-classical"
    (fun b ~x ~y -> sabotaged_gidney_add b ~x ~y)
    n;
  (* but the superposition check must fail for some run *)
  let bad_run_found = ref false in
  (for trial = 1 to 12 do
     if not !bad_run_found then begin
       let b = Builder.create () in
       let x = Builder.fresh_register b "x" n in
       let y = Builder.fresh_register b "y" (n + 1) in
       Array.iter (fun q -> Builder.h b q) (Register.qubits x);
       sabotaged_gidney_add b ~x ~y;
       (* y starts at 3, so the carries (and hence the AND values whose
          phases the sabotage corrupts) differ across the x branches *)
       let init =
         Sim.init_registers ~num_qubits:(Builder.num_qubits b) [ (y, 3) ]
       in
       let r =
         Sim.run ~rng:(Random.State.make [| trial; 99 |]) (Builder.to_circuit b)
           ~init
       in
       let amp : Complex.t = { re = 1.0 /. sqrt 8.0; im = 0.0 } in
       let expected =
         State.of_alist ~num_qubits:(State.num_qubits r.Sim.state)
           (List.init 8 (fun v ->
                let idx = ref 0 in
                for k = 0 to n - 1 do
                  if (v lsr k) land 1 = 1 then
                    idx := !idx lor (1 lsl Register.get x k)
                done;
                let s = v + 3 in
                for k = 0 to n do
                  if (s lsr k) land 1 = 1 then
                    idx := !idx lor (1 lsl Register.get y k)
                done;
                (!idx, amp)))
       in
       if State.fidelity r.Sim.state expected < 1. -. 1e-9 then
         bad_run_found := true
     end
   done);
  Alcotest.(check bool) "phase corruption detected" true !bad_run_found

(* Sabotage the MBU lemma itself: drop the U_g call in the outcome-1 branch
   of a modular adder's comparator erasure. *)
let test_sabotaged_mbu_lemma_caught () =
  let n = 3 and p = 7 in
  let pb = Mbu_bitstring.Bitstring.of_int ~width:n p in
  let build ~sabotage b ~x ~y =
    let open Mbu_circuit in
    Builder.with_ancilla b (fun high ->
        let ys = Register.extend y high in
        Adder_cdkpm.add b ~x ~y:ys;
        Builder.with_ancilla b (fun t ->
            Adder.compare_const Adder.Cdkpm b ~a:pb ~x:ys ~target:t;
            Builder.x b t;
            Adder.sub_const_controlled Adder.Cdkpm b ~ctrl:t ~a:pb ~y:ys;
            let ug () = Adder_cdkpm.compare b ~x ~y ~target:t in
            if sabotage then begin
              (* broken figure 24: measure, but never run U_g *)
              Builder.h b t;
              let bit = Builder.measure b t in
              Builder.if_bit b bit (fun () ->
                  Builder.h b t;
                  (* ug () missing *)
                  Builder.h b t;
                  Builder.x b t)
            end
            else Mbu.uncompute_bit b ~garbage:t ~ug))
  in
  (* the broken version leaves the comparator bit entangled or the phase
     wrong; detect via a 2-term superposition *)
  let run ~sabotage seed =
    let b = Builder.create () in
    let x = Builder.fresh_register b "x" n in
    let y = Builder.fresh_register b "y" n in
    (* superpose x over {1, 5} (bit 2) with bit 0 set *)
    Builder.x b (Register.get x 0);
    Builder.h b (Register.get x 2);
    build ~sabotage b ~x ~y;
    let init = Sim.init_registers ~num_qubits:(Builder.num_qubits b) [ (y, 4) ] in
    let r = Sim.run ~rng:(Random.State.make [| seed |]) (Builder.to_circuit b) ~init in
    let amp : Complex.t = { re = 1.0 /. sqrt 2.0; im = 0.0 } in
    let idx x_val y_val =
      let i = ref 0 in
      for k = 0 to n - 1 do
        if (x_val lsr k) land 1 = 1 then i := !i lor (1 lsl Register.get x k);
        if (y_val lsr k) land 1 = 1 then i := !i lor (1 lsl Register.get y k)
      done;
      !i
    in
    let expected =
      State.of_alist ~num_qubits:(State.num_qubits r.Sim.state)
        [ (idx 1 ((1 + 4) mod p), amp); (idx 5 ((5 + 4) mod p), amp) ]
    in
    State.fidelity r.Sim.state expected
  in
  (* healthy MBU: perfect on every seed *)
  for seed = 1 to 6 do
    Alcotest.(check bool) "healthy mbu exact" true (run ~sabotage:false seed > 1. -. 1e-9)
  done;
  (* sabotaged: at least one seed shows the corruption *)
  let bad = ref false in
  for seed = 1 to 12 do
    if run ~sabotage:true seed < 1. -. 1e-9 then bad := true
  done;
  Alcotest.(check bool) "sabotaged mbu detected" true !bad

(* ------------------------------------------------------------------ *)
(* The same two sabotages, expressed as injected fault plans against the
   HEALTHY circuits: the robustness engine must classify each as Detected.
   Where the hand-built sabotages above prove the harness catches a broken
   implementation, these prove the fault-injection engine reproduces the
   break without touching the circuit. *)

open Mbu_robustness

let outcome : Engine.outcome Alcotest.testable =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Engine.outcome_name o))
    ( = )

(* Skipping an AND-erasure CZ correction of a healthy Gidney adder is
   exactly [broken_and_uncompute]: invisible on basis states, a phase error
   on superpositions. A fidelity detector against the exact superposed sum
   catches it; forcing every erasure outcome to 1 makes each correction
   load-bearing, so the skip deterministically matters. *)
let test_injected_skip_cz_detected () =
  let n = 3 in
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" n in
  let y = Builder.fresh_register b "y" (n + 1) in
  Array.iter (fun q -> Builder.h b q) (Register.qubits x);
  Adder_gidney.add b ~x ~y;
  let circuit = Builder.to_circuit b in
  let init = Sim.init_registers ~num_qubits:(Builder.num_qubits b) [ (y, 3) ] in
  let amp : Complex.t = { re = 1.0 /. sqrt 8.0; im = 0.0 } in
  let expected num_qubits =
    State.of_alist ~num_qubits
      (List.init 8 (fun v ->
           let idx = ref 0 in
           for k = 0 to n - 1 do
             if (v lsr k) land 1 = 1 then
               idx := !idx lor (1 lsl Register.get x k)
           done;
           let s = v + 3 in
           for k = 0 to n do
             if (s lsr k) land 1 = 1 then
               idx := !idx lor (1 lsl Register.get y k)
           done;
           (!idx, amp)))
  in
  let detector (r : Sim.run) =
    State.fidelity r.Sim.state (expected (State.num_qubits r.Sim.state))
    < 1. -. 1e-9
  in
  let spec =
    Engine.
      { name = "gidney-superposed"; circuit; init; keep = [ x; y ];
        expect = []; detectors = [ ("fidelity", detector) ] }
  in
  let branches =
    List.filter_map
      (function Fault.Branch_site { pos; _ } -> Some pos | _ -> None)
      (Fault.sites circuit.Circuit.instrs)
  in
  Alcotest.(check int) "one erasure branch per carry ancilla" (n - 1)
    (List.length branches);
  let classify faults =
    Sim.run
      ~force:(List.init circuit.Circuit.num_bits (fun b -> (b, true)))
      ~rng:(Random.State.make [| 41 |])
      ~faults circuit ~init
    |> Engine.classify_run spec
  in
  Alcotest.check outcome "healthy adder passes the fidelity detector"
    Engine.Correct (classify []);
  List.iter
    (fun pos ->
      Alcotest.check outcome
        (Printf.sprintf "skipped CZ correction at position %d detected" pos)
        Engine.Detected
        (classify [ Fault.Skip_block { pos } ]))
    branches

(* Skipping the MBU lemma's correction block (H; U_g; H; X) of a healthy
   modular adder leaves the comparator ancilla in |1>: the dirty-ancilla
   check catches it on basis inputs already. *)
let test_injected_skip_mbu_correction_detected () =
  let spec = (Option.get (Catalogue.find "cdkpm")).Catalogue.make ~n:3 ~p:7 in
  let branches =
    List.filter_map
      (function
        | Fault.Branch_site { pos; bit; value } -> Some (pos, bit, value)
        | _ -> None)
      (Fault.sites spec.Engine.circuit.Circuit.instrs)
  in
  Alcotest.(check bool) "modadd has an MBU correction" true (branches <> []);
  List.iter
    (fun (pos, bit, value) ->
      (* pin the guard so the correction would fire, then refuse to run it *)
      let o =
        Sim.run ~force:[ (bit, value) ]
          ~rng:(Random.State.make [| 43 |])
          ~faults:[ Fault.Skip_block { pos } ]
          spec.Engine.circuit ~init:spec.Engine.init
        |> Engine.classify_run spec
      in
      Alcotest.check outcome
        (Printf.sprintf "skipped MBU correction at position %d detected" pos)
        Engine.Detected o)
    branches

let suite =
  ( "failure-injection",
    [ Alcotest.test_case "missing CZ in AND erasure is caught" `Quick
        test_sabotaged_adder_caught;
      Alcotest.test_case "missing U_g in MBU lemma is caught" `Quick
        test_sabotaged_mbu_lemma_caught;
      Alcotest.test_case "injected CZ skip is detected" `Quick
        test_injected_skip_cz_detected;
      Alcotest.test_case "injected MBU-correction skip is detected" `Quick
        test_injected_skip_mbu_correction_detected ] )
