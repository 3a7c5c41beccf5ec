(* Tests for the sparse state-vector simulator. *)

open Mbu_circuit
open Mbu_simulator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let rng () = Random.State.make [| 42 |]

let run_gates ~num_qubits ~init gates =
  let c = Circuit.make ~num_qubits (List.map (fun g -> Instr.Gate g) gates) in
  (Sim.run ~rng:(rng ()) c ~init:(State.basis ~num_qubits init)).Sim.state

let classical_exn st =
  match State.classical_value st with
  | Some v -> v
  | None -> Alcotest.fail "state not classical"

let test_x_cnot_toffoli () =
  let st = run_gates ~num_qubits:3 ~init:0b001 [ Gate.X 1 ] in
  check_int "X" 0b011 (classical_exn st);
  let st = run_gates ~num_qubits:3 ~init:0b001 [ Gate.Cnot { control = 0; target = 2 } ] in
  check_int "CNOT fires" 0b101 (classical_exn st);
  let st = run_gates ~num_qubits:3 ~init:0b010 [ Gate.Cnot { control = 0; target = 2 } ] in
  check_int "CNOT idle" 0b010 (classical_exn st);
  let st = run_gates ~num_qubits:3 ~init:0b011 [ Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ] in
  check_int "Toffoli fires" 0b111 (classical_exn st);
  let st = run_gates ~num_qubits:3 ~init:0b001 [ Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ] in
  check_int "Toffoli idle" 0b001 (classical_exn st)

let test_swap () =
  let st = run_gates ~num_qubits:2 ~init:0b01 [ Gate.Swap (0, 1) ] in
  check_int "swap" 0b10 (classical_exn st)

let test_h_creates_superposition () =
  let st = run_gates ~num_qubits:1 ~init:0 [ Gate.H 0 ] in
  check_int "two terms" 2 (State.num_terms st);
  check_float "balanced" 0.5 (State.prob_bit_one st 0)

let test_hh_is_identity () =
  let st = run_gates ~num_qubits:1 ~init:1 [ Gate.H 0; Gate.H 0 ] in
  check_int "HH = id" 1 (classical_exn st);
  check_float "norm" 1.0 (State.norm st)

let test_hzh_is_x () =
  let st = run_gates ~num_qubits:1 ~init:0 [ Gate.H 0; Gate.Z 0; Gate.H 0 ] in
  check_int "HZH = X" 1 (classical_exn st)

let test_phase_gate () =
  (* S gate twice = Z: |+> -> HZ|+> = |1> after H *)
  let st =
    run_gates ~num_qubits:1 ~init:0
      [ Gate.H 0; Gate.Phase (0, Phase.theta 2); Gate.Phase (0, Phase.theta 2); Gate.H 0 ]
  in
  check_int "H S S H = X" 1 (classical_exn st)

let test_cz_phase_kickback () =
  (* |+>|1> --CZ--> |->|1>; then H gives |1>|1> *)
  let st =
    run_gates ~num_qubits:2 ~init:0b10 [ Gate.H 0; Gate.Cz (0, 1); Gate.H 0 ]
  in
  check_int "cz kickback" 0b11 (classical_exn st)

let test_cphase_unitary () =
  (* Controlled-theta_1 = CZ. *)
  let via_cz = run_gates ~num_qubits:2 ~init:0b10 [ Gate.H 0; Gate.Cz (0, 1); Gate.H 0 ] in
  let via_cp =
    run_gates ~num_qubits:2 ~init:0b10
      [ Gate.H 0;
        Gate.Cphase { control = 0; target = 1; phase = Phase.theta 1 };
        Gate.H 0 ]
  in
  check_float "same state" 1.0 (State.fidelity via_cz via_cp)

let test_measure_deterministic () =
  let b = Builder.create () in
  let q = Builder.fresh_qubit b in
  Builder.x b q;
  let bit = Builder.measure b q in
  ignore bit;
  let r = Sim.run_builder ~rng:(rng ()) b ~inits:[] in
  check_bool "measured 1" true r.Sim.bits.(0)

let test_measure_statistics () =
  (* H then measure: outcome should be ~50/50 over many runs. *)
  let b = Builder.create () in
  let q = Builder.fresh_qubit b in
  Builder.h b q;
  ignore (Builder.measure b q);
  let c = Builder.to_circuit b in
  let rng = rng () in
  let ones = ref 0 in
  let shots = 2000 in
  for _ = 1 to shots do
    let r = Sim.run ~rng c ~init:(State.basis ~num_qubits:1 0) in
    if r.Sim.bits.(0) then incr ones
  done;
  let f = float_of_int !ones /. float_of_int shots in
  check_bool "roughly balanced" true (f > 0.45 && f < 0.55)

let test_measure_reset () =
  let b = Builder.create () in
  let q = Builder.fresh_qubit b in
  Builder.x b q;
  ignore (Builder.measure ~reset:true b q);
  let r = Sim.run_builder ~rng:(rng ()) b ~inits:[] in
  check_bool "outcome 1" true r.Sim.bits.(0);
  check_int "reset to zero" 0 (classical_exn r.Sim.state)

let test_conditional_execution () =
  let b = Builder.create () in
  let q0 = Builder.fresh_qubit b and q1 = Builder.fresh_qubit b in
  Builder.x b q0;
  let bit = Builder.measure b q0 in
  Builder.if_bit b bit (fun () -> Builder.x b q1);
  Builder.if_bit ~value:false b bit (fun () -> Builder.x b q0);
  let r = Sim.run_builder ~rng:(rng ()) b ~inits:[] in
  check_int "taken branch flipped q1, untaken skipped" 0b11
    (classical_exn r.Sim.state);
  (* executed counts include only the taken branch *)
  check_float "executed X" 2. r.Sim.executed.Counts.x

let test_register_io () =
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" 4 in
  let y = Builder.fresh_register b "y" 4 in
  (* copy x into y with CNOTs *)
  for i = 0 to 3 do
    Builder.cnot b ~control:(Register.get x i) ~target:(Register.get y i)
  done;
  let r = Sim.run_builder ~rng:(rng ()) b ~inits:[ (x, 11) ] in
  check_int "x kept" 11 (Sim.register_value_exn r.Sim.state x);
  check_int "y copied" 11 (Sim.register_value_exn r.Sim.state y);
  check_bool "no stray wires" true (Sim.wires_zero r.Sim.state ~except:[ x; y ])

let test_wires_zero_detects_garbage () =
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" 2 in
  let a = Builder.alloc_ancilla b in
  Builder.x b a;
  Builder.free_ancilla b a;
  let r = Sim.run_builder ~rng:(rng ()) b ~inits:[ (x, 0) ] in
  check_bool "garbage detected" false (Sim.wires_zero r.Sim.state ~except:[ x ])

let test_qft_period () =
  (* QFT_3 |0> = uniform superposition; all probabilities 1/8. *)
  let b = Builder.create () in
  let r = Builder.fresh_register b "r" 3 in
  (* textbook QFT: H + controlled rotations per qubit *)
  for i = 2 downto 0 do
    Builder.h b (Register.get r i);
    for j = i - 1 downto 0 do
      Builder.cphase b ~control:(Register.get r j) ~target:(Register.get r i)
        (Phase.theta (i - j + 1))
    done
  done;
  let res = Sim.run_builder ~rng:(rng ()) b ~inits:[ (r, 0) ] in
  check_int "8 terms" 8 (State.num_terms res.Sim.state);
  check_float "norm 1" 1.0 (State.norm res.Sim.state)

(* Regression: the seed's set_bit_zero routed the non-bijective clear-bit
   map through [permute], whose Hashtbl.replace silently dropped one of two
   colliding amplitudes on a superposed, un-projected state. The linear map
   |x> -> |x land ~bit> must accumulate them instead. *)
let test_set_bit_zero_accumulates () =
  let a = 1.0 /. sqrt 2.0 in
  let amp re : Complex.t = { re; im = 0. } in
  let s =
    State.of_alist ~num_qubits:2 [ (0b01, amp a); (0b11, amp a) ]
  in
  let cleared = State.set_bit_zero s ~qubit:1 in
  (match State.to_alist cleared with
  | [ (0b01, v) ] ->
      Alcotest.(check (float 1e-9)) "amplitudes accumulated" (2. *. a) v.re
  | l -> Alcotest.failf "expected one term at |01>, got %d terms" (List.length l));
  (* the pure operation must not mutate its argument *)
  check_int "original untouched" 2 (State.num_terms s)

let test_set_bit_zero_classical_track () =
  let s = State.basis ~num_qubits:3 0b101 in
  let cleared = State.set_bit_zero s ~qubit:2 in
  check_int "cleared" 0b001 (classical_exn cleared);
  check_bool "still classical" true (State.is_classical cleared)

(* A sparse state whose amplitudes have all cancelled has no outcome to
   draw. [prob_bit_one] names the zero state (it returned NaN, and the
   projection after it blamed a "zero-probability outcome"), and so do
   Sim's measurement, on every engine, and [sample_register], on both
   sparse layouts. *)
let test_zero_state_is_named () =
  let amp re : Complex.t = { re; im = 0. } and r = 1.0 /. sqrt 2.0 in
  let zeroed ~num_qubits terms =
    State.set_bit_zero (State.of_alist ~num_qubits terms) ~qubit:0
  in
  List.iter
    (fun (layout, num_qubits, terms) ->
      let s = zeroed ~num_qubits terms in
      let named what f =
        match f () with
        | () -> Alcotest.failf "%s, %s: expected Mbu_error" layout what
        | exception Mbu_error.Error { kind = Mbu_error.Invalid; subsystem; _ } ->
            Alcotest.(check string) (layout ^ ", " ^ what) "State.prob_bit_one" subsystem
      in
      let b = Builder.create () in
      let q = Builder.fresh_register b "q" num_qubits in
      let c = Builder.to_circuit b in
      ignore (Builder.measure b (Register.get q 0));
      let measured = Builder.to_circuit b in
      named "prob_bit_one" (fun () -> ignore (State.prob_bit_one s 0));
      List.iter
        (fun (name, engine) ->
          named ("Sim.run " ^ name) (fun () ->
              ignore (Sim.run ~rng:(rng ()) ~engine measured ~init:s)))
        [ ("fast", Sim.Fast); ("sparse", Sim.Sparse); ("reference", Sim.Reference) ];
      named "sample_register" (fun () ->
          ignore (Sim.sample_register ~shots:1 ~jobs:1 c ~init:s q)))
    [ (* (|0> - |1>)/sqrt 2: its keys fill the cube over wire 0 *)
      ("cube", 1, [ (0, amp r); (1, amp (-.r)) ]);
      (* four keys over six active wires: too thin for a cube *)
      ("map", 6, [ (0, amp 0.5); (1, amp (-0.5)); (62, amp 0.5); (63, amp (-0.5)) ]) ]

(* Regression: Sim.run without ?rng used to draw from one shared lazy
   global, so results depended on how many unseeded runs happened before.
   Now every unseeded run gets its own freshly seeded generator. *)
let test_default_rng_isolation () =
  let b = Builder.create () in
  let q = Builder.fresh_qubit b in
  Builder.h b q;
  ignore (Builder.measure b q);
  let c = Builder.to_circuit b in
  let init = State.basis ~num_qubits:1 0 in
  let r1 = Sim.run c ~init in
  (* interleave other unseeded work that would have perturbed the global *)
  for _ = 1 to 5 do
    ignore (Sim.run c ~init)
  done;
  let r2 = Sim.run c ~init in
  check_bool "unseeded runs reproducible" true (r1.Sim.bits = r2.Sim.bits)

(* Regression: init_registers skipped the value-fits-register check for
   n >= 62 because [1 lsl n] would overflow; the shift-based guard validates
   wide registers too. *)
let test_init_registers_wide_guard () =
  let b = Builder.create () in
  let r = Builder.fresh_register b "r" 62 in
  let st = Sim.init_registers ~num_qubits:62 [ (r, max_int) ] in
  check_int "62-bit round trip" max_int (Sim.register_value_exn st r);
  let check_rejected name ~register f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": expected Mbu_error.Error")
    | exception Mbu_error.Error e ->
        Alcotest.(check string) (name ^ " subsystem") "Sim.init_registers"
          e.Mbu_error.subsystem;
        Alcotest.(check (option string)) (name ^ " register") (Some register)
          e.Mbu_error.register
  in
  check_rejected "negative rejected (wide)" ~register:"r" (fun () ->
      ignore (Sim.init_registers ~num_qubits:62 [ (r, -1) ]));
  let b2 = Builder.create () in
  let s = Builder.fresh_register b2 "s" 3 in
  check_rejected "oversize rejected (narrow)" ~register:"s" (fun () ->
      ignore (Sim.init_registers ~num_qubits:3 [ (s, 8) ]))

(* The 62-wire cap and bad indices are [Mbu_error]s, not bare
   [Invalid_argument]s, so a CLI run over the cap prints one line. *)
let test_width_cap_is_mbu_error () =
  let expect name ~subsystem kind f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": expected Mbu_error.Error")
    | exception Mbu_error.Error e ->
        Alcotest.(check string) (name ^ " subsystem") subsystem
          e.Mbu_error.subsystem;
        check_bool (name ^ " kind") true (e.Mbu_error.kind = kind)
  in
  let too_wide actual = Mbu_error.Resource_limit { limit = 62; actual } in
  let basis = "State.basis" and alist = "State.of_alist" in
  expect "basis, 63 wires" ~subsystem:basis (too_wide 63) (fun () ->
      State.basis ~num_qubits:63 0);
  expect "basis, -1 wires" ~subsystem:basis Mbu_error.Invalid (fun () ->
      State.basis ~num_qubits:(-1) 0);
  expect "basis, index 8 on 3 wires" ~subsystem:basis Mbu_error.Invalid
    (fun () -> State.basis ~num_qubits:3 8);
  expect "basis, negative index" ~subsystem:basis Mbu_error.Invalid (fun () ->
      State.basis ~num_qubits:3 (-1));
  expect "of_alist, 100 wires" ~subsystem:alist (too_wide 100) (fun () ->
      State.of_alist ~num_qubits:100 []);
  expect "of_alist, index out of range" ~subsystem:alist Mbu_error.Invalid
    (fun () -> State.of_alist ~num_qubits:2 [ (4, Complex.one) ]);
  expect "of_alist, repeated index" ~subsystem:alist Mbu_error.Invalid
    (fun () ->
      State.of_alist ~num_qubits:2 [ (1, Complex.one); (1, Complex.one) ]);
  (* What the CLI hits: a circuit of 64 wires, initialised by register. *)
  let b = Builder.create () in
  let r = Builder.fresh_register b "r" 64 in
  expect "init_registers, 64 wires" ~subsystem:basis (too_wide 64) (fun () ->
      Sim.init_registers ~num_qubits:(Builder.num_qubits b) [ (r, 1) ]);
  check_int "62 wires still fit" 62
    (State.num_qubits (State.basis ~num_qubits:62 0))

(* The product track: permutation and diagonal gates keep a basis state a
   single basis vector; H on |1> makes the wire |-> (two terms, still on
   the product track) and a second H returns it; force_sparse pins the
   sparse kernel. *)
let test_classical_track_promotion () =
  let s = State.basis ~num_qubits:3 0b001 in
  check_bool "basis is classical" true (State.is_classical s);
  let s =
    List.fold_left Helpers.kernel_gate s
      [ Gate.X 1; Gate.Cnot { control = 0; target = 2 };
        Gate.Toffoli { c1 = 0; c2 = 1; target = 2 }; Gate.Swap (0, 1);
        Gate.Z 1; Gate.Phase (1, Phase.theta 2) ]
  in
  check_bool "permutation/diagonal stay classical" true (State.is_classical s);
  let s = Helpers.kernel_gate s (Gate.H 0) in
  check_bool "H|1>: not a basis vector" false (State.is_classical s);
  check_int "two terms" 2 (State.num_terms s);
  check_int "support size" 2 (State.support_size s);
  Alcotest.(check (float 0.)) "exact coin" 0.5 (State.prob_bit_one s 0);
  let s = Helpers.kernel_gate s (Gate.H 0) in
  check_bool "HH: a basis vector again" true (State.is_classical s);
  check_int "HH|1> = |1>" 0b011 (classical_exn s);
  let pinned = State.copy s in
  State.force_sparse pinned;
  let pinned = Helpers.kernel_gate (Helpers.kernel_gate pinned (Gate.H 0)) (Gate.H 0) in
  check_bool "pinned state never demotes" false (State.is_classical pinned);
  check_float "pinned state still exact" 1.0 (State.fidelity s pinned)

let test_run_does_not_mutate_init () =
  let c = Circuit.make ~num_qubits:2 [ Instr.Gate (Gate.X 0) ] in
  let init = State.basis ~num_qubits:2 0 in
  let r = Sim.run ~rng:(rng ()) c ~init in
  check_int "run output" 1 (classical_exn r.Sim.state);
  check_int "init untouched" 0 (classical_exn init)

let test_fidelity_global_phase () =
  let plus = run_gates ~num_qubits:1 ~init:0 [ Gate.H 0 ] in
  let minus_global =
    run_gates ~num_qubits:1 ~init:0 [ Gate.X 0; Gate.Z 0; Gate.X 0; Gate.H 0 ]
  in
  (* X Z X = -Z applied to |0> gives -|0>; global phase only *)
  check_float "global phase ignored" 1.0 (State.fidelity plus minus_global)

let suite =
  ( "simulator",
    [ Alcotest.test_case "x/cnot/toffoli" `Quick test_x_cnot_toffoli;
      Alcotest.test_case "swap" `Quick test_swap;
      Alcotest.test_case "h superposition" `Quick test_h_creates_superposition;
      Alcotest.test_case "hh identity" `Quick test_hh_is_identity;
      Alcotest.test_case "hzh = x" `Quick test_hzh_is_x;
      Alcotest.test_case "phase gate" `Quick test_phase_gate;
      Alcotest.test_case "cz kickback" `Quick test_cz_phase_kickback;
      Alcotest.test_case "cphase theta1 = cz" `Quick test_cphase_unitary;
      Alcotest.test_case "deterministic measurement" `Quick test_measure_deterministic;
      Alcotest.test_case "measurement statistics" `Quick test_measure_statistics;
      Alcotest.test_case "measure and reset" `Quick test_measure_reset;
      Alcotest.test_case "conditional execution" `Quick test_conditional_execution;
      Alcotest.test_case "register io" `Quick test_register_io;
      Alcotest.test_case "wires_zero detects garbage" `Quick
        test_wires_zero_detects_garbage;
      Alcotest.test_case "qft uniform" `Quick test_qft_period;
      Alcotest.test_case "set_bit_zero accumulates collisions" `Quick
        test_set_bit_zero_accumulates;
      Alcotest.test_case "a zero state is named, cube and map" `Quick
        test_zero_state_is_named;
      Alcotest.test_case "set_bit_zero on classical track" `Quick
        test_set_bit_zero_classical_track;
      Alcotest.test_case "default rng isolated per run" `Quick
        test_default_rng_isolation;
      Alcotest.test_case "init_registers validates wide registers" `Quick
        test_init_registers_wide_guard;
      Alcotest.test_case "62-wire cap is an Mbu_error" `Quick
        test_width_cap_is_mbu_error;
      Alcotest.test_case "classical track promotion/demotion" `Quick
        test_classical_track_promotion;
      Alcotest.test_case "run copies its init" `Quick
        test_run_does_not_mutate_init;
      Alcotest.test_case "fidelity ignores global phase" `Quick
        test_fidelity_global_phase ] )
