(* Fault-injection engine and forced-branch execution over the Table-1
   catalogue: site enumeration consistency, both arms of every MBU
   conditional driven deterministically, exhaustive single-X campaigns that
   classify every site without aborting, the state-size guard, and the
   injected-fault counter. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_robustness

let n = 4
let p = 11

let outcome : Engine.outcome Alcotest.testable =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Engine.outcome_name o))
    ( = )

(* [Fault.site] (counted descent, no expansion) must agree with
   [Fault.sites] (the expanded program-order walk) on every index. *)
let test_site_enumeration () =
  List.iter
    (fun (e : Catalogue.entry) ->
      let spec = e.Catalogue.make ~n ~p in
      let instrs = spec.Engine.circuit.Circuit.instrs in
      let num = Fault.num_sites instrs in
      let listed = Fault.sites instrs in
      Alcotest.(check int)
        (e.Catalogue.name ^ ": num_sites = |sites|")
        num (List.length listed);
      List.iteri
        (fun k s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: site %d by descent = by walk" e.Catalogue.name
               k)
            true
            (Fault.site instrs k = s))
        listed;
      (match Fault.site instrs num with
      | _ -> Alcotest.fail "site out of range should raise"
      | exception Invalid_argument _ -> ()))
    Catalogue.all

(* The one-walk descent through spans nested three deep, a branch body
   between them and a shared block at the bottom, against the expanded
   enumeration: every index, and both ends out of range. *)
let test_site_nested_spans () =
  let span label body = Instr.Span { label; peak_ancillas = 0; body } in
  let g q = Instr.Gate (Gate.X q) in
  let shared =
    Instr.share
      [ Instr.Gate (Gate.Toffoli { c1 = 0; c2 = 1; target = 2 }); g 3 ]
  in
  let instrs =
    [ g 0;
      span "outer"
        [ Instr.Gate (Gate.Cnot { control = 0; target = 1 });
          span "middle"
            [ Instr.Measure { qubit = 1; bit = 0; reset = false };
              Instr.If_bit
                { bit = 0; value = true;
                  body = [ span "inner" [ g 2; shared; g 1 ]; shared ] };
              span "inner-sibling" [] ];
          g 3 ];
      shared;
      g 0 ]
  in
  let listed = Fault.sites instrs in
  Alcotest.(check int) "num_sites = |sites|" (Fault.num_sites instrs)
    (List.length listed);
  List.iteri
    (fun k s ->
      Alcotest.(check bool)
        (Printf.sprintf "site %d by descent = by walk" k)
        true
        (Fault.site instrs k = s))
    listed;
  List.iter
    (fun k ->
      match Fault.site instrs k with
      | _ -> Alcotest.failf "site %d out of range should raise" k
      | exception Invalid_argument _ -> ())
    [ -1; List.length listed ]

(* Every catalogue adder is built with ~mbu:true, so each has at least one
   conditional; forcing outcomes must drive both arms of every one, with
   the classical oracle holding on each forced run, and the flips' Toffolis
   weighted by 2^-depth must give the analytic expectation exactly. *)
let test_forced_branches_cover_all_arms () =
  List.iter
    (fun (e : Catalogue.entry) ->
      let spec = e.Catalogue.make ~n ~p in
      let cov = Engine.check_forced_branches spec in
      Alcotest.(check (float 0.))
        (e.Catalogue.name ^ ": exact Toffolis = Counts in Expected 0.5")
        (Counts.of_instrs ~mode:(Counts.Expected 0.5)
           spec.Engine.circuit.Circuit.instrs)
          .Counts.toffoli
        cov.Engine.expected_toffoli;
      Alcotest.(check bool)
        (e.Catalogue.name ^ ": has conditionals")
        true
        (cov.Engine.arms <> []);
      Alcotest.(check (list (triple int bool bool)))
        (e.Catalogue.name ^ ": no uncovered arms")
        [] cov.Engine.uncovered;
      Alcotest.(check bool)
        (e.Catalogue.name ^ ": oracle holds on every forced arm")
        true
        (Engine.covered cov))
    Catalogue.all

(* An arm that changes a register the oracle does not read still leaves
   a different state: with [r] in [keep] but not in [expect], both arms
   classify [Correct], so only the fidelity between them sees it. *)
let test_forced_branches_need_reconverged_arms () =
  let b = Builder.create () in
  let q = Builder.fresh_register b "q" 1 and r = Builder.fresh_register b "r" 1 in
  Builder.h b (Register.get q 0);
  let bit = Builder.measure ~reset:true b (Register.get q 0) in
  Builder.if_bit b bit (fun () -> Builder.x b (Register.get r 0));
  let spec =
    Engine.spec_of_builder ~name:"diverging-arm" ~keep:[ r ] ~expect:[] b
      ~inits:[]
  in
  let cov = Engine.check_forced_branches spec in
  Alcotest.(check (list (triple int bool bool)))
    "both arms driven" [] cov.Engine.uncovered;
  Alcotest.(check bool) "both arms classify Correct" true cov.Engine.correct;
  Alcotest.(check bool) "the arms do not reconverge" false
    cov.Engine.reconverged;
  Alcotest.(check bool) "not covered" false (Engine.covered cov)

(* An outcome that can go either way is not yet a fair coin: after H.T.H
   the wire reads 1 with probability sin^2(pi/8), so both arms are driven
   and reconverge (the X undoes a 1), but the measurement is not the
   1/2 coin Lemma 4.1 prices. *)
let test_forced_branches_need_fair_coins () =
  let b = Builder.create () in
  let q = Register.get (Builder.fresh_register b "q" 1) 0 in
  Builder.h b q;
  Builder.phase b q (Phase.theta 3);
  Builder.h b q;
  let bit = Builder.measure b q in
  Builder.if_bit b bit (fun () -> Builder.x b q);
  let spec =
    Engine.spec_of_builder ~name:"biased-coin" ~keep:[] ~expect:[] b ~inits:[]
  in
  let cov = Engine.check_forced_branches spec in
  Alcotest.(check (list (triple int bool bool)))
    "both arms driven" [] cov.Engine.uncovered;
  Alcotest.(check bool) "both arms classify Correct" true cov.Engine.correct;
  Alcotest.(check bool) "the arms reconverge" true cov.Engine.reconverged;
  Alcotest.(check bool) "p1 = sin^2(pi/8) is not fair" false cov.Engine.fair;
  Alcotest.(check bool) "not covered" false (Engine.covered cov)

(* The paper's MBU cost model says each correction fires with probability
   1/2; the Monte-Carlo stats hook should see that empirically. *)
let test_branch_frequency_near_half () =
  List.iter
    (fun (e : Catalogue.entry) ->
      let spec = e.Catalogue.make ~n ~p in
      let st = Sim.new_stats () in
      ignore
        (Sim.run_shots ~seed:17 ~stats:st ~shots:200 spec.Engine.circuit
           ~init:spec.Engine.init);
      match Sim.taken_frequency st with
      | None -> Alcotest.fail (e.Catalogue.name ^ ": no branches observed")
      | Some f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: taken frequency %.3f in [0.35, 0.65]"
               e.Catalogue.name f)
            true
            (f >= 0.35 && f <= 0.65))
    Catalogue.all

(* Acceptance probe: an exhaustive single-X campaign over a VBE modular
   adder — one run per (gate, wire) site plus every outcome flip and every
   branch skip — must classify each run, never abort. *)
let test_exhaustive_single_x_vbe () =
  let vbe = Option.get (Catalogue.find "vbe5") in
  let spec = vbe.Catalogue.make ~n ~p in
  let r =
    Engine.run_campaign ~seed:3
      ~plan:(Engine.Exhaustive { paulis = [ Fault.X ] })
      spec
  in
  Alcotest.(check int) "one run per site" r.Engine.sites r.Engine.runs;
  Alcotest.(check int) "every run classified" r.Engine.runs
    (r.Engine.correct + r.Engine.detected + r.Engine.silent);
  Alcotest.(check bool) "some fault detected" true (r.Engine.detected > 0)

(* Random campaigns are reproducible and jobs-independent. *)
let test_campaign_deterministic () =
  let spec = (Option.get (Catalogue.find "cdkpm")).Catalogue.make ~n ~p in
  let run jobs =
    Engine.run_campaign ~seed:5 ~jobs
      ~plan:(Engine.Random { runs = 60; faults_per_run = 2 })
      spec
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check (triple int int int))
    "tallies independent of jobs"
    (a.Engine.correct, a.Engine.detected, a.Engine.silent)
    (b.Engine.correct, b.Engine.detected, b.Engine.silent);
  Alcotest.(check int) "eight silent examples" 8
    (List.length a.Engine.silent_examples);
  Alcotest.(check bool) "silent examples independent of jobs" true
    (a.Engine.silent_examples = b.Engine.silent_examples)

(* Negative run and fault counts are one clean error, not an exception from
   the standard library. *)
let test_campaign_rejects_negative_counts () =
  let spec = (Option.get (Catalogue.find "cdkpm")).Catalogue.make ~n ~p in
  List.iter
    (fun (runs, faults_per_run) ->
      match Engine.run_campaign ~plan:(Engine.Random { runs; faults_per_run }) spec with
      | _ -> Alcotest.failf "runs %d, faults %d accepted" runs faults_per_run
      | exception Mbu_error.Error e ->
          Alcotest.(check string) "subsystem" "Robustness.run_campaign"
            e.Mbu_error.subsystem)
    [ (-1, 1); (10, -1) ]

(* Forcing an outcome that has probability zero is an impossible request
   and raises cleanly, with the bit attached. *)
let test_force_zero_probability_rejected () =
  let b = Builder.create () in
  let r = Builder.fresh_register b "q" 1 in
  ignore (Builder.measure b (Register.get r 0));
  let c = Builder.to_circuit b in
  let init = Sim.init_registers ~num_qubits:1 [] in
  match Sim.run ~force:[ (0, true) ] c ~init with
  | _ -> Alcotest.fail "forcing a zero-probability outcome should raise"
  | exception Mbu_error.Error e ->
      Alcotest.(check string) "subsystem" "Sim.run" e.Mbu_error.subsystem;
      Alcotest.(check (option int)) "bit attached" (Some 0) e.Mbu_error.bit

(* The [injected] counter reports faults that actually fired: a Pauli at a
   reached position counts, one parked inside a never-taken branch does
   not. *)
let test_injected_counter () =
  let spec = (Option.get (Catalogue.find "cdkpm")).Catalogue.make ~n ~p in
  let c = spec.Engine.circuit in
  let instrs = c.Circuit.instrs in
  let rng () = Random.State.make [| 23 |] in
  let clean = Sim.run ~rng:(rng ()) c ~init:spec.Engine.init in
  Alcotest.(check int) "no plan, nothing injected" 0 clean.Sim.injected;
  let first = Fault.of_site ~pauli:Fault.X (Fault.site instrs 0) in
  let hit = Sim.run ~rng:(rng ()) ~faults:[ first ] c ~init:spec.Engine.init in
  Alcotest.(check int) "pauli at site 0 fires" 1 hit.Sim.injected;
  match
    List.find_opt
      (function Fault.Branch_site _ -> true | _ -> false)
      (Fault.sites instrs)
  with
  | Some (Fault.Branch_site { pos; bit; value }) ->
      (* Park an X on the first instruction of the conditional body and pin
         the guard so the branch never fires: the fault must not either. *)
      let parked = Fault.Pauli_after { pos = pos + 1; qubit = 0; pauli = Fault.X } in
      let miss =
        Sim.run ~rng:(rng ()) ~force:[ (bit, not value) ] ~faults:[ parked ] c
          ~init:spec.Engine.init
      in
      Alcotest.(check int) "pauli in untaken branch never fires" 0
        miss.Sim.injected;
      let skip = Fault.Skip_block { pos } in
      let skipped =
        Sim.run ~rng:(rng ()) ~force:[ (bit, value) ] ~faults:[ skip ] c
          ~init:spec.Engine.init
      in
      Alcotest.(check int) "skip of a taken branch counts" 1
        skipped.Sim.injected
  | _ -> Alcotest.fail "catalogue circuit should contain a conditional"

(* Classification sanity on a hand-picked plan: flipping the recorded MBU
   outcome (misread model) desynchronizes the correction from the state and
   is always caught — on either true outcome — by the dirty-ancilla check. *)
let test_flip_outcome_always_detected () =
  let spec = (Option.get (Catalogue.find "cdkpm")).Catalogue.make ~n ~p in
  let bits =
    List.filter_map
      (function Fault.Branch_site { bit; _ } -> Some bit | _ -> None)
      (Fault.sites spec.Engine.circuit.Circuit.instrs)
  in
  Alcotest.(check bool) "has an MBU measurement" true (bits <> []);
  List.iter
    (fun bit ->
      List.iter
        (fun v ->
          let c = spec.Engine.circuit in
          let o =
            Sim.run
              ~force:(List.init c.Circuit.num_bits (fun b -> (b, v)))
              ~rng:(Random.State.make [| 31 |])
              ~faults:[ Fault.Flip_outcome { bit } ]
              c ~init:spec.Engine.init
            |> Engine.classify_run spec
          in
          Alcotest.check outcome
            (Printf.sprintf "misread of bit %d detected (outcome %b)" bit v)
            Engine.Detected o)
        [ true; false ])
    bits

(* Faults through the compiled program: slots are fault positions, so on
   CDKPM at n = 3 every single-X plan (and one plan skipping every
   conditional) must classify and count injections identically on the
   product track and the oracle engine. *)
let test_compiled_faults_fast_eq_reference () =
  let spec = (Option.get (Catalogue.find "cdkpm")).Catalogue.make ~n:3 ~p:5 in
  let c = spec.Engine.circuit in
  let sites = Fault.sites c.Circuit.instrs in
  let agree name ~seeds faults =
    List.iter
      (fun seed ->
        let rng () = Random.State.make [| 41; seed |] in
        let classify engine =
          Engine.classify ~engine ~rng:(rng ()) ~faults spec
        in
        let injected engine =
          let r = Sim.run ~rng:(rng ()) ~engine ~faults c ~init:spec.Engine.init in
          r.Sim.injected
        in
        Alcotest.check outcome
          (Printf.sprintf "%s, seed %d: classification" name seed)
          (classify Sim.Reference) (classify Sim.Fast);
        Alcotest.(check int)
          (Printf.sprintf "%s, seed %d: injected" name seed)
          (injected Sim.Reference) (injected Sim.Fast))
      seeds
  in
  List.iteri
    (fun k site ->
      agree (Printf.sprintf "site %d" k) ~seeds:[ 0; 1 ]
        [ Fault.of_site ~pauli:Fault.X site ])
    sites;
  let skips =
    List.filter_map
      (function
        | Fault.Branch_site { pos; _ } -> Some (Fault.Skip_block { pos })
        | Fault.Gate_site _ | Fault.Measure_site _ -> None)
      sites
  in
  Alcotest.(check bool) "has conditionals" true (skips <> []);
  agree "skip every If_bit" ~seeds:(List.init 8 Fun.id) skips

(* A misread is a patch on each measure slot that writes its bit: naming
   it twice still flips the bit once and counts one injection, on both
   engines, and a flip of a bit no measurement writes injects nothing. *)
let test_misread_patches () =
  let spec = (Option.get (Catalogue.find "cdkpm")).Catalogue.make ~n:3 ~p:5 in
  let c = spec.Engine.circuit in
  let bit =
    List.find_map
      (function Fault.Measure_site { bit; _ } -> Some bit | _ -> None)
      (Fault.sites c.Circuit.instrs)
    |> Option.get
  in
  let check name ~injected faults =
    let rng () = Random.State.make [| 43 |] in
    let run engine = Sim.run ~rng:(rng ()) ~engine ~faults c ~init:spec.Engine.init in
    List.iter
      (fun engine ->
        Alcotest.(check int) (name ^ ": injected") injected
          (run engine).Sim.injected)
      [ Sim.Fast; Sim.Reference ];
    let classify engine = Engine.classify ~engine ~rng:(rng ()) ~faults spec in
    Alcotest.check outcome (name ^ ": class") (classify Sim.Reference)
      (classify Sim.Fast)
  in
  let flip bit = Fault.Flip_outcome { bit } in
  check "named twice" ~injected:1 [ flip bit; flip bit ];
  check "never measured" ~injected:0 [ flip c.Circuit.num_bits ];
  Alcotest.check outcome "never measured: correct" Engine.Correct
    (Engine.classify ~rng:(Random.State.make [| 43 |])
       ~faults:[ flip c.Circuit.num_bits ] spec)

(* Only [Mbu_error] means "detected": an [Invalid_argument] from a state
   kernel (here: measuring a zero-amplitude state) is a simulator bug and
   must escape classification and campaigns instead of counting as a
   detected fault. *)
let test_classify_propagates_kernel_errors () =
  let circuit =
    Circuit.make ~num_qubits:1 ~num_bits:1
      [ Instr.Measure { qubit = 0; bit = 0; reset = false } ]
  in
  let spec =
    { Engine.name = "zero-amplitude"; circuit;
      init = State.of_alist ~num_qubits:1 [ (0, Complex.zero) ];
      keep = []; expect = []; detectors = [] }
  in
  (match Engine.classify ~rng:(Random.State.make [| 1 |]) ~faults:[] spec with
  | o ->
      Alcotest.failf "classify: expected Invalid_argument, got %s"
        (Engine.outcome_name o)
  | exception Invalid_argument _ -> ());
  match
    Engine.run_campaign ~jobs:1
      ~plan:(Engine.Random { runs = 2; faults_per_run = 1 })
      spec
  with
  | _ -> Alcotest.fail "run_campaign: expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* A spec whose [init] is narrower than its circuit is a harness error:
   it propagates from both entry points instead of classifying every run
   [Detected] (which made the campaign's baseline check blame the oracle). *)
let test_narrow_init_propagates () =
  let circuit =
    Circuit.make ~num_qubits:2 [ Instr.Gate (Gate.Cnot { control = 0; target = 1 }) ]
  in
  let spec =
    { Engine.name = "narrow"; circuit; init = State.basis ~num_qubits:1 0;
      keep = []; expect = []; detectors = [] }
  in
  let narrow what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected the Sim.run width error" what
    | exception Mbu_error.Error e ->
        Alcotest.(check string) (what ^ ": subsystem") "Sim.run"
          e.Mbu_error.subsystem
  in
  narrow "classify" (fun () ->
      ignore (Engine.classify ~rng:(Random.State.make [| 1 |]) ~faults:[] spec));
  narrow "run_campaign" (fun () ->
      ignore
        (Engine.run_campaign ~jobs:1
           ~plan:(Engine.Random { runs = 2; faults_per_run = 1 })
           spec))

(* A Pauli fault on a wire the state lacks is a bad plan, not an
   injection: every engine raises the [Sim.run] error naming the wire
   before it runs a slot, wherever the fault's position lies, and the
   campaign entry point propagates it. A wire the state has past the
   circuit's is a wire like any other. *)
let test_pauli_off_the_state () =
  let spec = (Option.get (Catalogue.find "cdkpm")).Catalogue.make ~n:3 ~p:5 in
  let c = spec.Engine.circuit in
  let wires = c.Circuit.num_qubits in
  let off = [ wires; 61; 62; 70; -1 ] in
  List.iter
    (fun qubit ->
      List.iter
        (fun (engine, name) ->
          List.iter
            (fun pos ->
              let what = Printf.sprintf "%s: wire %d after slot %d" name qubit pos in
              let fault = Fault.Pauli_after { pos; qubit; pauli = Fault.Y } in
              match Sim.run ~engine ~faults:[ fault ] c ~init:spec.Engine.init with
              | _ -> Alcotest.failf "%s: expected the Sim.run error" what
              | exception Mbu_error.Error e ->
                  Alcotest.(check string) (what ^ ": subsystem") "Sim.run"
                    e.Mbu_error.subsystem;
                  Alcotest.(check bool) (what ^ ": invalid") true
                    (e.Mbu_error.kind = Mbu_error.Invalid);
                  Alcotest.(check (option int)) (what ^ ": wire") (Some qubit)
                    e.Mbu_error.qubit)
            [ 0; 1_000_000 ])
        [ (Sim.Fast, "Fast"); (Sim.Sparse, "Sparse");
          (Sim.Reference, "Reference") ])
    off;
  (match
     Engine.classify ~rng:(Random.State.make [| 1 |])
       ~faults:[ Fault.Pauli_after { pos = 0; qubit = 70; pauli = Fault.X } ]
       spec
   with
  | _ -> Alcotest.fail "classify: expected the Sim.run error"
  | exception Mbu_error.Error e ->
      Alcotest.(check (option int)) "classify: wire" (Some 70) e.Mbu_error.qubit);
  let wide = State.basis ~num_qubits:(wires + 1) 0 in
  let r =
    Sim.run ~faults:[ Fault.Pauli_after { pos = 0; qubit = wires; pauli = Fault.X } ]
      c ~init:wide
  in
  Alcotest.(check int) "a wire past the circuit's: injected" 1 r.Sim.injected;
  Alcotest.(check (option bool)) "a wire past the circuit's: flipped"
    (Some true) (State.bit_value r.Sim.state wires)

let suite =
  ( "robustness",
    [ Alcotest.test_case "site enumeration consistent" `Quick
        test_site_enumeration;
      Alcotest.test_case "site descent through nested spans" `Quick
        test_site_nested_spans;
      Alcotest.test_case "forced branches cover every arm" `Quick
        test_forced_branches_cover_all_arms;
      Alcotest.test_case "forced branches: diverging arms not covered" `Quick
        test_forced_branches_need_reconverged_arms;
      Alcotest.test_case "forced branches: biased coin not covered" `Quick
        test_forced_branches_need_fair_coins;
      Alcotest.test_case "branch frequency near 1/2" `Quick
        test_branch_frequency_near_half;
      Alcotest.test_case "exhaustive single-X VBE classified" `Quick
        test_exhaustive_single_x_vbe;
      Alcotest.test_case "campaign jobs-independent" `Quick
        test_campaign_deterministic;
      Alcotest.test_case "campaign rejects negative counts" `Quick
        test_campaign_rejects_negative_counts;
      Alcotest.test_case "force zero-probability rejected" `Quick
        test_force_zero_probability_rejected;
      Alcotest.test_case "injected counter" `Quick test_injected_counter;
      Alcotest.test_case "outcome misread always detected" `Quick
        test_flip_outcome_always_detected;
      Alcotest.test_case "compiled faults: Fast = Reference" `Quick
        test_compiled_faults_fast_eq_reference;
      Alcotest.test_case "kernel errors are not detections" `Quick
        test_classify_propagates_kernel_errors;
      Alcotest.test_case "misreads: one patch per slot" `Quick
        test_misread_patches;
      Alcotest.test_case "narrow init is a harness error" `Quick
        test_narrow_init_propagates;
      Alcotest.test_case "Pauli on a wire the state lacks" `Quick
        test_pauli_off_the_state ] )
