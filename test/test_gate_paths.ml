(* The allocation-free gate paths against the list- and record-based walks
   they replaced (kept in [Helpers]): gate validation, [Counts.of_instrs]
   and [Trace.profile] agree bit for bit on [Test_depth]'s random programs
   in every mode, and minor-heap allocation stays within a per-instruction
   budget. *)

open Mbu_circuit
open Mbu_core
module Bitstring = Mbu_bitstring.Bitstring

let modes =
  [ Counts.Worst; Counts.Best; Counts.Expected 0.5; Counts.Expected 0.3 ]

(* {1 Oracles} *)

(* Any constructor on wires in [-2, 3], so negative and repeated wires, and
   both at once, all occur. *)
let arb_gate =
  let open QCheck.Gen in
  let w = int_range (-2) 3 in
  let gen =
    let* k = int_bound 8 and* a = w and* b = w and* c = w and* ph = int_range 1 4 in
    return
      (match k with
      | 0 -> Gate.X a
      | 1 -> Gate.Z a
      | 2 -> Gate.H a
      | 3 -> Gate.Phase (a, Phase.theta ph)
      | 4 -> Gate.Cnot { control = a; target = b }
      | 5 -> Gate.Cz (a, b)
      | 6 -> Gate.Swap (a, b)
      | 7 -> Gate.Cphase { control = a; target = b; phase = Phase.theta ph }
      | _ -> Gate.Toffoli { c1 = a; c2 = b; target = c })
  in
  QCheck.make gen ~print:(Format.asprintf "%a" Gate.pp)

let outcome f = match f () with () -> None | exception e -> Some e

let prop_validate =
  QCheck.Test.make ~name:"validate raises what the list walk raises" ~count:1000
    arb_gate (fun g ->
      outcome (fun () -> Gate.validate g) = outcome (fun () -> Helpers.reference_validate g))

let prop_operands =
  QCheck.Test.make ~name:"arity and qubit read off qubits" ~count:300 arb_gate
    (fun g ->
      List.init (Gate.arity g) (Gate.qubit g) = Gate.qubits g
      && outcome (fun () -> ignore (Gate.qubit g (Gate.arity g)))
         <> None)

let prop_counts =
  QCheck.Test.make ~name:"counts = record fold, all modes" ~count:400
    Test_depth.arb_program (fun prog ->
      List.for_all
        (fun mode -> Counts.of_instrs ~mode prog = Helpers.reference_counts ~mode prog)
        modes)

(* Every entry's counts, clock and path, compared with [=]. *)
let prop_profile =
  QCheck.Test.make ~name:"profile = fold walk, all modes" ~count:400
    Test_depth.arb_program (fun prog ->
      List.for_all
        (fun mode ->
          Trace.profile ~mode ~span_depth:false prog
          = Helpers.reference_profile ~mode prog)
        modes)

(* {1 Allocation budgets}

   Minor words are a deterministic count for a given compiler, so these
   bounds hold on any machine; they leave room for OCaml 4.14. *)

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let check_budget msg ~per_instr ~instrs words =
  let got = words /. float_of_int instrs in
  if got > per_instr then
    Alcotest.failf "%s: %.2f words per instruction, budget %.2f" msg got per_instr

(* Each emitted gate costs its constructor, its [Instr.Gate] box and one list
   cell: about 8 words. *)
let test_bare_loop () =
  let b = Builder.create () in
  let q = Array.init 8 (fun _ -> Builder.fresh_qubit b) in
  let (), words =
    minor_words (fun () ->
        for i = 0 to 19_999 do
          let a = q.(i land 7) and c = q.((i + 1) land 7) and d = q.((i + 2) land 7) in
          Builder.toffoli b ~c1:a ~c2:c ~target:d;
          Builder.cnot b ~control:a ~target:c;
          Builder.x b d
        done)
  in
  check_budget "60 000 emitted gates" ~per_instr:12. ~instrs:60_000 words

(* CDKPM [modadd_big] with MBU at n = 256: 7 535 instructions in 12 spans. *)
let modadd_cdkpm_256 =
  lazy
    (let n = 256 in
     let p = Bitstring.init n (fun i -> i = 0 || i = n - 1 || i mod 3 = 1) in
     let b = Builder.create () in
     let x = Builder.fresh_register b "x" n in
     let y = Builder.fresh_register b "y" n in
     Mod_add.modadd_big ~mbu:true Mod_add.spec_cdkpm b ~p ~x ~y;
     (Builder.to_circuit b).Circuit.instrs)

let test_scan_counts () =
  let prog = Lazy.force modadd_cdkpm_256 in
  let instrs = Instr.count_instrs prog in
  let _, words = minor_words (fun () -> Instr.scan prog) in
  check_budget "Instr.scan" ~per_instr:0.5 ~instrs words;
  List.iter
    (fun mode ->
      let _, words = minor_words (fun () -> Counts.of_instrs ~mode prog) in
      check_budget "Counts.of_instrs" ~per_instr:0.5 ~instrs words)
    modes

let test_profile_walk () =
  let prog = Lazy.force modadd_cdkpm_256 in
  let instrs = Instr.count_instrs prog in
  let _, words = minor_words (fun () -> Trace.profile ~span_depth:false prog) in
  check_budget "Trace.profile walk" ~per_instr:3. ~instrs words

(* {2 The shot loop}

   Words per shot at [jobs = 1] of a catalogue modular adder with MBU,
   with the same inputs as the Monte-Carlo workload's rows, the shot's
   generator included. *)
let shot_words row ~n =
  let open Mbu_simulator in
  let p = (1 lsl (n - 1)) lor (0x2b5 land ((1 lsl (n - 1)) - 1)) lor 1 in
  let b = Builder.create () in
  let built =
    Mbu_robustness.Catalogue.emit ~x:(p - 2) ~y:(p / 3)
      (Option.get (Mbu_robustness.Catalogue.find row))
      ~mbu:true ~n ~p b
  in
  let c = Builder.to_circuit b in
  let init =
    Sim.init_registers ~num_qubits:(Builder.num_qubits b) built.inits
  in
  let shots = 500 in
  let run () =
    Sim.fold_shots ~seed:3 ~jobs:1 ~shots c ~init
      ~empty:(fun () -> ())
      ~step:(fun () _ _ _ -> ())
      ~merge:(fun () () -> ())
  in
  run ();
  let (), words = minor_words run in
  words /. float_of_int shots

let check_shot_budget row ~n budget =
  let per_shot = shot_words row ~n in
  if per_shot > budget then
    Alcotest.failf "%s n=%d: %.1f words per shot, budget %.0f" row n
      per_shot budget

(* CDKPM at n = 16 (a Table-1 row of the Monte-Carlo workload): 120 words
   before the product track ran in passes, 113 after, and 94 once the GC
   counters were read per fold instead of per run. *)
let test_shot_budget () = check_shot_budget "cdkpm" ~n:16 100.

(* Draper at n = 8: the QFT states stay on the product track, so a clean
   shot allocates what a ripple shot does plus the 63-word fine-phase
   cells of its state, 157 words. On the sparse table, with its 2^9-term
   QFT states, the shot allocated 381 915. *)
let test_draper_shot_budget () = check_shot_budget "draper" ~n:8 200.

(* The same Draper run pinned to the sparse track, whose QFT states hold
   up to 2^9 terms in a cube: it allocates only to grow its arrays (those
   past 256 words on the major heap, which this does not count), about
   1 140 words a run, and the flat table before it about 2 200. The hash
   table before that allocated about 310 000, a boxed amplitude, an
   option and a bucket cell per term and gate. *)
let test_sparse_run_budget () =
  let open Mbu_simulator in
  let n = 8 in
  let p = (1 lsl (n - 1)) lor (0x2b5 land ((1 lsl (n - 1)) - 1)) lor 1 in
  let b = Builder.create () in
  let built =
    Mbu_robustness.Catalogue.emit ~x:(p - 2) ~y:(p / 3)
      (Option.get (Mbu_robustness.Catalogue.find "draper"))
      ~mbu:true ~n ~p b
  in
  let prog = Sim.compile (Builder.to_circuit b) in
  let init =
    Sim.init_registers ~num_qubits:(Builder.num_qubits b) built.inits
  in
  let rng = Rng.make ~stream:5 ~seed:0 0 in
  let runs = 10 in
  let run () =
    for _ = 1 to runs do
      ignore (Sim.run_program ~rng ~engine:Sim.Sparse prog ~init)
    done
  in
  run ();
  let per_run = snd (minor_words run) /. float_of_int runs in
  if per_run > 1700. then
    Alcotest.failf "Sparse Draper n=%d: %.0f words per run, budget 1700" n
      per_run

(* A gate on the product track allocates nothing: 2 000 CNOTs cost what an
   empty circuit of the same width costs, to 0.01 words per gate, with or
   without a hook (gates raise no event, and a hooked pass still runs every
   gate up to the next measurement or conditional). *)
let gate_loop_budget ?on_event msg =
  let open Mbu_simulator in
  let width = 12 in
  let cnots =
    List.init 2000 (fun i ->
        Instr.Gate (Gate.Cnot { control = i mod 5; target = 5 + (i mod 7) }))
  in
  let words instrs =
    let prog = Sim.compile (Circuit.make ~num_qubits:width instrs) in
    let init = State.basis ~num_qubits:width 0b10110 in
    let rng = Rng.make ~stream:1 ~seed:0 0 in
    let run () =
      for _ = 1 to 20 do
        ignore (Sim.run_program ~rng ?on_event prog ~init)
      done
    in
    run ();
    snd (minor_words run) /. 20.
  in
  let extra = words cnots -. words [] in
  check_budget msg ~per_instr:0.01 ~instrs:2000 extra

let test_gate_loop_budget () =
  gate_loop_budget "2 000 CNOTs over an empty circuit"

let test_hooked_gate_loop_budget () =
  let st = Mbu_simulator.Sim.new_stats () in
  gate_loop_budget ~on_event:(Mbu_simulator.Sim.stats_hook st)
    "2 000 hooked CNOTs over an empty circuit"

(* A hook pays for the events it is handed and nothing else. On a forced
   Gidney n = 5 run (every outcome pinned to 0, the base run of
   [Engine.check_forced_branches]), the hooked run allocates 4.5 words per
   [Measured] or [Branch] event more than the same run unhooked: the event
   blocks, 5 words a [Measured] and 4 a [Branch]. While the compiled
   program carried span marks, a hooked run also stopped and allocated at
   every span boundary: 12.2 words per event. *)
let test_hook_budget () =
  let open Mbu_simulator in
  let spec =
    (Option.get (Mbu_robustness.Catalogue.find "gidney"))
      .Mbu_robustness.Catalogue.make ~n:5 ~p:21
  in
  let circuit = spec.Mbu_robustness.Engine.circuit in
  let init = spec.Mbu_robustness.Engine.init in
  let prog = Sim.compile circuit in
  let force = List.init circuit.Circuit.num_bits (fun b -> (b, false)) in
  let events = ref 0 in
  let on_event _ = incr events in
  let runs = 20 in
  let words ?on_event () =
    let run () =
      for _ = 1 to runs do
        ignore (Sim.run_program ?on_event ~force prog ~init)
      done
    in
    run ();
    snd (minor_words run)
  in
  let free = words () and hooked = words ~on_event () in
  let per_run = !events / (2 * runs) in
  if per_run = 0 then Alcotest.fail "no events";
  let per_event = (hooked -. free) /. float_of_int (runs * per_run) in
  if per_event > 8. then
    Alcotest.failf "hooked forced Gidney n=5: %.1f words per event (%d a \
                    run), budget 8" per_event per_run

(* An injected Pauli is a slot of a constant program, run like a program
   gate, so a Y fault (Z, then X) costs what an X fault does, less its
   patch's one extra slot. CDKPM n = 5 at its first gate site: an X run
   allocated 200 words and a Y run 229 while each injected gate built a
   one-slot program of its own; 157 and 158 since. *)
let test_pauli_budget () =
  let open Mbu_simulator in
  let spec =
    (Option.get (Mbu_robustness.Catalogue.find "cdkpm"))
      .Mbu_robustness.Catalogue.make ~n:5 ~p:21
  in
  let circuit = spec.Mbu_robustness.Engine.circuit in
  let init = spec.Mbu_robustness.Engine.init in
  let prog = Sim.compile circuit in
  let site =
    List.find
      (function Fault.Gate_site _ -> true | _ -> false)
      (Fault.sites circuit.Circuit.instrs)
  in
  let runs = 200 in
  let words pauli =
    let faults = [ Fault.of_site ~pauli site ] in
    let run () =
      for _ = 1 to runs do
        ignore (Sim.run_program ~faults prog ~init)
      done
    in
    run ();
    snd (minor_words run) /. float_of_int runs
  in
  let x = words Fault.X and y = words Fault.Y in
  if y -. x > 4. then
    Alcotest.failf "CDKPM n=5: a Y fault run %.1f words, an X fault run %.1f; \
                    budget 4 words apart" y x

let suite =
  ( "gate-paths",
    [ QCheck_alcotest.to_alcotest prop_validate;
      QCheck_alcotest.to_alcotest prop_operands;
      QCheck_alcotest.to_alcotest prop_counts;
      QCheck_alcotest.to_alcotest prop_profile;
      Alcotest.test_case "emission budget: bare gate loop" `Quick test_bare_loop;
      Alcotest.test_case "scan and counts budget: modadd_big n=256" `Quick
        test_scan_counts;
      Alcotest.test_case "profile walk budget: modadd_big n=256" `Quick
        test_profile_walk;
      Alcotest.test_case "shot budget: CDKPM modadd n=16" `Quick
        test_shot_budget;
      Alcotest.test_case "gate loop budget: 2 000 CNOTs" `Quick
        test_gate_loop_budget;
      Alcotest.test_case "hooked gate loop budget: 2 000 CNOTs" `Quick
        test_hooked_gate_loop_budget;
      Alcotest.test_case "hook budget: forced Gidney n=5" `Quick
        test_hook_budget;
      Alcotest.test_case "shot budget: Draper modadd n=8" `Quick
        test_draper_shot_budget;
      Alcotest.test_case "sparse run budget: Draper modadd n=8" `Quick
        test_sparse_run_budget;
      Alcotest.test_case "Pauli budget: Y fault = X fault" `Quick
        test_pauli_budget ] )
