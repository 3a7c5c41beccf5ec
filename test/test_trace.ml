(* Span profiling (Trace) and the simulator event hooks: conservation of
   gate counts across the span tree, transparency of spans under adjoint,
   optimization and QASM round-trips, and the Monte-Carlo check that MBU
   conditionals really fire with frequency ~1/2 on superposed inputs. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core

let mode = Counts.Expected 0.5

(* The Table-1 workhorse: mixed Gidney+CDKPM modular adder. *)
let table1_circuit ?(mbu = true) n =
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" n in
  let y = Builder.fresh_register b "y" n in
  let p = (1 lsl (n - 1)) lor (0b1010101 land ((1 lsl (n - 1)) - 1)) lor 1 in
  Mod_add.modadd ~mbu Mod_add.spec_mixed b ~p ~x ~y;
  (b, x, y, p)

let test_span_conservation () =
  let b, _, _, _ = table1_circuit 8 in
  let c = Builder.to_circuit b in
  let root = Trace.of_circuit ~mode c in
  let total = Counts.of_instrs ~mode c.Circuit.instrs in
  (* every gate is attributed to exactly one span: flat sums = root cum =
     the circuit's own counts *)
  Alcotest.(check bool) "root cum = Counts.of_instrs" true
    (Counts.approx_equal root.Trace.cum total);
  Alcotest.(check bool) "sum of flats = root cum" true
    (Counts.approx_equal (Trace.sum_flat root) root.Trace.cum);
  Alcotest.(check (float 1e-9)) "Toffoli conservation" total.Counts.toffoli
    (List.fold_left
       (fun acc e -> acc +. e.Trace.flat.Counts.toffoli)
       0. (Trace.flatten root));
  (* the tree actually has structure: the modadd span and its stages *)
  Alcotest.(check bool) "modadd span present" true
    (Trace.find root "modadd[gidney+cdkpm]+mbu" <> None);
  Alcotest.(check bool) "stage span present" true
    (Trace.find root "modadd.comp_p" <> None)

let test_root_matches_circuit_counts_worst () =
  let b, _, _, _ = table1_circuit ~mbu:false 6 in
  let c = Builder.to_circuit b in
  List.iter
    (fun m ->
      let root = Trace.of_circuit ~mode:m c in
      Alcotest.(check bool) "root cum = circuit counts" true
        (Counts.approx_equal root.Trace.cum (Circuit.counts ~mode:m c)))
    [ Counts.Worst; Counts.Best; Counts.Expected 0.3 ]

let test_adjoint_preserves_spans_and_counts () =
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" 5 in
  let y = Builder.fresh_register b "y" 6 in
  Adder.add Adder.Cdkpm b ~x ~y;
  let instrs = (Builder.to_circuit b).Circuit.instrs in
  let adj = Instr.adjoint instrs in
  Alcotest.(check int) "span count preserved" (Instr.count_spans instrs)
    (Instr.count_spans adj);
  Alcotest.(check int) "instr count preserved" (Instr.count_instrs instrs)
    (Instr.count_instrs adj);
  Alcotest.(check bool) "counts preserved" true
    (Counts.approx_equal
       (Counts.of_instrs ~mode instrs)
       (Counts.of_instrs ~mode adj));
  (* adjoint twice is the original program, spans included *)
  Alcotest.(check bool) "involution" true (Instr.adjoint adj = instrs)

let test_optimize_ignores_spans () =
  (* spans must not act as optimization barriers: the optimizer reaches the
     same gate counts whether or not the spans are there *)
  let b, _, _, _ = table1_circuit 6 in
  let c = Builder.to_circuit b in
  let stripped =
    Circuit.make ~num_qubits:c.Circuit.num_qubits ~num_bits:c.Circuit.num_bits
      (Instr.strip_spans c.Circuit.instrs)
  in
  let with_spans = Circuit.counts ~mode (Optimize.circuit c) in
  let without = Circuit.counts ~mode (Optimize.circuit stripped) in
  Alcotest.(check bool) "same optimized counts" true
    (Counts.approx_equal with_spans without);
  (* and optimization keeps the attribution sound *)
  let root = Trace.of_circuit ~mode (Optimize.circuit c) in
  Alcotest.(check bool) "conservation after optimize" true
    (Counts.approx_equal (Trace.sum_flat root) root.Trace.cum)

let test_qasm_roundtrip_keeps_spans () =
  let b, _, _, _ = table1_circuit 5 in
  let c = Builder.to_circuit b in
  let c' = Qasm.of_string (Qasm.to_string c) in
  Alcotest.(check int) "span count survives QASM"
    (Instr.count_spans c.Circuit.instrs)
    (Instr.count_spans c'.Circuit.instrs);
  Alcotest.(check bool) "counts survive QASM" true
    (Counts.approx_equal
       (Counts.of_instrs ~mode c.Circuit.instrs)
       (Counts.of_instrs ~mode c'.Circuit.instrs));
  let root = Trace.of_circuit ~mode c and root' = Trace.of_circuit ~mode c' in
  Alcotest.(check bool) "profile survives QASM" true
    (Counts.approx_equal root.Trace.cum root'.Trace.cum)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_render_and_json () =
  let b, _, _, _ = table1_circuit 8 in
  let root = Trace.of_circuit ~mode (Builder.to_circuit b) in
  let txt = Trace.render root in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in render") true (contains txt needle))
    [ "(root)"; "modadd"; "cum Tof"; "anc" ];
  let json = Trace.to_json root in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in json") true (contains json needle))
    [ "traceEvents"; "\"ph\": \"X\""; "toffoli"; "peak_ancillas" ]

(* Every number of a span event reads back as its entry's field, in a
   non-dyadic mode where starts and costs are no short decimals: after a
   measurement and three conditional X gates at weight 0.3, span "s"
   starts at 1 + 0.3 + 0.3 + 0.3 = 1.9000000000000001, not 1.9. *)
let test_json_numbers_exact () =
  let module Json = Mbu_telemetry.Json in
  let num ev path =
    match
      List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some ev) path
    with
    | Some (Json.Num v) -> v
    | _ -> Alcotest.failf "no number at %s" (String.concat "." path)
  in
  let check_events root =
    let events =
      match Json.member "traceEvents" (Json.parse (Trace.to_json root)) with
      | Some (Json.Arr evs) -> evs
      | _ -> Alcotest.fail "no traceEvents array"
    in
    List.iter2
      (fun (e : Trace.entry) ev ->
        List.iter
          (fun (path, want) ->
            Alcotest.(check (float 0.))
              (e.label ^ " " ^ String.concat "." path)
              want (num ev path))
          [ ([ "ts" ], e.start); ([ "dur" ], e.dur);
            ([ "args"; "toffoli" ], e.cum.Counts.toffoli);
            ([ "args"; "cnot_cz" ], Counts.cnot_cz e.cum);
            ([ "args"; "x" ], e.cum.Counts.x);
            ([ "args"; "measure" ], e.cum.Counts.measure);
            ([ "args"; "flat_toffoli" ], e.flat.Counts.toffoli);
            ([ "args"; "flat_cnot_cz" ], Counts.cnot_cz e.flat);
            ([ "args"; "peak_ancillas" ], float_of_int e.peak_ancillas);
            ([ "args"; "toffoli_depth" ], e.toffoli_depth);
            ([ "args"; "total_depth" ], e.total_depth) ])
      (Trace.flatten root) events
  in
  let mode = Counts.Expected 0.3 in
  let cond =
    Instr.If_bit { bit = 0; value = true; body = [ Instr.Gate (Gate.X 1) ] }
  in
  let root =
    Trace.profile ~mode
      [ Instr.Measure { qubit = 0; bit = 0; reset = false }; cond; cond; cond;
        Instr.Span { label = "s"; peak_ancillas = 0; body = [ Instr.Gate (Gate.X 1) ] } ]
  in
  Alcotest.(check (option (float 0.))) "start of s" (Some 1.9000000000000001)
    (Option.map (fun e -> e.Trace.start) (Trace.find root "s"));
  check_events root;
  let b, _, _, _ = table1_circuit 8 in
  check_events (Trace.of_circuit ~mode (Builder.to_circuit b))

(* The acceptance experiment: a superposed input to an MBU modular adder,
   >= 400 shots, each run hitting exactly one measurement-conditioned
   block; the empirical taken frequency must sit at 0.5 +- 0.05. *)
let test_mbu_branch_frequency () =
  let shots = 400 in
  let rng = Random.State.make [| 0x5ead; 17 |] in
  let st = Sim.new_stats () in
  let n = 4 and p = 13 in
  for _ = 1 to shots do
    let b = Builder.create () in
    let x = Builder.fresh_register b "x" n in
    let y = Builder.fresh_register b "y" n in
    Array.iter (fun q -> Builder.h b q) (Register.qubits x);
    Mod_add.modadd ~mbu:true Mod_add.spec_cdkpm b ~p ~x ~y;
    let c = Builder.to_circuit b in
    let init =
      Sim.init_registers ~num_qubits:(Builder.num_qubits b) [ (y, 11) ]
    in
    ignore (Sim.run ~rng ~on_event:(Sim.stats_hook st) c ~init);
    Sim.record_run st
  done;
  Alcotest.(check int) "runs recorded" shots (Sim.runs st);
  (match Sim.branch_bits st with
  | [ bit ] -> (
      (* one conditional per run *)
      match Sim.bit_taken_frequency st bit with
      | Some f ->
          Alcotest.(check bool)
            (Printf.sprintf "empirical frequency %.3f within 0.5 +- 0.05" f)
            true
            (Float.abs (f -. 0.5) <= 0.05)
      | None -> Alcotest.fail "no branch tally")
  | bits ->
      Alcotest.failf "expected exactly one conditional bit, got %d"
        (List.length bits));
  match Sim.taken_frequency st with
  | Some f ->
      Alcotest.(check bool) "overall frequency near 0.5" true
        (Float.abs (f -. 0.5) <= 0.05)
  | None -> Alcotest.fail "no branches seen"

(* Same acceptance experiment through the parallel multi-shot runner: one
   circuit, 400 shots fanned across domains (or the sequential fallback),
   per-worker tallies merged into one stats value. *)
let test_mbu_branch_frequency_run_shots () =
  let n = 4 and p = 13 in
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" n in
  let y = Builder.fresh_register b "y" n in
  Array.iter (fun q -> Builder.h b q) (Register.qubits x);
  Mod_add.modadd ~mbu:true Mod_add.spec_cdkpm b ~p ~x ~y;
  let st = Sim.new_stats () in
  let shots = 400 in
  let init =
    Sim.init_registers ~num_qubits:(Builder.num_qubits b) [ (y, 11) ]
  in
  let runs =
    Sim.run_shots ~seed:17 ~jobs:4 ~stats:st ~shots (Builder.to_circuit b)
      ~init
  in
  Alcotest.(check int) "shots returned" shots (Array.length runs);
  Alcotest.(check int) "runs recorded" shots (Sim.runs st);
  match Sim.taken_frequency st with
  | Some f ->
      Alcotest.(check bool)
        (Printf.sprintf "empirical frequency %.3f within 0.5 +- 0.05" f)
        true
        (Float.abs (f -. 0.5) <= 0.05)
  | None -> Alcotest.fail "no branches seen"

let suite =
  ( "trace",
    [ Alcotest.test_case "span conservation (table 1)" `Quick
        test_span_conservation;
      Alcotest.test_case "root = circuit counts, all modes" `Quick
        test_root_matches_circuit_counts_worst;
      Alcotest.test_case "adjoint round-trip" `Quick
        test_adjoint_preserves_spans_and_counts;
      Alcotest.test_case "optimize ignores spans" `Quick
        test_optimize_ignores_spans;
      Alcotest.test_case "qasm round-trip keeps spans" `Quick
        test_qasm_roundtrip_keeps_spans;
      Alcotest.test_case "render and json" `Quick test_render_and_json;
      Alcotest.test_case "json numbers exact (Expected 0.3)" `Quick
        test_json_numbers_exact;
      Alcotest.test_case "mbu branch frequency 0.5 +- 0.05" `Quick
        test_mbu_branch_frequency;
      Alcotest.test_case "mbu branch frequency via run_shots" `Quick
        test_mbu_branch_frequency_run_shots ] )
