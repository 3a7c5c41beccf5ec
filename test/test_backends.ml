(* Backend-equivalence property tests: the classical track (Fast), the
   in-place sparse kernel (Sparse) and the seed's rebuild-per-gate oracle
   (Reference) must agree run-for-run — same measurement outcomes, same
   executed counts, same final state — on randomized modadd circuits for
   every Mod_add spec, and the parallel multi-shot runner must return
   jobs-independent output. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core

let qtest = QCheck_alcotest.to_alcotest

let specs =
  [ ("cdkpm", Mod_add.spec_cdkpm);
    ("gidney", Mod_add.spec_gidney);
    ("mixed", Mod_add.spec_mixed) ]

let spec_of_int i = List.nth specs (i mod List.length specs)

(* Random odd modulus with the top bit set, and operands below it. *)
let gen_modadd_case =
  QCheck.Gen.(
    int_range 2 5 >>= fun n ->
    int_range 0 ((1 lsl (n - 1)) - 1) >>= fun plow ->
    let p = max 3 (((1 lsl (n - 1)) lor plow) lor 1) in
    map3
      (fun s x y -> (s, n, p, x mod p, y mod p))
      (int_bound 2) (int_bound (p - 1)) (int_bound (p - 1)))

let print_case (s, n, p, x, y) =
  Printf.sprintf "spec=%s n=%d p=%d x=%d y=%d" (fst (spec_of_int s)) n p x y

let arb_modadd_case = QCheck.make gen_modadd_case ~print:print_case

let build_modadd spec ~n ~p =
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" n in
  let y = Builder.fresh_register b "y" n in
  Mod_add.modadd ~mbu:true spec b ~p ~x ~y;
  (b, x, y)

let run_engine engine ~seed c ~init =
  Sim.run ~rng:(Random.State.make [| seed; 0xe9 |]) ~engine c ~init

(* All three engines consume the same RNG stream, so a fixed seed must give
   identical classical outcomes and (up to float noise) identical states. *)
let prop_engines_agree =
  QCheck.Test.make ~name:"Fast = Sparse = Reference on modadd (all specs)"
    ~count:120 arb_modadd_case (fun (s, n, p, x_val, y_val) ->
      let _, spec = spec_of_int s in
      let b, x, y = build_modadd spec ~n ~p in
      let c = Builder.to_circuit b in
      let init =
        Sim.init_registers ~num_qubits:(Builder.num_qubits b)
          [ (x, x_val); (y, y_val) ]
      in
      let seed = (s * 7919) + (x_val * 131) + y_val in
      let rf = run_engine Sim.Fast ~seed c ~init in
      let rs = run_engine Sim.Sparse ~seed c ~init in
      let rr = run_engine Sim.Reference ~seed c ~init in
      let same_class (a : Sim.run) (b : Sim.run) =
        a.Sim.bits = b.Sim.bits
        && Counts.approx_equal a.Sim.executed b.Sim.executed
      in
      same_class rf rs && same_class rf rr
      && State.fidelity rf.Sim.state rs.Sim.state > 1. -. 1e-9
      && State.fidelity rf.Sim.state rr.Sim.state > 1. -. 1e-9
      && Sim.register_value rf.Sim.state y = Some ((x_val + y_val) mod p)
      && Sim.register_value rf.Sim.state x = Some x_val
      && Sim.wires_zero rf.Sim.state ~except:[ x; y ])

(* Measurement-free random unitaries exercise the sparse kernel on genuinely
   dense states (H puts every wire in superposition); the in-place kernel
   must match the rebuild-per-gate oracle exactly. *)
let gen_gate_seq =
  QCheck.Gen.(
    let nq = 5 in
    list_size (int_range 5 60)
      (int_range 0 7 >>= fun kind ->
       int_range 0 (nq - 1) >>= fun a ->
       int_range 0 (nq - 2) >>= fun db ->
       int_range 0 (nq - 3) >>= fun dc' ->
       (* distinct wires: b is a shifted by 1..nq-1; c skips both *)
       let b = (a + 1 + db) mod nq in
       let c =
         let c0 = (a + 1 + ((db + 1 + dc') mod (nq - 1))) mod nq in
         c0
       in
       return
         (match kind with
         | 0 -> Gate.X a
         | 1 -> Gate.H a
         | 2 -> Gate.Z a
         | 3 -> Gate.Cnot { control = a; target = b }
         | 4 -> Gate.Toffoli { c1 = a; c2 = b; target = c }
         | 5 -> Gate.Swap (a, b)
         | 6 -> Gate.Phase (a, Phase.theta 2)
         | _ -> Gate.Cphase { control = a; target = b; phase = Phase.theta 3 })))

let arb_gate_seq =
  QCheck.make gen_gate_seq ~print:(fun gs ->
      Printf.sprintf "%d gates" (List.length gs))

let prop_sparse_kernel_matches_reference_dense =
  QCheck.Test.make ~name:"in-place sparse kernel = oracle on dense states"
    ~count:100 arb_gate_seq (fun gates ->
      let c =
        Circuit.make ~num_qubits:5 (List.map (fun g -> Instr.Gate g) gates)
      in
      let init = State.basis ~num_qubits:5 0 in
      let rs = run_engine Sim.Sparse ~seed:1 c ~init in
      let rr = run_engine Sim.Reference ~seed:1 c ~init in
      let rf = run_engine Sim.Fast ~seed:1 c ~init in
      State.fidelity rs.Sim.state rr.Sim.state > 1. -. 1e-9
      && State.fidelity rf.Sim.state rr.Sim.state > 1. -. 1e-9
      && abs_float (State.norm rs.Sim.state -. 1.) < 1e-9)

(* run_shots must be a pure function of (seed, shot index): identical run
   arrays and identical merged statistics whatever the fan-out. *)
let run_key (r : Sim.run) reg =
  (Sim.register_value r.Sim.state reg, Array.to_list r.Sim.bits,
   Counts.total_gates r.Sim.executed)

let prop_run_shots_jobs_independent =
  QCheck.Test.make ~name:"run_shots: jobs=1 and jobs=4 identical" ~count:40
    arb_modadd_case (fun (s, n, p, x_val, y_val) ->
      let _, spec = spec_of_int s in
      let b, x, y = build_modadd spec ~n ~p in
      let c = Builder.to_circuit b in
      let init =
        Sim.init_registers ~num_qubits:(Builder.num_qubits b)
          [ (x, x_val); (y, y_val) ]
      in
      let shots = 16 in
      let st1 = Sim.new_stats () and st4 = Sim.new_stats () in
      let r1 = Sim.run_shots ~seed:s ~jobs:1 ~stats:st1 ~shots c ~init in
      let r4 = Sim.run_shots ~seed:s ~jobs:4 ~stats:st4 ~shots c ~init in
      Array.length r1 = shots
      && Array.for_all2 (fun a b -> run_key a y = run_key b y) r1 r4
      && Sim.runs st1 = shots
      && Sim.runs st4 = shots
      && Sim.taken_frequency st1 = Sim.taken_frequency st4
      && Sim.branch_bits st1 = Sim.branch_bits st4
      && List.for_all
           (fun bit ->
             Sim.bit_taken_frequency st1 bit = Sim.bit_taken_frequency st4 bit)
           (Sim.branch_bits st1))

(* The parallel runner with per-shot stats must tally exactly what a
   sequential loop with the stats_hook tallies. *)
let test_run_shots_stats_match_sequential () =
  let b, x, y = build_modadd Mod_add.spec_cdkpm ~n:4 ~p:13 in
  let c = Builder.to_circuit b in
  let init =
    Sim.init_registers ~num_qubits:(Builder.num_qubits b) [ (x, 7); (y, 11) ]
  in
  let shots = 100 in
  let st_par = Sim.new_stats () in
  let runs_par = Sim.run_shots ~seed:5 ~jobs:4 ~stats:st_par ~shots c ~init in
  (* replay each shot sequentially through run_shots with one shot and the
     offset seed is not possible (the split is internal), so compare against
     jobs=1 with the same seed instead, which must be bit-identical. *)
  let st_seq = Sim.new_stats () in
  let runs_seq = Sim.run_shots ~seed:5 ~jobs:1 ~stats:st_seq ~shots c ~init in
  Alcotest.(check int) "runs" (Sim.runs st_seq) (Sim.runs st_par);
  Alcotest.(check (list int)) "branch bits" (Sim.branch_bits st_seq)
    (Sim.branch_bits st_par);
  Alcotest.(check bool) "per-shot equality" true
    (Array.for_all2
       (fun (a : Sim.run) (b : Sim.run) ->
         run_key a y = run_key b y)
       runs_seq runs_par);
  List.iter
    (fun bit ->
      Alcotest.(check (option (float 1e-12)))
        (Printf.sprintf "bit %d taken frequency" bit)
        (Sim.bit_taken_frequency st_seq bit)
        (Sim.bit_taken_frequency st_par bit))
    (Sim.branch_bits st_seq)

(* sample_register without ?rng: deterministic, jobs-independent tallies. *)
let test_sample_register_jobs_independent () =
  let b = Builder.create () in
  let q = Builder.fresh_register b "q" 3 in
  Array.iter (fun w -> Builder.h b w) (Register.qubits q);
  let c = Builder.to_circuit b in
  let init = Sim.init_registers ~num_qubits:(Builder.num_qubits b) [] in
  let t1 = Sim.sample_register ~seed:9 ~jobs:1 ~shots:64 c ~init q in
  let t4 = Sim.sample_register ~seed:9 ~jobs:4 ~shots:64 c ~init q in
  Alcotest.(check (list (pair int int))) "tallies equal" t1 t4;
  Alcotest.(check int) "total shots" 64
    (List.fold_left (fun acc (_, k) -> acc + k) 0 t1)

(* The product track against the oracle on random adaptive programs over
   6 wires: gates, measurements (with and without reset) and conditionals
   on earlier outcomes, from basis inputs. Besides single gates the
   generator emits motifs that put a wire in |+>/|-> and then use it as a
   control or under a phase (promoting to the sparse table) before undoing
   both (demoting back), so runs cross between the tracks. *)
type raw =
  | Raw_gate of Gate.t
  | Raw_measure of Gate.qubit * bool
  | Raw_if of int * bool * Gate.t list
  | Raw_motif of Gate.t list

let gen_adaptive =
  QCheck.Gen.(
    let nq = 6 in
    let wire = int_range 0 (nq - 1) in
    (* Three distinct wires. *)
    let wires3 =
      wire >>= fun a ->
      int_range 1 (nq - 1) >>= fun db ->
      int_range 1 (nq - 2) >>= fun dc ->
      let b = (a + db) mod nq in
      let c =
        let rec skip c = if c = a || c = b then skip ((c + 1) mod nq) else c in
        skip ((b + dc) mod nq)
      in
      return (a, b, c)
    in
    let gate =
      int_range 0 7 >>= fun kind ->
      wires3 >>= fun (a, b, c) ->
      return
        (match kind with
        | 0 -> Gate.X a
        | 1 -> Gate.Z a
        | 2 -> Gate.H a
        | 3 -> Gate.Cnot { control = a; target = b }
        | 4 -> Gate.Cz (a, b)
        | 5 -> Gate.Toffoli { c1 = a; c2 = b; target = c }
        | 6 -> Gate.Swap (a, b)
        | _ -> Gate.Phase (a, Phase.theta (2 + (c mod 2))))
    in
    let motif =
      wires3 >>= fun (a, b, _) ->
      oneofl
        [ [ Gate.H a; Gate.Cnot { control = a; target = b };
            Gate.Cnot { control = a; target = b }; Gate.H a ];
          [ Gate.H a; Gate.Phase (a, Phase.theta 3);
            Gate.Phase (a, Phase.neg (Phase.theta 3)); Gate.H a ];
          [ Gate.H a; Gate.H b; Gate.Cz (a, b); Gate.Cz (a, b); Gate.H b;
            Gate.H a ] ]
    in
    let raw =
      frequency
        [ (8, map (fun g -> Raw_gate g) gate);
          (2, map2 (fun q r -> Raw_measure (q, r)) wire bool);
          (2, map3 (fun k v body -> Raw_if (k, v, body)) nat bool
                (list_size (int_range 0 4) gate));
          (2, map (fun gs -> Raw_motif gs) motif) ]
    in
    triple (list_size (int_range 1 40) raw) (int_range 0 ((1 lsl nq) - 1)) nat)

(* Measurements write fresh bits in order; a conditional reads one of the
   bits written before it (bit 0, never written, when there is none). *)
let program_of_raw raws =
  let bits = ref 0 in
  let gates = List.map (fun g -> Instr.Gate g) in
  let instrs =
    List.concat_map
      (function
        | Raw_gate g -> [ Instr.Gate g ]
        | Raw_motif gs -> gates gs
        | Raw_measure (qubit, reset) ->
            let bit = !bits in
            incr bits;
            [ Instr.Measure { qubit; bit; reset } ]
        | Raw_if (k, value, body) ->
            [ Instr.If_bit
                { bit = (if !bits = 0 then 0 else k mod !bits); value;
                  body = gates body } ])
      raws
  in
  Circuit.make ~num_qubits:6 ~num_bits:(max 1 !bits) instrs

let arb_adaptive =
  QCheck.make gen_adaptive ~print:(fun (raws, idx, seed) ->
      Format.asprintf "init=%d seed=%d@.%a" idx seed Circuit.pp
        (program_of_raw raws))

let prop_product_track_matches_reference =
  QCheck.Test.make ~name:"product track = oracle on adaptive programs"
    ~count:300 arb_adaptive (fun (raws, idx, seed) ->
      let c = program_of_raw raws in
      let init = State.basis ~num_qubits:6 idx in
      let rf = run_engine Sim.Fast ~seed c ~init in
      let rr = run_engine Sim.Reference ~seed c ~init in
      rf.Sim.bits = rr.Sim.bits
      && Counts.approx_equal rf.Sim.executed rr.Sim.executed
      && State.fidelity rf.Sim.state rr.Sim.state > 1. -. 1e-9)

(* The motifs really leave the product track and come back. *)
let test_motifs_promote_and_demote () =
  let s = State.basis ~num_qubits:2 0b10 in
  let step g =
    State.apply_gate_inplace s g;
    (State.is_classical s, State.support_size s)
  in
  Alcotest.(check (pair bool int)) "H: X-basis wire" (false, 2) (step (Gate.H 0));
  Alcotest.(check (pair bool int))
    "control on it: Bell pair on the sparse table" (false, 2)
    (step (Gate.Cnot { control = 0; target = 1 }));
  ignore (step (Gate.Cnot { control = 0; target = 1 }));
  Alcotest.(check (pair bool int)) "H again: one basis vector" (true, 1)
    (step (Gate.H 0));
  Alcotest.(check (option int)) "value restored" (Some 0b10)
    (State.classical_value s)

(* The five ripple rows of the Monte-Carlo workload at their widths: the
   product track must draw the same outcomes as the pinned sparse kernel,
   shot for shot (the VBE rows are outside [prop_engines_agree]). *)
let test_montecarlo_rows_fast_eq_sparse () =
  let modadd spec b ~p ~x ~y = Mod_add.modadd ~mbu:true spec b ~p ~x ~y in
  let rows =
    [ ("vbe5", 15, Mod_add.modadd_vbe_5adder ~mbu:true);
      ("vbe4", 15, Mod_add.modadd_vbe_4adder ~mbu:true);
      ("cdkpm", 16, modadd Mod_add.spec_cdkpm);
      ("cdkpm+gidney", 16, modadd Mod_add.spec_mixed);
      ("gidney", 14, modadd Mod_add.spec_gidney) ]
  in
  List.iter
    (fun (name, n, build) ->
      let p = (1 lsl (n - 1)) lor 0x2b5 in
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" n in
      build b ~p ~x ~y;
      let c = Builder.to_circuit b in
      let xv = p - 2 and yv = p / 3 in
      let init =
        Sim.init_registers ~num_qubits:(Builder.num_qubits b)
          [ (x, xv); (y, yv) ]
      in
      let shots engine =
        Sim.run_shots ~seed:11 ~jobs:1 ~engine ~shots:200 c ~init
      in
      let fast = shots Sim.Fast and sparse = shots Sim.Sparse in
      Alcotest.(check bool) (name ^ ": same bits every shot") true
        (Array.for_all2
           (fun (a : Sim.run) (b : Sim.run) -> a.Sim.bits = b.Sim.bits)
           fast sparse);
      Alcotest.(check bool) (name ^ ": oracle holds") true
        (Array.for_all
           (fun (r : Sim.run) ->
             Sim.register_value r.Sim.state y = Some ((xv + yv) mod p)
             && Sim.wires_zero r.Sim.state ~except:[ x; y ])
           fast))
    rows

let suite =
  ( "backends",
    [ qtest prop_engines_agree;
      qtest prop_sparse_kernel_matches_reference_dense;
      qtest prop_run_shots_jobs_independent;
      Alcotest.test_case "run_shots stats = sequential stats" `Quick
        test_run_shots_stats_match_sequential;
      Alcotest.test_case "sample_register jobs-independent" `Quick
        test_sample_register_jobs_independent;
      qtest prop_product_track_matches_reference;
      Alcotest.test_case "motifs promote and demote" `Quick
        test_motifs_promote_and_demote;
      Alcotest.test_case "Table-1 rows: Fast = Sparse per shot" `Quick
        test_montecarlo_rows_fast_eq_sparse ] )
