(* Backend-equivalence property tests: the classical track (Fast), the
   in-place sparse kernel (Sparse) and the seed's rebuild-per-gate oracle
   (Reference) must agree run-for-run — same measurement outcomes, same
   executed counts, same final state — on randomized modadd circuits for
   every Mod_add spec, and the parallel multi-shot runner must return
   jobs-independent output. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core
open Mbu_robustness
open Mbu_telemetry

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

(* The parallel runner with per-worker stats must tally exactly what a
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

(* sample_register: deterministic, jobs-independent tallies. *)
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

(* A negative shot count is one clean error from the shot loop. *)
let test_sample_register_negative_shots () =
  let b = Builder.create () in
  let q = Builder.fresh_register b "q" 1 in
  let c = Builder.to_circuit b in
  let init = Sim.init_registers ~num_qubits:(Builder.num_qubits b) [] in
  match Sim.sample_register ~shots:(-1) c ~init q with
  | _ -> Alcotest.fail "expected Mbu_error"
  | exception Mbu_error.Error e ->
      Alcotest.(check string) "subsystem" "Sim.fold_shots" e.Mbu_error.subsystem

(* A list fold whose sequential answer is [List.init]. *)
let squares ?jobs tasks =
  Parallel.fold ?jobs ~tasks
    ~init:(fun () -> [])
    ~step:(fun acc i -> acc @ [ i * i ])
    ~merge:( @ )

(* Parallel.fold's contract: contiguous blocks merged in block order give
   the sequential answer for an associative merge, at every fan-out. *)
let prop_fold_matches_sequential =
  QCheck.Test.make ~name:"Parallel.fold: list fold = sequential" ~count:200
    QCheck.(pair (int_range 1 6) (int_range 0 40))
    (fun (jobs, tasks) -> squares ~jobs tasks = List.init tasks (fun i -> i * i))

(* Every task from index k on fails: the fold reports index k's failure,
   whichever worker ran it. *)
let test_fold_raises_lowest_index () =
  let tasks = 23 in
  for jobs = 1 to 6 do
    List.iter
      (fun k ->
        Alcotest.check_raises
          (Printf.sprintf "jobs %d, first failure at %d" jobs k)
          (Failure (string_of_int k))
          (fun () ->
            ignore
              (Parallel.fold ~jobs ~tasks
                 ~init:(fun () -> 0)
                 ~step:(fun acc i ->
                   if i >= k then failwith (string_of_int i) else acc + i)
                 ~merge:( + ))))
      [ 0; 1; 7; 12; 22 ]
  done

let spawned () =
  Telemetry.counter_value (Telemetry.counter "mbu_parallel_workers_spawned")

(* Consecutive folds reuse the parked workers: at most three spawns (the
   largest fold's jobs - 1) over 200 folds at jobs 2, 4, 2, ..., none over
   the last 100. On the sequential fallback the counter stays 0. *)
let test_pool_reuses_workers () =
  let s0 = spawned () and s_half = ref 0 in
  for f = 0 to 199 do
    if f = 100 then s_half := spawned ();
    let jobs = [| 2; 4; 2 |].(f mod 3) and tasks = 1 + (f mod 37) in
    if squares ~jobs tasks <> List.init tasks (fun i -> i * i) then
      Alcotest.failf "fold %d (jobs %d, %d tasks) differs from sequential" f
        jobs tasks
  done;
  let s1 = spawned () in
  Alcotest.(check bool)
    (Printf.sprintf "at most 3 spawns (%d)" (s1 - s0))
    true
    (s1 - s0 <= 3);
  Alcotest.(check int) "no spawn over the last 100 folds" !s_half s1

(* Block 1 (indices 3..5) and block 2 (6..8) raise: block 1's index wins,
   and the workers that ran them are still there for the next fold. *)
let test_pool_survives_failure () =
  Alcotest.check_raises "lowest failing index" (Failure "4") (fun () ->
      ignore
        (Parallel.fold ~jobs:3 ~tasks:9
           ~init:(fun () -> 0)
           ~step:(fun acc i ->
             if i = 4 || i = 7 then failwith (string_of_int i) else acc + i)
           ~merge:( + )));
  Alcotest.(check (list int)) "next fold" (List.init 9 (fun i -> i * i))
    (squares ~jobs:3 9)

(* A fold nested in a step finds the pool busy and runs on the domain of
   that step, with the sequential answer. *)
let test_pool_nested_fold () =
  let inner i = squares ~jobs:2 (i + 1) in
  Alcotest.(check (list (list int))) "nested"
    (List.init 12 (fun i -> List.init (i + 1) (fun j -> j * j)))
    (Parallel.fold ~jobs:3 ~tasks:12
       ~init:(fun () -> [])
       ~step:(fun acc i -> acc @ [ inner i ])
       ~merge:( @ ))

(* Two domains folding at once: one may hold the pool while the other runs
   its blocks itself; each gets its own answer on every fold. *)
let test_pool_two_domains () =
  let folds ~offset () =
    List.for_all
      (fun tasks ->
        Parallel.fold ~jobs:2 ~tasks
          ~init:(fun () -> [])
          ~step:(fun acc i -> acc @ [ offset + i ])
          ~merge:( @ )
        = List.init tasks (fun i -> offset + i))
      (List.init 100 (fun f -> 1 + (f mod 29)))
  in
  let a, b = Spawn.both (folds ~offset:0) (folds ~offset:1000) in
  Alcotest.(check bool) "calling domain" true a;
  Alcotest.(check bool) "spawned domain" true b

(* The GC words of one shot fold are counted exactly on every domain, so
   the same fold reads the same words at jobs 1 and jobs 2 (the blocks'
   own accumulators aside). *)
let test_fold_gc_words () =
  let b, x, y = build_modadd Mod_add.spec_cdkpm ~n:16 ~p:65521 in
  let c = Builder.to_circuit b in
  let init =
    Sim.init_registers ~num_qubits:(Builder.num_qubits b)
      [ (x, 12345); (y, 54321) ]
  in
  let words = Telemetry.counter "mbu_sim_gc_minor_words" in
  let read jobs =
    let w0 = Telemetry.counter_value words in
    ignore (Sim.run_shots ~seed:3 ~jobs ~shots:2000 c ~init);
    Telemetry.counter_value words - w0
  in
  let w1 = read 1 and w2 = read 2 in
  Alcotest.(check bool) (Printf.sprintf "words counted (%d)" w1) true (w1 > 0);
  Alcotest.(check bool)
    (Printf.sprintf "jobs 1 (%d) and jobs 2 (%d) within 10%%" w1 w2)
    true
    (abs (w1 - w2) * 10 <= w1)

(* The product track against the oracle on random adaptive programs over
   6 wires: gates, measurements (with and without reset) and conditionals
   on earlier outcomes, from basis inputs. Besides single gates the
   generator emits motifs that put a wire in |+>/|-> and then use it as a
   control or under a phase (promoting to the sparse track) before undoing
   both (demoting back), so runs cross between the tracks; that turn an
   equatorial wire by 1/2 to 1/64 of a turn and leave it there; and a
   3-wire QFT, a turn, and the inverse QFT, as in Draper's adders. *)
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
      int_range 0 8 >>= fun kind ->
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
        | 7 -> Gate.Phase (a, Phase.theta (2 + (c mod 2)))
        | _ ->
            Gate.Cphase
              { control = a; target = b; phase = Phase.theta (1 + (c mod 4)) })
    in
    (* [Qft.apply_raw] on the wires [w], least significant first. *)
    let qft w =
      List.concat
        (List.init 3 (fun k ->
             let i = 2 - k in
             Gate.H w.(i)
             :: List.init i (fun l ->
                    let j = i - 1 - l in
                    Gate.Cphase
                      { control = w.(j); target = w.(i);
                        phase = Phase.theta (i - j + 1) })))
    in
    let inverse gs =
      List.rev_map
        (function
          | Gate.Cphase r -> Gate.Cphase { r with phase = Phase.neg r.phase }
          | g -> g)
        gs
    in
    let motif =
      wires3 >>= fun (a, b, c) ->
      int_range 1 6 >>= fun k ->
      oneofl
        [ [ Gate.H a; Gate.Cnot { control = a; target = b };
            Gate.Cnot { control = a; target = b }; Gate.H a ];
          [ Gate.H a; Gate.Phase (a, Phase.theta 3);
            Gate.Phase (a, Phase.neg (Phase.theta 3)); Gate.H a ];
          [ Gate.H a; Gate.H b; Gate.Cz (a, b); Gate.Cz (a, b); Gate.H b;
            Gate.H a ];
          [ Gate.H a; Gate.Phase (a, Phase.theta k) ];
          (let w = [| a; b; c |] in
           qft w @ [ Gate.Phase (c, Phase.theta k) ] @ inverse (qft w)) ]
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

(* A product input whose amplitude is not of norm 1: the basis state
   [idx] scaled by 0.6 + 0.7i. *)
let scaled_basis idx =
  State.of_alist ~num_qubits:6 [ (idx, { Complex.re = 0.6; im = 0.7 }) ]

(* Both kinds of pass through [Sim.run_program]'s loop on [Fast] give the
   same run, bit for bit, from a basis input and from a scaled one: free
   passes that take measurements and conditionals, and passes under a
   hook that stop at each of them for the loop, which must report every
   measurement. *)
let prop_loop_paths_agree =
  QCheck.Test.make ~name:"Fast: free and hooked agree" ~count:300
    arb_adaptive (fun (raws, idx, seed) ->
      let c = program_of_raw raws in
      List.for_all
        (fun init ->
          let run ?on_event () =
            Sim.run ~rng:(Random.State.make [| seed; 0xe9 |]) ?on_event
              ~engine:Sim.Fast c ~init
          in
          let free = run () in
          let measured = ref 0 in
          let hooked =
            run ~on_event:(function Sim.Measured _ -> incr measured | _ -> ()) ()
          in
          hooked.Sim.bits = free.Sim.bits
          && Counts.approx_equal hooked.Sim.executed free.Sim.executed
          && State.to_alist hooked.Sim.state = State.to_alist free.Sim.state
          && float_of_int !measured = free.Sim.executed.Counts.measure)
        [ State.basis ~num_qubits:6 idx; scaled_basis idx ])

(* A flat circuit (gates, measurements, conditionals over gates) laid out
   as [Sim.compile] lays it out, for [State.run_slots]. *)
let slots_of (circ : Circuit.t) =
  let n = Instr.count_instrs circ.Circuit.instrs in
  let code = Array.make n 0 and a = Array.make n 0 and b = Array.make n 0 in
  let c = Array.make n 0 and w = Array.make (2 * n) 0. in
  let gates = Array.make n (Gate.X 0) in
  let rec emit pc = function
    | [] -> pc
    | Instr.Gate g :: rest ->
        State.encode_gate g ~code ~a ~b ~c ~w pc;
        gates.(pc) <- g;
        emit (pc + 1) rest
    | Instr.Measure { qubit; bit; reset } :: rest ->
        code.(pc) <- State.op_measure;
        a.(pc) <- qubit;
        b.(pc) <- bit;
        c.(pc) <- Bool.to_int reset;
        emit (pc + 1) rest
    | Instr.If_bit { bit; value; body } :: rest ->
        let stop = emit (pc + 1) body in
        code.(pc) <- State.op_if;
        a.(pc) <- bit;
        b.(pc) <- Bool.to_int value;
        c.(pc) <- stop;
        emit stop rest
    | (Instr.Span _ | Instr.Call _) :: _ -> invalid_arg "slots_of: not flat"
  in
  ignore (emit 0 circ.Circuit.instrs);
  (code, a, b, c, w, gates)

(* [State.run_slots] runs every slot up to the bound it is given, even
   from a scaled product input, whose amplitude a product-track
   measurement must normalize: a call to a random stop returns the bound,
   or the target of a conditional before it that jumped past it, and a
   second call runs on to the end. Together they leave the oracle's bits
   and amplitudes. *)
let prop_run_slots_to_stop =
  QCheck.Test.make ~name:"run_slots returns its stop" ~count:300
    (QCheck.pair arb_adaptive QCheck.small_nat)
    (fun ((raws, idx, seed), pick) ->
      let circ = program_of_raw raws in
      let code, a, b, c, w, gates = slots_of circ in
      let n = Array.length code in
      let stop = pick mod (n + 2) in
      let bound = min stop n in
      let s = scaled_basis idx in
      let tally = Array.make State.tally_size 0 in
      let bits = Array.make circ.Circuit.num_bits false in
      let rng = Random.State.make [| seed; 0xe9 |] in
      let j = State.run_slots s ~code ~a ~b ~c ~w ~gates ~tally ~bits ~rng 0 ~stop in
      let jumped =
        List.exists
          (fun k -> code.(k) = State.op_if && c.(k) = j)
          (List.init bound Fun.id)
      in
      let last =
        State.run_slots s ~code ~a ~b ~c ~w ~gates ~tally ~bits ~rng j ~stop:n
      in
      let r =
        Sim.run ~rng:(Random.State.make [| seed; 0xe9 |]) ~engine:Sim.Reference
          circ ~init:(scaled_basis idx)
      in
      let close (k, (u : Complex.t)) (k', v) =
        k = k' && Complex.norm (Complex.sub u v) < 1e-9
      in
      (j = bound || (j > bound && jumped))
      && last = n
      && bits = r.Sim.bits
      && List.equal close (State.to_alist s) (State.to_alist r.Sim.state))

(* Positions of the slots inside [If_bit] bodies of a flat program. *)
let body_positions (c : Circuit.t) =
  let rec go pos acc = function
    | [] -> acc
    | Instr.If_bit { body; _ } :: rest ->
        let n = List.length body in
        go (pos + 1 + n) (List.init n (fun k -> pos + 1 + k) @ acc) rest
    | _ :: rest -> go (pos + 1) acc rest
  in
  go 0 [] c.Circuit.instrs

let site_pos = function
  | Fault.Gate_site { pos; _ } | Fault.Measure_site { pos; _ }
  | Fault.Branch_site { pos; _ } -> pos

(* A fault plan from random draws: one to four sites, each with a Pauli
   that may differ, plus one site inside an [If_bit] body when there is
   one. Flips, skips and Paulis all occur. *)
let plan_of c picks =
  let sites = Array.of_list (Fault.sites c.Circuit.instrs) in
  let n = Array.length sites in
  if n = 0 then []
  else
    let in_body =
      let bodies = body_positions c in
      List.filter (fun s -> List.mem (site_pos s) bodies) (Array.to_list sites)
    in
    let pauli k = [| Fault.X; Fault.Y; Fault.Z |].(k mod 3) in
    let picked =
      List.map
        (fun (k, p) -> Fault.of_site ~pauli:(pauli p) sites.(k mod n))
        picks
    in
    match in_body with
    | [] -> picked
    | l ->
        let k, p = List.hd picks in
        Fault.of_site ~pauli:(pauli p) (List.nth l (k mod List.length l))
        :: picked

(* {2 Draper's QFT adders}

   Every catalogue family with a Draper style, at n <= 4, with and
   without MBU: the product track keeps their QFT states, and must run
   them as the sparse kernel and the oracle do. *)

let draper_families =
  [ "adder"; "cadder"; "adder-const"; "compare"; "compare-const"; "modadd";
    "modadd-const" ]

(* Each family at n = 2..4, MBU off and on, with a modulus in
   (2^(n-1), 2^n) and inputs drawn from [rng]: a name and the spec. *)
let draper_specs rng =
  List.concat_map
    (fun name ->
      let family = Catalogue.family name in
      List.concat_map
        (fun n ->
          List.map
            (fun mbu ->
              let half = 1 lsl (n - 1) in
              let p = half + 1 + Random.State.int rng (half - 1) in
              let draw () = Random.State.int rng p in
              let b = Builder.create () in
              let built =
                family.Catalogue.build b
                  { Catalogue.style = Adder.Draper; mbu; n; p; a = draw ();
                    x = draw (); y = draw () }
              in
              ( Printf.sprintf "%s n=%d mbu=%b p=%d" name n mbu p,
                Catalogue.spec ~name b built ))
            [ false; true ])
        [ 2; 3; 4 ])
    draper_families

let test_draper_engines_agree () =
  let rng = Random.State.make [| 0xd7a9 |] in
  List.iter
    (fun (name, (spec : Engine.spec)) ->
      for seed = 0 to 3 do
        let run engine =
          Sim.run ~rng:(Random.State.make [| seed; 0xd7 |]) ~engine
            spec.Engine.circuit ~init:spec.Engine.init
        in
        let f = run Sim.Fast in
        let check what ok =
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: %s" name seed what)
            true ok
        in
        check "Fast oracle" (Engine.classify_run spec f = Engine.Correct);
        List.iter
          (fun (other, engine) ->
            let o = run engine in
            check (other ^ " bits") (f.Sim.bits = o.Sim.bits);
            check (other ^ " executed")
              (Counts.approx_equal f.Sim.executed o.Sim.executed);
            check (other ^ " state")
              (State.fidelity f.Sim.state o.Sim.state > 1. -. 1e-9))
          [ ("Sparse", Sim.Sparse); ("Reference", Sim.Reference) ]
      done)
    (draper_specs rng)

(* Random fault plans over the same circuits: a Pauli on an equatorial
   wire is where a run leaves the product track, and Fast must classify
   every run as the pinned sparse kernel does. *)
let test_draper_faults_fast_eq_sparse () =
  let rng = Random.State.make [| 0xd7aa |] in
  List.iter
    (fun (name, (spec : Engine.spec)) ->
      for k = 0 to 11 do
        let picks =
          List.init
            (1 + Random.State.int rng 2)
            (fun _ -> (Random.State.bits rng, Random.State.bits rng))
        in
        let faults = plan_of spec.Engine.circuit picks in
        let classify engine =
          Engine.outcome_name
            (Engine.classify ~engine ~rng:(Random.State.make [| k; 0xfb |])
               ~faults spec)
        in
        Alcotest.(check string)
          (Printf.sprintf "%s plan %d" name k)
          (classify Sim.Sparse) (classify Sim.Fast)
      done)
    (draper_specs rng)

(* Every gate site of the catalogue Draper adder at n = 4 under X, Y and
   Z: the faults that leave the product track run on the cube on Fast, and must classify and end as the
   oracle's rebuild-per-gate runs do. *)
let test_draper_faults_fast_eq_reference () =
  let spec = (Option.get (Catalogue.find "draper")).Catalogue.make ~n:4 ~p:11 in
  let prog = Sim.compile spec.Engine.circuit in
  List.iteri
    (fun i site ->
      match site with
      | Fault.Gate_site _ ->
          List.iter
            (fun pauli ->
              let faults = [ Fault.of_site ~pauli site ] in
              let run engine =
                Sim.run_program ~rng:(Random.State.make [| i; 0xfc |]) ~engine
                  ~faults prog ~init:spec.Engine.init
              in
              let f = run Sim.Fast and r = run Sim.Reference in
              let name = Fault.to_string (List.hd faults) in
              Alcotest.(check string) (name ^ ": class")
                (Engine.outcome_name (Engine.classify_run spec r))
                (Engine.outcome_name (Engine.classify_run spec f));
              Alcotest.(check bool) (name ^ ": state") true
                (State.fidelity f.Sim.state r.Sim.state > 1. -. 1e-9))
            [ Fault.X; Fault.Y; Fault.Z ]
      | Fault.Measure_site _ | Fault.Branch_site _ -> ())
    (Fault.sites spec.Engine.circuit.Circuit.instrs)

let arb_fault_case =
  let open QCheck in
  pair arb_adaptive
    (make
       Gen.(list_size (int_range 1 4) (pair nat nat))
       ~print:(fun l ->
         String.concat " "
           (List.map (fun (k, p) -> Printf.sprintf "(%d,%d)" k p) l)))

(* Fault plans stop the kernel's passes at their slots, a misread at each
   measure slot of its bit (the passes still take the other measurements):
   Fast must inject exactly what the pinned sparse kernel does. *)
let prop_faults_fast_eq_sparse =
  QCheck.Test.make ~name:"fault plans: Fast = Sparse" ~count:300
    arb_fault_case (fun ((raws, idx, seed), picks) ->
      let c = program_of_raw raws in
      let faults = plan_of c picks in
      let init = State.basis ~num_qubits:6 idx in
      let run engine =
        Sim.run ~rng:(Random.State.make [| seed; 0xfa |]) ~engine ~faults c
          ~init
      in
      let f = run Sim.Fast and s = run Sim.Sparse in
      f.Sim.injected = s.Sim.injected
      && f.Sim.bits = s.Sim.bits
      && Counts.approx_equal f.Sim.executed s.Sim.executed
      && State.fidelity f.Sim.state s.Sim.state > 1. -. 1e-9)

(* {2 The mask kernel, one slot at a time}

   Every gate on three wires, from every product of |0>, |1>, |+>, |->
   and the equatorial wire at an eighth of a turn: [State.run_slots] must
   run and count every slot and leave the same amplitudes as the oracle,
   global phase included, staying on the product track exactly for the
   slots it can take there (no control on an equatorial wire, not CZ or
   Cphase on two, no H at a phase other than 0 or 1/2) and promoting the
   state to the sparse track for the others. *)

let product_input wires kinds =
  let s = State.basis ~num_qubits:wires 0 in
  List.iteri
    (fun q kind ->
      (* 0: |0>, 1: |1>, 2: |+>, 3: |->, 4: |+> turned by 1/8 *)
      if kind land 1 = 1 then Helpers.kernel_gate_inplace s (Gate.X q);
      if kind >= 2 then Helpers.kernel_gate_inplace s (Gate.H q);
      if kind = 4 then Helpers.kernel_gate_inplace s (Gate.Phase (q, Phase.theta 3)))
    kinds;
  s

let amps_equal a b =
  let la = State.to_alist a and lb = State.to_alist b in
  List.length la = List.length lb
  && List.for_all2
       (fun (k, (u : Complex.t)) (k', v) ->
         k = k' && Complex.norm (Complex.sub u v) < 1e-12)
       la lb

let kernel_gates =
  [ Gate.X 0; Gate.Z 0; Gate.H 0; Gate.Phase (0, Phase.theta 2);
    Gate.Cnot { control = 0; target = 1 }; Gate.Cz (0, 1); Gate.Swap (0, 1);
    Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
    Gate.Cphase { control = 0; target = 1; phase = Phase.theta 3 } ]

(* The product track's rule for what it keeps. *)
let kernel_takes kinds g =
  let on_x q = List.nth kinds q >= 2 in
  match g with
  | Gate.X _ | Gate.Z _ | Gate.Phase _ | Gate.Swap _ -> true
  | Gate.H q -> List.nth kinds q < 4
  | Gate.Cnot { control; _ } -> not (on_x control)
  | Gate.Toffoli { c1; c2; _ } -> not (on_x c1 || on_x c2)
  | Gate.Cz (a, b) | Gate.Cphase { control = a; target = b; _ } ->
      not (on_x a && on_x b)

(* The tally of a gate-only run: [slots] slots and [promotions]
   promotions, and no other cell written (no conditional taken, no peak,
   no hand-off to a map). *)
let check_gate_tally name tally ~slots ~promotions =
  Alcotest.(check int) (name ^ ": promotions") promotions
    tally.(State.tally_promotions);
  Alcotest.(check int) (name ^ ": fallbacks") 0 tally.(State.tally_fallbacks);
  Alcotest.(check int) name slots
    (Array.fold_left ( + ) 0 tally - tally.(State.tally_promotions))

let test_kernel_each_opcode () =
  let all_kinds =
    List.init 125 (fun m -> [ m mod 5; m / 5 mod 5; m / 25 ])
  in
  List.iter
    (fun kinds ->
      List.iter
        (fun g ->
          let name =
            Format.asprintf "%a on [%s]" Gate.pp g
              (String.concat ";" (List.map string_of_int kinds))
          in
          let s = product_input 3 kinds in
          let before = State.copy s in
          let j, tally, code = Helpers.run_kernel s [ g ] ~stop:1 in
          Alcotest.(check int) (name ^ ": taken") 1 j;
          Alcotest.(check int) (name ^ ": tallied") 1 tally.(code.(0));
          check_gate_tally (name ^ ": tallied once") tally ~slots:1
            ~promotions:(Bool.to_int (not (kernel_takes kinds g)));
          Alcotest.(check bool) (name ^ ": amplitudes") true
            (amps_equal s (State.Reference.apply_gate before g));
          Alcotest.(check bool) (name ^ ": product track") (kernel_takes kinds g)
            (State.on_product_track s))
        kernel_gates)
    all_kinds

(* Several slots in one call: it ends at [stop], holding every slot
   before and nothing after, across a promotion to the cube and a
   demotion back; signs fold in once per odd count (X on |-> three times
   is -|->). *)
let test_kernel_passes () =
  let minus = product_input 3 [ 3; 1; 0 ] in
  let xs k = List.init k (fun _ -> Gate.X 0) in
  List.iter
    (fun k ->
      let s = State.copy minus in
      let j, tally, _ = Helpers.run_kernel s (xs k) ~stop:k in
      Alcotest.(check int) (Printf.sprintf "%d X: all run" k) k j;
      Alcotest.(check int) (Printf.sprintf "%d X: tally" k) k tally.(0);
      let expect = List.fold_left State.Reference.apply_gate minus (xs k) in
      Alcotest.(check bool) (Printf.sprintf "%d X on |->: sign" k) true
        (amps_equal s expect))
    [ 1; 2; 3 ];
  let gates =
    [ Gate.Cnot { control = 1; target = 2 }; Gate.X 2; Gate.H 1;
      Gate.Cnot { control = 1; target = 2 }; Gate.X 2 ]
  in
  let from = product_input 3 [ 0; 1; 0 ] in
  let prefix k =
    List.fold_left State.Reference.apply_gate from
      (List.filteri (fun i _ -> i < k) gates)
  in
  let s = State.copy from in
  let j, tally, _ = Helpers.run_kernel s gates ~stop:2 in
  Alcotest.(check int) "stops at stop" 2 j;
  check_gate_tally "tally to stop" tally ~slots:2 ~promotions:0;
  Alcotest.(check bool) "state to stop" true (amps_equal s (prefix 2));
  let s = State.copy from in
  let j, tally, _ = Helpers.run_kernel s gates ~stop:5 in
  Alcotest.(check int) "runs on past an equatorial control" 5 j;
  check_gate_tally "tally past the promotion" tally ~slots:5 ~promotions:1;
  Alcotest.(check bool) "state past the promotion" true
    (amps_equal s (prefix 5));
  Alcotest.(check bool) "promoted" false (State.on_product_track s);
  let sparse = State.copy from in
  State.force_sparse sparse;
  let j, tally, _ = Helpers.run_kernel sparse gates ~stop:5 in
  Alcotest.(check int) "sparse track: every slot" 5 j;
  check_gate_tally "sparse track: tally" tally ~slots:5 ~promotions:0;
  Alcotest.(check bool) "sparse track: state" true (amps_equal sparse (prefix 5));
  (* H recombines the Bell pair: the cube demotes, and the product track
     takes the last X. *)
  let round_trip =
    [ Gate.H 1; Gate.Cnot { control = 1; target = 2 };
      Gate.Cnot { control = 1; target = 2 }; Gate.H 1; Gate.X 2 ]
  in
  let s = State.copy from in
  let j, tally, _ = Helpers.run_kernel s round_trip ~stop:5 in
  Alcotest.(check int) "round trip: every slot" 5 j;
  check_gate_tally "round trip: tally" tally ~slots:5 ~promotions:1;
  Alcotest.(check bool) "round trip: demoted" true (State.is_classical s);
  Alcotest.(check (option int)) "round trip: value" (Some 0b110)
    (State.classical_value s)

(* The motifs really leave the product track and come back. *)
let test_motifs_promote_and_demote () =
  let s = State.basis ~num_qubits:2 0b10 in
  let step g =
    Helpers.kernel_gate_inplace s g;
    (State.is_classical s, State.support_size s)
  in
  Alcotest.(check (pair bool int)) "H: equatorial wire" (false, 2)
    (step (Gate.H 0));
  Alcotest.(check (pair bool int))
    "control on it: Bell pair on the sparse track" (false, 2)
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
  List.iter
    (fun (name, n) ->
      let p = (1 lsl (n - 1)) lor 0x2b5 in
      let xv = p - 2 and yv = p / 3 in
      let b = Builder.create () in
      let built =
        Catalogue.emit ~x:xv ~y:yv (Option.get (Catalogue.find name)) ~mbu:true
          ~n ~p b
      in
      Alcotest.(check (list int)) (name ^ ": oracle is x, (x + y) mod p")
        [ xv; (xv + yv) mod p ] (List.map snd built.expect);
      let c = Builder.to_circuit b in
      let init =
        Sim.init_registers ~num_qubits:(Builder.num_qubits b) built.inits
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
             List.for_all
               (fun (reg, v) -> Sim.register_value r.Sim.state reg = Some v)
               built.expect
             && Sim.wires_zero r.Sim.state ~except:built.registers)
           fast))
    [ ("vbe5", 15); ("vbe4", 15); ("cdkpm", 16); ("mixed", 16); ("gidney", 14) ]

(* {2 The sparse track against the oracle}

   Where its mechanics show: a cube grown past 2^11 terms, keys that H
   cancels until the state demotes, clearing a wire whose two values
   collide, and projections that drop half the keys before more gates
   run. A promotion and [force_sparse] reach the cube, so these run there
   (the "flat table:" names are from before the cube, when they ran on
   an open-addressed table). *)

(* A gate on [nq] wires: one of each kind, three distinct wires, phases
   from a half to a 64th of a turn. *)
let gen_gate nq =
  QCheck.Gen.(
    int_range 0 8 >>= fun kind ->
    int_range 0 (nq - 1) >>= fun a ->
    int_range 1 (nq - 1) >>= fun db ->
    int_range 1 (nq - 2) >>= fun dc ->
    int_range 1 6 >>= fun k ->
    let b = (a + db) mod nq in
    let rec skip c = if c = a || c = b then skip ((c + 1) mod nq) else c in
    let c = skip ((b + dc) mod nq) in
    return
      (match kind with
      | 0 -> Gate.X a
      | 1 -> Gate.Z a
      | 2 -> Gate.H a
      | 3 -> Gate.Cnot { control = a; target = b }
      | 4 -> Gate.Cz (a, b)
      | 5 -> Gate.Toffoli { c1 = a; c2 = b; target = c }
      | 6 -> Gate.Swap (a, b)
      | 7 -> Gate.Phase (a, Phase.theta k)
      | _ -> Gate.Cphase { control = a; target = b; phase = Phase.theta k }))

let print_gates gs = Format.asprintf "%a" (Format.pp_print_list Gate.pp) gs

let gates_circuit nq ?(num_bits = 1) instrs =
  Circuit.make ~num_qubits:nq ~num_bits instrs

let gate_instrs = List.map (fun g -> Instr.Gate g)

(* Every engine on one circuit and seed: the same bits and executed
   counts, and the same final state, norm included. *)
let engines_agree c ~init ~seed =
  let rf = run_engine Sim.Fast ~seed c ~init in
  let rs = run_engine Sim.Sparse ~seed c ~init in
  let rr = run_engine Sim.Reference ~seed c ~init in
  let agree (a : Sim.run) (b : Sim.run) =
    a.Sim.bits = b.Sim.bits
    && Counts.approx_equal a.Sim.executed b.Sim.executed
    && State.fidelity a.Sim.state b.Sim.state > 1. -. 1e-9
    && Float.abs (State.norm a.Sim.state -. State.norm b.Sim.state) < 1e-9
  in
  agree rs rr && agree rf rr

(* Gate by gate on a pinned sparse state (a cube, handing its terms to a
   map when it grows too empty), the amplitudes are the oracle's bit for bit
   (every term above 1e-12 compared with [=]), from each step's same
   input. *)
let prop_table_gates_exact =
  QCheck.Test.make ~name:"flat table: each gate = oracle, bit for bit"
    ~count:200
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 1 30) (gen_gate 6)) (int_range 0 63))
       ~print:(fun (gs, idx) -> Printf.sprintf "idx %d: %s" idx (print_gates gs)))
    (fun (gates, idx) ->
      let s = State.basis ~num_qubits:6 idx in
      State.force_sparse s;
      List.for_all
        (fun g ->
          let expect = State.Reference.apply_gate s g in
          Helpers.kernel_gate_inplace s g;
          State.to_alist s = State.to_alist expect)
        gates)

(* 2^11 terms and more: H on eleven of twelve wires, a Cphase chain so
   that the Fast engine promotes too, then random gates and two
   measurements. *)
let prop_table_growth =
  QCheck.Test.make ~name:"flat table: growth past 2^11 terms = oracle"
    ~count:12
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 1 10) (gen_gate 12)) nat)
       ~print:(fun (gs, seed) -> Printf.sprintf "seed %d: %s" seed (print_gates gs)))
    (fun (gates, seed) ->
      let nq = 12 in
      let spread =
        List.init 11 (fun q -> Gate.H q)
        @ List.init 10 (fun q ->
              Gate.Cphase { control = q; target = q + 1; phase = Phase.theta 3 })
      in
      let measure qubit bit = Instr.Measure { qubit; bit; reset = bit = 1 } in
      let c =
        gates_circuit nq ~num_bits:2
          (gate_instrs (spread @ gates) @ [ measure 3 0; measure 7 1 ])
      in
      let init = State.basis ~num_qubits:nq 0 in
      let spread_state =
        (Sim.run ~engine:Sim.Sparse (gates_circuit nq (gate_instrs spread)) ~init)
          .Sim.state
      in
      State.support_size spread_state = 2048 && engines_agree c ~init ~seed)

(* The inverse of a gate list: the gates reversed, phases negated (every
   other gate here is its own inverse). *)
let inverse_gates gs =
  List.rev_map
    (function
      | Gate.Phase (q, ph) -> Gate.Phase (q, Phase.neg ph)
      | Gate.Cphase r -> Gate.Cphase { r with phase = Phase.neg r.phase }
      | g -> g)
    gs

(* H on some wires, random gates, their inverse and the H again: the
   last Hs cancel every key but one, and the state demotes to the product
   track on Fast (a pinned cube keeps its one term). Random gates in the
   middle that contain H Z H and the like cancel keys on the way. *)
let prop_table_cancels_and_demotes =
  QCheck.Test.make ~name:"flat table: H cancels keys and demotes = oracle"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 1 4) (int_range 0 5))
           (list_size (int_range 1 12) (gen_gate 6))
           (int_range 0 63))
       ~print:(fun (hs, gs, idx) ->
         Printf.sprintf "H on [%s], idx %d: %s"
           (String.concat ";" (List.map string_of_int hs))
           idx (print_gates gs)))
    (fun (hs, gates, idx) ->
      let hs = List.sort_uniq compare hs in
      let h = List.map (fun q -> Gate.H q) hs in
      let c =
        gates_circuit 6 (gate_instrs (h @ gates @ inverse_gates gates @ h))
      in
      let init = State.basis ~num_qubits:6 idx in
      let rf = run_engine Sim.Fast ~seed:0 c ~init in
      let rs = run_engine Sim.Sparse ~seed:0 c ~init in
      State.is_classical rf.Sim.state
      && State.classical_value rf.Sim.state = Some idx
      && State.support_size rs.Sim.state = 1
      && State.classical_value rs.Sim.state = Some idx
      && engines_agree c ~init ~seed:0)

(* Clearing a wire whose two values both occur: the colliding terms add,
   on a pinned cube and from the product track (which promotes), term
   for term as the oracle. *)
let prop_table_clear_collisions =
  QCheck.Test.make ~name:"flat table: set_bit_zero collisions = oracle"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         triple (list_size (int_range 0 12) (gen_gate 6)) (int_range 0 5)
           (int_range 0 63))
       ~print:(fun (gs, q, idx) ->
         Printf.sprintf "clear %d, idx %d: %s" q idx (print_gates gs)))
    (fun (gates, qubit, idx) ->
      let c = gates_circuit 6 (gate_instrs (Gate.H qubit :: gates)) in
      let init = State.basis ~num_qubits:6 idx in
      let cleared engine =
        let s = (run_engine engine ~seed:0 c ~init).Sim.state in
        (s, State.set_bit_zero s ~qubit)
      in
      List.for_all
        (fun engine ->
          let s, t = cleared engine in
          amps_equal t (State.Reference.set_bit_zero s ~qubit)
          && State.bit_value t qubit <> Some true)
        [ Sim.Fast; Sim.Sparse ])

(* A wide superposition measured twice with gates in between: each
   projection drops about half the keys, and the gates after it run on
   the smaller cube. *)
let prop_table_projections =
  QCheck.Test.make ~name:"flat table: projections then gates = oracle"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         quad
           (list_size (int_range 0 10) (gen_gate 8))
           (list_size (int_range 0 10) (gen_gate 8))
           (pair (int_range 0 7) (int_range 0 7))
           nat)
       ~print:(fun (g1, g2, (a, b), seed) ->
         Printf.sprintf "seed %d, measure %d then %d: %s | %s" seed a b
           (print_gates g1) (print_gates g2)))
    (fun (g1, g2, (qa, qb), seed) ->
      let nq = 8 in
      let spread =
        List.init nq (fun q -> Gate.H q)
        @ List.init (nq - 1) (fun q ->
              Gate.Cphase { control = q; target = q + 1; phase = Phase.theta 2 })
      in
      let c =
        gates_circuit nq ~num_bits:3
          (gate_instrs (spread @ g1)
          @ [ Instr.Measure { qubit = qa; bit = 0; reset = false } ]
          @ gate_instrs g2
          @ [ Instr.Measure { qubit = qb; bit = 1; reset = true };
              Instr.Measure { qubit = qa; bit = 2; reset = false } ])
      in
      engines_agree c ~init:(State.basis ~num_qubits:nq 0) ~seed)

(* {2 The two layouts of the sparse track}

   The properties above run on the cube; these reach the map, the
   oracle's own hash table, which then runs every gate, projection and
   reset by the oracle's algorithms. *)

(* Up to eight keys scattered over [nq] = 14 wires, two of them differing
   in twelve: a cube over their varying wires would have 2^12 cells or
   more, so [of_alist] builds a map, and a map never turns back into a
   cube. *)
let thin_nq = 14

let gen_thin_terms =
  QCheck.Gen.(
    pair (int_bound ((1 lsl thin_nq) - 1))
      (list_size (int_range 0 6)
         (triple (int_bound ((1 lsl thin_nq) - 1)) (float_range (-1.) 1.)
            (float_range (-1.) 1.))))

let thin_state (k0, terms) =
  let amp re im = { Complex.re; im } in
  let terms =
    (k0, amp 0.5 0.25) :: (k0 lxor 0xfff, amp (-0.25) 0.5)
    :: List.map (fun (k, re, im) -> (k, amp re im)) terms
    |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
  in
  State.of_alist ~num_qubits:thin_nq terms

(* Each gate's amplitudes on a thin state are the oracle's bit for
   bit. *)
let prop_thin_map_gates_exact =
  QCheck.Test.make ~name:"thin map: each gate = oracle"
    ~count:200
    (QCheck.make
       QCheck.Gen.(pair gen_thin_terms (list_size (int_range 1 20) (gen_gate thin_nq)))
       ~print:(fun ((k0, terms), gs) ->
         Printf.sprintf "key %d, %d more terms: %s" k0 (List.length terms)
           (print_gates gs)))
    (fun (thin, gates) ->
      let s = thin_state thin in
      List.for_all
        (fun g ->
          let expect = State.Reference.apply_gate s g in
          Helpers.kernel_gate_inplace s g;
          State.to_alist s = State.to_alist expect)
        gates)

(* H on three wires, then CNOTs fanning them out onto six fresh wires
   from the [controls] (each in 0..2): on a 9-wire basis state the cube
   doubles twice, then declines the third fan-out (64 cells for 8 terms)
   and hands its terms to a map, once. *)
let fan_out_nq = 9

let fan_out controls =
  List.init 3 (fun q -> Gate.H q)
  @ List.mapi (fun i control -> Gate.Cnot { control; target = 3 + i }) controls

let gen_fan_out =
  QCheck.Gen.(pair (int_bound ((1 lsl fan_out_nq) - 1)) (list_repeat 6 (int_bound 2)))

let print_fan_out (idx, controls) =
  Printf.sprintf "idx %d, controls [%s]" idx
    (String.concat ";" (List.map string_of_int controls))

(* Gate by gate, before and after the hand-off and through random gates
   on, the amplitudes are the oracle's bit for bit. *)
let prop_cube_to_map =
  let nq = fan_out_nq in
  QCheck.Test.make ~name:"cube -> map hand-off = oracle" ~count:200
    (QCheck.make
       QCheck.Gen.(pair gen_fan_out (list_size (int_range 1 20) (gen_gate nq)))
       ~print:(fun (start, gs) ->
         Printf.sprintf "%s: %s" (print_fan_out start) (print_gates gs)))
    (fun ((idx, controls), gates) ->
      let fan_out = fan_out controls in
      let s = State.basis ~num_qubits:nq idx in
      let _, tally, _ = Helpers.run_kernel (State.copy s) fan_out ~stop:9 in
      tally.(State.tally_promotions) = 1
      && tally.(State.tally_fallbacks) = 1
      && List.for_all
           (fun g ->
             let expect = State.Reference.apply_gate s g in
             Helpers.kernel_gate_inplace s g;
             State.to_alist s = State.to_alist expect)
           (fan_out @ gates))

(* A star graph state on five wires with H on its four leaves is the GHZ
   state: cancellation leaves two terms in the 32-cell cube, which stays
   a cube (no gate grows it). An H on a sixth wire would split it into
   64 cells for 4 terms, past its 32-cell arrays and past the rule, so
   the cube hands its terms to a map, once, and the map runs the H. Step
   by step the amplitudes are the oracle's bit for bit. *)
let test_thin_cube_split () =
  let leaves = [ 1; 2; 3; 4 ] in
  let ghz =
    List.init 5 (fun q -> Gate.H q)
    @ List.map (fun q -> Gate.Cz (0, q)) leaves
    @ List.map (fun q -> Gate.H q) leaves
  in
  let from = State.basis ~num_qubits:6 0 in
  let oracle gates = List.fold_left State.Reference.apply_gate from gates in
  let s = State.copy from and n = List.length ghz in
  let j, tally, _ = Helpers.run_kernel s ghz ~stop:n in
  Alcotest.(check int) "GHZ: every slot" n j;
  Alcotest.(check int) "GHZ: one promotion" 1 tally.(State.tally_promotions);
  Alcotest.(check int) "GHZ: still a cube" 0 tally.(State.tally_fallbacks);
  Alcotest.(check int) "GHZ: two terms" 2 (State.num_terms s);
  Alcotest.(check bool) "GHZ: state" true
    (State.to_alist s = State.to_alist (oracle ghz));
  let _, tally, _ = Helpers.run_kernel s [ Gate.H 5 ] ~stop:1 in
  Alcotest.(check int) "split: to the map" 1 tally.(State.tally_fallbacks);
  Alcotest.(check bool) "split: state" true
    (State.to_alist s = State.to_alist (oracle (ghz @ [ Gate.H 5 ])))

(* A term of norm at most 1e-12 goes where the oracle's rules send it: a
   cleared wire drops it, H drops its halves. [support_size] counts the
   stored terms, so it shows one kept that should have gone. *)
let test_cube_negligible_terms () =
  let tiny = { Complex.re = 1e-13; im = 0. } in
  let s = State.of_alist ~num_qubits:2 [ (0b10, Complex.one); (0b11, tiny) ] in
  List.iter
    (fun (name, ours, oracle) ->
      Alcotest.(check int) (name ^ ": support") (State.support_size oracle)
        (State.support_size ours);
      Alcotest.(check bool) (name ^ ": amplitudes") true
        (State.to_alist ours = State.to_alist oracle))
    [ ( "clear a constant 1", State.set_bit_zero s ~qubit:1,
        State.Reference.set_bit_zero s ~qubit:1 );
      ( "clear a varying wire", State.set_bit_zero s ~qubit:0,
        State.Reference.set_bit_zero s ~qubit:0 );
      ( "H on a varying wire", Helpers.kernel_gate s (Gate.H 0),
        State.Reference.apply_gate s (Gate.H 0) );
      ( "H on a constant wire", Helpers.kernel_gate s (Gate.H 1),
        State.Reference.apply_gate s (Gate.H 1) ) ]

(* One step on a thin state: a gate, a projection of a wire onto the
   value drawn (the other one when it has probability zero; none once
   resets have cancelled the norm below 1e-3, where neither value need
   have a norm above 1e-12), or a reset. *)
type step = Gate_step of Gate.t | Project of int * bool | Reset of int

let gen_step nq =
  QCheck.Gen.(
    frequency
      [ (4, map (fun g -> Gate_step g) (gen_gate nq));
        (1, map2 (fun q v -> Project (q, v)) (int_bound (nq - 1)) bool);
        (1, map (fun q -> Reset q) (int_bound (nq - 1))) ])

let print_steps steps =
  String.concat "; "
    (List.map
       (function
         | Gate_step g -> Format.asprintf "%a" Gate.pp g
         | Project (q, v) -> Printf.sprintf "project %d onto %b" q v
         | Reset q -> Printf.sprintf "reset %d" q)
       steps)

(* The step on [s] in place (a gate through [State.run_slots]); returns
   the oracle's result on the same input. *)
let step_with_oracle s = function
  | Gate_step g ->
      let expect = State.Reference.apply_gate s g in
      Helpers.kernel_gate_inplace s g;
      expect
  | Project _ when State.norm s < 1e-3 -> State.copy s
  | Project (qubit, v) ->
      let value =
        if State.zero_probability (State.prob_bit_one s qubit) v then not v
        else v
      in
      let expect = State.Reference.project s ~qubit ~value in
      State.project_inplace s ~qubit ~value;
      expect
  | Reset qubit ->
      let expect = State.Reference.set_bit_zero s ~qubit in
      State.set_bit_zero_inplace s ~qubit;
      expect

(* Every step while the state is on the sparse track (it demotes at one
   term) leaves the oracle's terms, compared with [=], and its support. *)
let rec steps_match_oracle s = function
  | [] -> true
  | step :: rest ->
      State.on_product_track s
      ||
      let expect = step_with_oracle s step in
      State.to_alist s = State.to_alist expect
      && State.support_size s = State.support_size expect
      && steps_match_oracle s rest

(* A map runs the oracle's algorithms, so each gate, projection and reset
   on it is the oracle's, bit for bit: from a thin [of_alist] state, a
   map from the start, and from the state a fan-out hands from the cube
   to a map. *)
let prop_thin_states_exact =
  QCheck.Test.make
    ~name:"thin states: each gate, projection and reset = oracle, bit for bit"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         quad gen_thin_terms (list_size (int_range 1 20) (gen_step thin_nq))
           gen_fan_out (list_size (int_range 1 20) (gen_step fan_out_nq)))
       ~print:(fun ((k0, terms), steps, start, steps') ->
         Printf.sprintf "thin: key %d, %d more terms: %s\nfan-out %s: %s" k0
           (List.length terms) (print_steps steps) (print_fan_out start)
           (print_steps steps')))
    (fun (thin, steps, (idx, controls), steps') ->
      let handed = State.basis ~num_qubits:fan_out_nq idx in
      let _, tally, _ = Helpers.run_kernel handed (fan_out controls) ~stop:9 in
      steps_match_oracle (thin_state thin) steps
      && tally.(State.tally_fallbacks) = 1
      && steps_match_oracle handed steps')

let suite =
  ( "backends",
    [ qtest prop_engines_agree;
      qtest prop_sparse_kernel_matches_reference_dense;
      qtest prop_run_shots_jobs_independent;
      Alcotest.test_case "run_shots stats = sequential stats" `Quick
        test_run_shots_stats_match_sequential;
      Alcotest.test_case "sample_register jobs-independent" `Quick
        test_sample_register_jobs_independent;
      Alcotest.test_case "sample_register negative shots" `Quick
        test_sample_register_negative_shots;
      qtest prop_fold_matches_sequential;
      Alcotest.test_case "Parallel.fold raises lowest failing index" `Quick
        test_fold_raises_lowest_index;
      Alcotest.test_case "pool: 200 folds reuse the workers" `Quick
        test_pool_reuses_workers;
      Alcotest.test_case "pool: survives a failed fold" `Quick
        test_pool_survives_failure;
      Alcotest.test_case "pool: nested fold" `Quick test_pool_nested_fold;
      Alcotest.test_case "pool: two domains fold at once" `Quick
        test_pool_two_domains;
      Alcotest.test_case "pool: GC words at jobs 1 = jobs 2" `Quick
        test_fold_gc_words;
      qtest prop_product_track_matches_reference;
      Alcotest.test_case "motifs promote and demote" `Quick
        test_motifs_promote_and_demote;
      qtest prop_loop_paths_agree;
      qtest prop_run_slots_to_stop;
      qtest prop_faults_fast_eq_sparse;
      Alcotest.test_case "mask kernel: every opcode on every product" `Quick
        test_kernel_each_opcode;
      Alcotest.test_case "mask kernel: passes, stops and signs" `Quick
        test_kernel_passes;
      Alcotest.test_case "Table-1 rows: Fast = Sparse per shot" `Quick
        test_montecarlo_rows_fast_eq_sparse;
      Alcotest.test_case "Draper families: Fast = Sparse = Reference" `Quick
        test_draper_engines_agree;
      Alcotest.test_case "Draper fault plans: Fast = Sparse" `Quick
        test_draper_faults_fast_eq_sparse;
      qtest prop_table_gates_exact;
      qtest prop_table_growth;
      qtest prop_table_cancels_and_demotes;
      qtest prop_table_clear_collisions;
      qtest prop_table_projections;
      qtest prop_thin_map_gates_exact;
      qtest prop_cube_to_map;
      Alcotest.test_case "thin cube: a split moves it to the map" `Quick
        test_thin_cube_split;
      Alcotest.test_case "cube: negligible terms dropped as the oracle does"
        `Quick test_cube_negligible_terms;
      qtest prop_thin_states_exact;
      Alcotest.test_case "Draper fault plans: Fast = Reference" `Quick
        test_draper_faults_fast_eq_reference ] )
