open Mbu_circuit
open Mbu_telemetry

(* Runtime instruments, registered at module init so no registry work ever
   lands inside a measured run. Counters stripe per domain, so the parallel
   shot runner bumps them contention-free; totals merge on read. *)
let m_runs = Telemetry.counter ~help:"Completed Sim.run executions" "mbu_sim_runs"

let m_run_seconds =
  Telemetry.histogram ~help:"Per-run wall-clock latency in seconds"
    "mbu_sim_run_seconds"

let m_gc_minor_words =
  Telemetry.counter ~help:"Minor-heap words allocated during runs"
    "mbu_sim_gc_minor_words"

let m_gc_major_words =
  Telemetry.counter ~help:"Major-heap words allocated during runs"
    "mbu_sim_gc_major_words"

let m_gates =
  Telemetry.counter ~help:"Program gates applied (injected faults excluded)"
    "mbu_sim_gates"

let m_measurements =
  Telemetry.counter ~help:"Measurements performed" "mbu_sim_measurements"

let m_branches =
  Telemetry.counter ~help:"If_bit branches evaluated" "mbu_sim_branches"

let m_branches_taken =
  Telemetry.counter ~help:"If_bit branches whose body executed"
    "mbu_sim_branches_taken"

let m_peak_terms =
  Telemetry.gauge
    ~help:"Sparse-state support size sampled at run start and measurements"
    "mbu_sim_peak_terms"

type run = {
  state : State.t;
  bits : bool array;
  executed : Counts.t;
  injected : int;
}

type event =
  | Gate_applied of Gate.t
  | Measured of { qubit : Gate.qubit; bit : int; outcome : bool }
  | Branch of { bit : int; value : bool; taken : bool }
  | Span_enter of { label : string; path : string list }
  | Span_exit of { label : string; path : string list }

type engine = Fast | Sparse | Reference

(* Every [run] without [?rng] gets its own freshly seeded generator: a
   shared global would make results depend on how many unseeded runs
   happened earlier in the process (test execution order, REPL history). *)
let default_seed = [| 0x6d62755f; 0x51432025 |]
let fresh_rng () = Random.State.make default_seed

(* Deterministic per-shot split: shot [i] of a multi-shot run draws from a
   generator derived only from the caller's seed and the shot index, so the
   outcome of shot [i] does not depend on the other shots — which is what
   makes the parallel runner's output independent of [jobs]. *)
let shot_rng ~seed i = Random.State.make [| 0x6d62755f; 0x51432025; seed; i |]

let draw_outcome rng p1 =
  if p1 <= 1e-12 then false
  else if p1 >= 1.0 -. 1e-12 then true
  else Random.State.float rng 1.0 < p1

(* Mutable gate tally for the run loop: integer bumps instead of a fresh
   Counts.t record per gate. *)
type tally = {
  mutable t_x : int;
  mutable t_z : int;
  mutable t_h : int;
  mutable t_phase : int;
  mutable t_cnot : int;
  mutable t_cz : int;
  mutable t_swap : int;
  mutable t_toffoli : int;
  mutable t_cphase : int;
  mutable t_measure : int;
}

let tally_gate t = function
  | Gate.X _ -> t.t_x <- t.t_x + 1
  | Gate.Z _ -> t.t_z <- t.t_z + 1
  | Gate.H _ -> t.t_h <- t.t_h + 1
  | Gate.Phase _ -> t.t_phase <- t.t_phase + 1
  | Gate.Cnot _ -> t.t_cnot <- t.t_cnot + 1
  | Gate.Cz _ -> t.t_cz <- t.t_cz + 1
  | Gate.Swap _ -> t.t_swap <- t.t_swap + 1
  | Gate.Toffoli _ -> t.t_toffoli <- t.t_toffoli + 1
  | Gate.Cphase _ -> t.t_cphase <- t.t_cphase + 1

let counts_of_tally t =
  { Counts.x = float_of_int t.t_x;
    z = float_of_int t.t_z;
    h = float_of_int t.t_h;
    phase = float_of_int t.t_phase;
    cnot = float_of_int t.t_cnot;
    cz = float_of_int t.t_cz;
    swap = float_of_int t.t_swap;
    toffoli = float_of_int t.t_toffoli;
    cphase = float_of_int t.t_cphase;
    measure = float_of_int t.t_measure }

let run ?rng ?on_event ?(engine = Fast) ?force ?(faults = []) ?max_terms
    (c : Circuit.t) ~init =
  let rng = match rng with Some r -> r | None -> fresh_rng () in
  if State.num_qubits init < c.num_qubits then
    Mbu_error.invalid ~subsystem:"Sim.run" "state narrower than circuit";
  let bits = Array.make (max c.num_bits 1) false in
  let executed =
    { t_x = 0; t_z = 0; t_h = 0; t_phase = 0; t_cnot = 0; t_cz = 0;
      t_swap = 0; t_toffoli = 0; t_cphase = 0; t_measure = 0 }
  in
  (* The runner owns a private copy, so the fast engines can mutate it in
     place; [Sparse] and [Reference] pin it to the sparse track. *)
  let state = ref (State.copy init) in
  if engine <> Fast then State.force_sparse !state;
  let apply_gate g =
    match engine with
    | Fast | Sparse -> State.apply_gate_inplace !state g
    | Reference -> state := State.Reference.apply_gate !state g
  in
  let project ~qubit ~value =
    match engine with
    | Fast | Sparse -> State.project_inplace !state ~qubit ~value
    | Reference -> state := State.Reference.project !state ~qubit ~value
  in
  let set_bit_zero ~qubit =
    match engine with
    | Fast | Sparse -> State.set_bit_zero_inplace !state ~qubit
    | Reference -> state := State.Reference.set_bit_zero !state ~qubit
  in
  (* Fault plan, indexed for O(1) lookup during execution. Pauli and skip
     faults key on the static instruction position (Fault's site
     numbering, which matches [Instr.count_instrs]); outcome flips key on
     the classical bit, which is unique per measurement. *)
  let pauli_at : (int, int * Gate.t list) Hashtbl.t = Hashtbl.create 8 in
  let flip_bit : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let skip_at : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (function
      | Fault.Pauli_after { pos; qubit; pauli } ->
          let n, gs =
            Option.value (Hashtbl.find_opt pauli_at pos) ~default:(0, [])
          in
          Hashtbl.replace pauli_at pos
            (n + 1, gs @ Fault.pauli_gates pauli qubit)
      | Fault.Flip_outcome { bit } -> Hashtbl.replace flip_bit bit ()
      | Fault.Skip_block { pos } -> Hashtbl.replace skip_at pos ())
    faults;
  (* Position tracking costs an [Instr.count_instrs] per untaken branch —
     a walk of the body's top level, since shared blocks carry their counts
     — so it only runs when a positional fault could fire. *)
  let need_pos = faults <> [] in
  let injected = ref 0 in
  (* Hoist the hook check out of the per-instruction loop: when no hook is
     installed, every event site below is a single always-false branch on
     an immutable bool (and no event block is ever allocated) instead of a
     per-event option match. *)
  let hooked, emit =
    match on_event with Some f -> (true, f) | None -> (false, ignore)
  in
  let track_path = hooked || Option.is_some max_terms in
  let t_start = Telemetry.now () in
  let gc_start = Gc.quick_stat () in
  let branches = ref 0 in
  let branches_taken = ref 0 in
  let peak_terms = ref (State.support_size !state) in
  let check_budget path =
    match max_terms with
    | Some limit ->
        let actual = State.support_size !state in
        if actual > limit then
          Mbu_error.resource_limit ~path ~limit ~actual ~subsystem:"Sim.run"
            "sparse state exceeds the term budget"
    | None -> ()
  in
  (* [exec path pos instrs] returns the static position one past [instrs].
     Event blocks are allocated only when a hook is installed. *)
  let rec exec path pos = function
    | [] -> pos
    | Instr.Gate g :: rest ->
        apply_gate g;
        tally_gate executed g;
        if hooked then emit (Gate_applied g);
        (if need_pos then
           match Hashtbl.find_opt pauli_at pos with
           | Some (n, gs) ->
               (* Injected Paulis are faults, not program gates: applied
                  through the engine but never tallied. *)
               List.iter apply_gate gs;
               injected := !injected + n
           | None -> ());
        check_budget path;
        exec path (pos + 1) rest
    | Instr.Measure { qubit; bit; reset } :: rest ->
        (* Support size peaks just before a measurement collapses the
           state, so sampling here (O(1)) catches the run's high-water
           without a per-gate probe. *)
        let terms = State.support_size !state in
        if terms > !peak_terms then peak_terms := terms;
        let p1 = State.prob_bit_one !state qubit in
        let outcome =
          match force with
          | Some f -> (
              match f bit with
              | Some v ->
                  if (if v then p1 <= 1e-12 else p1 >= 1.0 -. 1e-12) then
                    Mbu_error.invalid ~subsystem:"Sim.run" ~qubit ~bit ~path
                      (Printf.sprintf
                         "forced outcome %b has probability zero"
                         v)
                  else v
              | None -> draw_outcome rng p1)
          | None -> draw_outcome rng p1
        in
        project ~qubit ~value:outcome;
        let recorded =
          if need_pos && Hashtbl.mem flip_bit bit then begin
            incr injected;
            not outcome
          end
          else outcome
        in
        bits.(bit) <- recorded;
        (* Reset is an X conditioned on the *recorded* outcome, so a
           misread fault leaves the qubit physically wrong — exactly the
           failure mode the campaigns probe. *)
        if reset && recorded then
          if outcome then set_bit_zero ~qubit else apply_gate (Gate.X qubit);
        executed.t_measure <- executed.t_measure + 1;
        if hooked then emit (Measured { qubit; bit; outcome = recorded });
        exec path (pos + 1) rest
    | Instr.If_bit { bit; value; body } :: rest ->
        let taken = bits.(bit) = value in
        let taken =
          if need_pos && Hashtbl.mem skip_at pos then begin
            if taken then incr injected;
            false
          end
          else taken
        in
        incr branches;
        if taken then incr branches_taken;
        if hooked then emit (Branch { bit; value; taken });
        let pos_end =
          if taken then exec path (pos + 1) body
          else if need_pos then pos + 1 + Instr.count_instrs body
          else pos
        in
        exec path pos_end rest
    | Instr.Span { label; body; _ } :: rest ->
        let pos =
          if track_path then begin
            let spath = path @ [ label ] in
            if hooked then emit (Span_enter { label; path = spath });
            let p = exec spath pos body in
            if hooked then emit (Span_exit { label; path = spath });
            p
          end
          else exec path pos body
        in
        exec path pos rest
    | Instr.Call { body; _ } :: rest ->
        (* Lazy expansion: a reference executes its body in place; nothing
           is materialized, so sharing is free at simulation time too. *)
        let pos = exec path pos body in
        exec path pos rest
  in
  ignore (exec [] 0 c.instrs);
  (* Per-run telemetry lands once per run, not per instruction, so the
     hot loop above pays nothing for it. GC deltas use [Gc.quick_stat]
     (cheap, and per-domain on OCaml 5, so a shot's delta is its own
     allocation even under the parallel runner). *)
  Telemetry.incr m_runs;
  Telemetry.observe m_run_seconds (Telemetry.now () -. t_start);
  let gc_end = Gc.quick_stat () in
  Telemetry.add m_gc_minor_words
    (max 0 (int_of_float (gc_end.Gc.minor_words -. gc_start.Gc.minor_words)));
  Telemetry.add m_gc_major_words
    (max 0 (int_of_float (gc_end.Gc.major_words -. gc_start.Gc.major_words)));
  Telemetry.add m_gates
    (executed.t_x + executed.t_z + executed.t_h + executed.t_phase
   + executed.t_cnot + executed.t_cz + executed.t_swap + executed.t_toffoli
   + executed.t_cphase);
  Telemetry.add m_measurements executed.t_measure;
  Telemetry.add m_branches !branches;
  Telemetry.add m_branches_taken !branches_taken;
  Telemetry.observe_max m_peak_terms !peak_terms;
  { state = !state; bits; executed = counts_of_tally executed;
    injected = !injected }

let init_registers ~num_qubits assignments =
  let idx = ref 0 in
  List.iter
    (fun (reg, v) ->
      let n = Register.length reg in
      (* [v lsr n] instead of [v >= 1 lsl n]: the latter overflows for wide
         registers, and the seed guard silently skipped validation whenever
         [n >= 62]. Shifts of [Sys.int_size] or more are unspecified, but a
         register that wide holds any non-negative int. *)
      if v < 0 || (n < Sys.int_size && v lsr n <> 0) then
        Mbu_error.invalid ~subsystem:"Sim.init_registers"
          ~register:(Register.name reg)
          (Printf.sprintf "%d does not fit %s" v (Register.name reg));
      for i = 0 to n - 1 do
        if (v lsr i) land 1 = 1 then idx := !idx lor (1 lsl Register.get reg i)
      done)
    assignments;
  State.basis ~num_qubits !idx

let run_builder ?rng ?on_event ?engine ?force ?faults ?max_terms b ~inits =
  let c = Builder.to_circuit b in
  let init = init_registers ~num_qubits:(Builder.num_qubits b) inits in
  run ?rng ?on_event ?engine ?force ?faults ?max_terms c ~init

(* ------------------------------------------------------------------ *)
(* Aggregate branch / outcome statistics over Monte-Carlo runs *)

type stats = {
  mutable runs : int;
  branch : (int, int * int) Hashtbl.t;  (* bit -> taken, seen *)
  outcome : (int, int * int) Hashtbl.t;  (* bit -> ones, measured *)
}

let new_stats () = { runs = 0; branch = Hashtbl.create 16; outcome = Hashtbl.create 16 }

let bump tbl key hit =
  let a, b = Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0) in
  Hashtbl.replace tbl key ((if hit then a + 1 else a), b + 1)

let stats_hook st = function
  | Branch { bit; taken; _ } -> bump st.branch bit taken
  | Measured { bit; outcome; _ } -> bump st.outcome bit outcome
  | Gate_applied _ | Span_enter _ | Span_exit _ -> ()

let record_run st = st.runs <- st.runs + 1
let runs st = st.runs

let merge_stats ~into src =
  into.runs <- into.runs + src.runs;
  let merge dst tbl =
    Hashtbl.iter
      (fun k (a, b) ->
        let a0, b0 = Option.value (Hashtbl.find_opt dst k) ~default:(0, 0) in
        Hashtbl.replace dst k (a0 + a, b0 + b))
      tbl
  in
  merge into.branch src.branch;
  merge into.outcome src.outcome

let freq = function
  | _, 0 -> None
  | taken, seen -> Some (float_of_int taken /. float_of_int seen)

let bit_taken_frequency st bit =
  Option.bind (Hashtbl.find_opt st.branch bit) (fun c -> freq c)

let taken_frequency st =
  let taken, seen =
    Hashtbl.fold (fun _ (t, s) (at, as_) -> (at + t, as_ + s)) st.branch (0, 0)
  in
  freq (taken, seen)

let measured_one_frequency st bit =
  Option.bind (Hashtbl.find_opt st.outcome bit) (fun c -> freq c)

let branch_bits st = Hashtbl.fold (fun k _ acc -> k :: acc) st.branch [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Parallel multi-shot runner *)

let default_jobs = Parallel.default_jobs
let parallel_backend = Parallel.backend

let run_shots ?(seed = 0) ?jobs ?stats ?(engine = Fast) ?force ?faults
    ?max_terms ~shots c ~init =
  if shots < 0 then
    Mbu_error.invalid ~subsystem:"Sim.run_shots" "negative shot count";
  let jobs =
    match jobs with Some j -> max 1 j | None -> Parallel.default_jobs ()
  in
  let collect = Option.is_some stats in
  let shot i =
    let rng = shot_rng ~seed i in
    if collect then begin
      let st = new_stats () in
      let r =
        run ~rng ~on_event:(stats_hook st) ~engine ?force ?faults ?max_terms c
          ~init
      in
      record_run st;
      (r, Some st)
    end
    else (run ~rng ~engine ?force ?faults ?max_terms c ~init, None)
  in
  let results = Parallel.map_tasks ~jobs ~tasks:shots shot in
  (match stats with
  | Some acc ->
      Array.iter
        (fun (_, st) -> Option.iter (fun st -> merge_stats ~into:acc st) st)
        results
  | None -> ());
  Array.map fst results

let run_shots_builder ?seed ?jobs ?stats ?engine ?force ?faults ?max_terms
    ~shots b ~inits =
  let c = Builder.to_circuit b in
  let init = init_registers ~num_qubits:(Builder.num_qubits b) inits in
  run_shots ?seed ?jobs ?stats ?engine ?force ?faults ?max_terms ~shots c ~init

let register_value state reg =
  (* Accumulate from the MSB down so bit i lands at weight 2^i. *)
  let rec from_msb acc i =
    if i < 0 then Some acc
    else
      match State.bit_value state (Register.get reg i) with
      | Some b -> from_msb ((acc lsl 1) lor (if b then 1 else 0)) (i - 1)
      | None -> None
  in
  from_msb 0 (Register.length reg - 1)

let register_value_exn state reg =
  match register_value state reg with
  | Some v -> v
  | None ->
      Mbu_error.invalid ~subsystem:"Sim.register_value_exn"
        ~register:(Register.name reg)
        (Printf.sprintf "%s is in superposition" (Register.name reg))

let wires_zero state ~except =
  let marked = Hashtbl.create 64 in
  List.iter
    (fun r -> Array.iter (fun q -> Hashtbl.replace marked q ()) (Register.qubits r))
    except;
  let n = State.num_qubits state in
  let rec check q =
    if q >= n then true
    else if Hashtbl.mem marked q then check (q + 1)
    else
      match State.bit_value state q with
      | Some false -> check (q + 1)
      | Some true | None -> false
  in
  check 0

(* Sample one register value from a final state, consuming the given rng.
   Mutates [state] (the caller passes a run-private state). *)
let measure_register rng state reg =
  let v = ref 0 in
  for i = Register.length reg - 1 downto 0 do
    let q = Register.get reg i in
    let p1 = State.prob_bit_one state q in
    let bit = draw_outcome rng p1 in
    State.project_inplace state ~qubit:q ~value:bit;
    v := (!v lsl 1) lor (if bit then 1 else 0)
  done;
  !v

let tally_of_values values =
  let tally = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      Hashtbl.replace tally v
        (1 + Option.value (Hashtbl.find_opt tally v) ~default:0))
    values;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
  |> List.sort (fun (va, a) (vb, b) ->
         if a <> b then compare b a else compare va vb)

let sample_register ?rng ?(seed = 0) ?jobs ~shots c ~init reg =
  match rng with
  | Some rng ->
      (* Legacy sequential path: a caller-supplied generator is shared
         across shots, so the shots must run in order on one thread. *)
      let values = Array.make shots 0 in
      for i = 0 to shots - 1 do
        let r = run ~rng c ~init in
        values.(i) <- measure_register rng r.state reg
      done;
      tally_of_values values
  | None ->
      let jobs =
        match jobs with Some j -> max 1 j | None -> Parallel.default_jobs ()
      in
      let values =
        Parallel.map_tasks ~jobs ~tasks:shots (fun i ->
            let rng = shot_rng ~seed i in
            let r = run ~rng c ~init in
            measure_register rng r.state reg)
      in
      tally_of_values values

let unitary_column (c : Circuit.t) j =
  if not (Circuit.is_unitary c) then
    invalid_arg "Sim.unitary_column: circuit contains measurements";
  (run c ~init:(State.basis ~num_qubits:c.Circuit.num_qubits j)).state

let circuits_equal_unitary ?dim_qubits a b =
  let n =
    match dim_qubits with
    | Some n -> n
    | None -> max a.Circuit.num_qubits b.Circuit.num_qubits
  in
  if n > 12 then invalid_arg "Sim.circuits_equal_unitary: too wide";
  let widen (c : Circuit.t) =
    Circuit.make ~num_qubits:n ~num_bits:c.Circuit.num_bits c.Circuit.instrs
  in
  let a = widen a and b = widen b in
  (* Columns must match up to a single global phase shared across all
     columns. Compare the relative phase of each column against column 0 by
     checking U_a |+...+> against U_b |+...+> as well as each basis state. *)
  let dim = 1 lsl n in
  let col_ok = ref true in
  for j = 0 to dim - 1 do
    if State.fidelity (unitary_column a j) (unitary_column b j) < 1. -. 1e-9 then
      col_ok := false
  done;
  (* catching relative-phase differences between columns: feed the uniform
     superposition through both *)
  let uniform =
    let amp : Complex.t = { re = 1.0 /. sqrt (float_of_int dim); im = 0.0 } in
    State.of_alist ~num_qubits:n (List.init dim (fun j -> (j, amp)))
  in
  let through (c : Circuit.t) = (run c ~init:uniform).state in
  !col_ok && State.fidelity (through a) (through b) > 1. -. 1e-9
