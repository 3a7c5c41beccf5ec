open Mbu_circuit
open Mbu_telemetry

(* Runtime instruments, registered at module init so no registry work ever
   lands inside a measured run. Counters stripe per domain, so the parallel
   shot runner bumps them contention-free; totals merge on read. *)
let m_runs = Telemetry.counter ~help:"Completed Sim.run executions" "mbu_sim_runs"

let m_run_seconds =
  Telemetry.histogram ~help:"Per-run wall-clock latency in seconds"
    "mbu_sim_run_seconds"

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

let m_promotions =
  Telemetry.counter ~help:"States promoted from the product track to the cube"
    "mbu_sim_promotions"

let m_table_fallbacks =
  Telemetry.counter ~help:"Sparse states handed from the cube to a hash map"
    "mbu_sim_table_fallbacks"

type run = {
  state : State.t;
  bits : bool array;
  executed : Counts.t;
  injected : int;
}

type event =
  | Measured of { qubit : Gate.qubit; bit : int; outcome : bool; p1 : float }
  | Branch of { bit : int; value : bool; taken : bool }

type engine = Fast | Sparse | Reference

(* Every [run] without [?rng] gets its own freshly seeded generator: a
   shared global would make results depend on how many unseeded runs
   happened earlier in the process (test execution order, REPL history). *)
let fresh_rng () = Rng.make ~stream:0x51432025 ~seed:0 0

(* Deterministic per-shot split: shot [i] of a multi-shot run draws from a
   generator keyed only by the caller's seed and the shot index, so the
   outcome of shot [i] does not depend on the other shots — which is what
   makes the parallel runner's output independent of [jobs]. *)
let shot_rng ~seed i = Rng.make ~stream:0x6d62755f ~seed i

(* ------------------------------------------------------------------ *)
(* The compiled program *)

(* Opcodes are [State]'s: the gate kinds [0] to [op_measure - 1] in
   [Counts] field order, so an opcode indexes the run's tally, then
   measurements and conditionals. *)
let op_measure = State.op_measure
let op_if = State.op_if

(* One slot per static instruction position (Fault's numbering): [Call]s
   and [Span]s are expanded, and an [If_bit]'s body follows its slot.
   - gate slot: [gates.(i)], and its opcode, masks and phase in [code],
     [a], [b] and [c], and a Phase or Cphase's factor in [w.(2i)] and
     [w.(2i + 1)], as [State.encode_gate] writes them, for
     [State.run_slots] ([w] is empty for a program with neither);
   - measure slot: [a.(i)] qubit, [b.(i)] bit, [c.(i)] 1 for reset;
   - if slot: [a.(i)] bit, [b.(i)] 1 when the guard value is true, and
     [c.(i)] the slot one past the body (the jump when not taken). *)
type program = {
  num_qubits : int;
  num_bits : int;
  code : int array;
  a : int array;
  b : int array;
  c : int array;
  w : float array;
  gates : Gate.t array;
}

let no_gate = Gate.X 0

let compile (circ : Circuit.t) =
  let n = Instr.count_instrs circ.instrs in
  let code = Array.make n 0 and a = Array.make n 0 and b = Array.make n 0 in
  let c = Array.make n 0 and w = ref [||] in
  let gates = Array.make n no_gate in
  (* [emit pc instrs] lays [instrs] out from slot [pc] and returns the slot
     one past them. *)
  let rec emit pc = function
    | [] -> pc
    | Instr.Gate g :: rest ->
        (match g with
        | (Gate.Phase _ | Gate.Cphase _) when Array.length !w = 0 ->
            w := Array.make (2 * n) 0.
        | _ -> ());
        State.encode_gate g ~code ~a ~b ~c ~w:!w pc;
        gates.(pc) <- g;
        emit (pc + 1) rest
    | Instr.Measure { qubit; bit; reset } :: rest ->
        code.(pc) <- op_measure;
        a.(pc) <- qubit;
        b.(pc) <- bit;
        c.(pc) <- Bool.to_int reset;
        emit (pc + 1) rest
    | Instr.If_bit { bit; value; body } :: rest ->
        let stop = emit (pc + 1) body in
        code.(pc) <- op_if;
        a.(pc) <- bit;
        b.(pc) <- Bool.to_int value;
        c.(pc) <- stop;
        emit stop rest
    | Instr.Span { body; _ } :: rest -> emit (emit pc body) rest
    | Instr.Call node :: rest -> emit (emit pc node.Instr.body) rest
  in
  ignore (emit 0 circ.instrs);
  { num_qubits = circ.num_qubits; num_bits = circ.num_bits; code; a; b; c;
    w = !w; gates }

(* The Paulis a fault injects, as a program built once and never
   written: X q at slot 2q and Z q at slot 2q + 1, for each of the 62
   wires a state can have. *)
let paulis =
  compile
    (Circuit.make ~num_qubits:62
       (List.concat
          (List.init 62 (fun q -> Instr.[ Gate (Gate.X q); Gate (Gate.Z q) ]))))

(* A fault plan and the pinned outcomes as patches sorted by slot: the
   slots of [paulis] injected after a gate slot, in order (Y is Z then X,
   equal to Y up to global phase; [count] the faults they stand for),
   the skipped [If_bit] slots, and every measure slot that writes a
   flipped or a pinned bit, with one misread however often the plan names
   the bit and [pin] the pinned outcome (0 or 1, -1 for none). Its size
   is the plan's, not the program's, so a campaign run allocates next to
   nothing for it. Faults and pins at positions or bits the program does
   not have, or faults at slots of the wrong kind, are dropped, like a
   fault in a branch never reached; a Pauli on a wire the state lacks
   raises. *)
type patch = { slot : int; count : int; paulis : int array; pin : int }

let no_patch = { slot = -1; count = 0; paulis = [||]; pin = -1 }

let patches_of prog ~wires ~force faults =
  let n = Array.length prog.code and nbits = prog.num_bits in
  let at pos = pos >= 0 && pos < n in
  let measures = ref [] in
  (* Bit-indexed, so the measure slots resolve in one pass; made only for
     a plan that misreads or pins a bit. *)
  let misreads =
    List.exists (function Fault.Flip_outcome _ -> true | _ -> false) faults
  in
  if force <> [] || misreads then begin
    let misread = Array.make nbits false and pin = Array.make nbits (-1) in
    let mark bit set = if bit >= 0 && bit < nbits then set bit in
    List.iter
      (function
        | Fault.Flip_outcome { bit } -> mark bit (fun b -> misread.(b) <- true)
        | Fault.Pauli_after _ | Fault.Skip_block _ -> ())
      faults;
    List.iter (fun (bit, v) -> mark bit (fun b -> pin.(b) <- Bool.to_int v)) force;
    for i = n - 1 downto 0 do
      let bit = prog.b.(i) in
      if prog.code.(i) = op_measure && (misread.(bit) || pin.(bit) >= 0) then
        let count = Bool.to_int misread.(bit) in
        measures := { slot = i; count; paulis = [||]; pin = pin.(bit) } :: !measures
    done
  end;
  List.filter_map
    (function
      | Fault.Pauli_after { qubit; _ } when qubit < 0 || qubit >= wires ->
          Mbu_error.invalid ~subsystem:"Sim.run" ~qubit
            (Printf.sprintf "Pauli fault on wire %d of a %d-wire state" qubit
               wires)
      | Fault.Pauli_after { pos; qubit; pauli }
        when at pos && prog.code.(pos) < op_measure ->
          let x = 2 * qubit in
          let paulis =
            match pauli with
            | Fault.X -> [| x |]
            | Fault.Z -> [| x + 1 |]
            | Fault.Y -> [| x + 1; x |]
          in
          Some { slot = pos; count = 1; paulis; pin = -1 }
      | Fault.Skip_block { pos } when at pos && prog.code.(pos) = op_if ->
          Some { slot = pos; count = 1; paulis = [||]; pin = -1 }
      | Fault.Pauli_after _ | Fault.Skip_block _ | Fault.Flip_outcome _ -> None)
    faults
  @ !measures
  |> List.stable_sort (fun p q -> compare p.slot q.slot)
  (* Merge the patches of one slot, keeping plan order. A measure slot has
     one, so its pin is never merged. *)
  |> List.fold_left
       (fun acc p ->
         match acc with
         | q :: rest when q.slot = p.slot ->
             { q with count = q.count + p.count;
                      paulis = Array.append q.paulis p.paulis }
             :: rest
         | _ -> p :: acc)
       []
  |> List.rev |> Array.of_list

(* The first slot from [i] below [stop] that is a measurement or a
   conditional, else [stop]. *)
let rec next_event code i stop =
  if i >= stop || code.(i) >= op_measure then i else next_event code (i + 1) stop

(* Gate slot [i] of [p], the run's program or [paulis], tallied: in
   place by the kernel's one-slot pass, or by the oracle's rebuild from
   [p.gates]. *)
let gate_step ~reference state p i ~tally ~bits ~rng =
  if reference then begin
    tally.(p.code.(i)) <- tally.(p.code.(i)) + 1;
    State.Reference.apply_gate state p.gates.(i)
  end
  else begin
    ignore
      (State.run_slots state ~code:p.code ~a:p.a ~b:p.b ~c:p.c ~w:p.w
         ~gates:p.gates ~tally ~bits ~rng i ~stop:(i + 1));
    state
  end

(* Slot [i] of [paulis]: a fault, not a program gate, so never tallied. *)
let inject ~reference state i ~tally ~bits ~rng =
  let state = gate_step ~reference state paulis i ~tally ~bits ~rng in
  let op = paulis.code.(i) in
  tally.(op) <- tally.(op) - 1;
  state

let run_program ?rng ?on_event ?(engine = Fast) ?(force = []) ?(faults = [])
    prog ~init =
  let rng = match rng with Some r -> r | None -> fresh_rng () in
  if State.num_qubits init < prog.num_qubits then
    Mbu_error.invalid ~subsystem:"Sim.run" "state narrower than circuit";
  let t_start = Telemetry.now () in
  let bits = Array.make (max prog.num_bits 1) false in
  (* Instructions by opcode, then the kernel's other cells. *)
  let tally = Array.make State.tally_size 0 in
  (* The runner owns a private copy, so the in-place kernels may mutate
     it; [Sparse] and [Reference] pin it to the sparse track. *)
  let state = ref (State.copy init) in
  if engine <> Fast then State.force_sparse !state;
  let reference = engine = Reference in
  let patches =
    if faults = [] && force = [] then [||]
    else patches_of prog ~wires:(State.num_qubits init) ~force faults
  in
  let injected = ref 0 in
  (* Patches are visited through a cursor: [next_patch] is the slot of the
     next patch not yet passed ([max_int] when there is none). *)
  let npatches = Array.length patches in
  let patch_cursor = ref 0 in
  let next_patch = ref (if npatches > 0 then patches.(0).slot else max_int) in
  (* Event blocks are allocated only when a hook is installed. *)
  let hooked, emit =
    match on_event with Some f -> (true, f) | None -> (false, ignore)
  in
  tally.(State.tally_peak) <- State.support_size !state;
  let code = prog.code and n = Array.length prog.code in
  (* This loop alone sets where a pass stops: on [Fast] and [Sparse],
     [State.run_slots] runs every slot up to the next patch and, under a
     hook, up to the next measurement or conditional. The slot a pass
     stops at, and every slot on [Reference], runs here alone. *)
  let pc = ref 0 in
  while !pc < n do
    let i = !pc in
    (* Pass over the patches of bodies that were jumped. *)
    if !next_patch < i then begin
      while !patch_cursor < npatches && patches.(!patch_cursor).slot < i do
        incr patch_cursor
      done;
      next_patch :=
        if !patch_cursor < npatches then patches.(!patch_cursor).slot else max_int
    end;
    let op = code.(i) in
    let stop =
      if reference then i
      else if hooked then next_event code i (min !next_patch n)
      else !next_patch
    in
    let p = if !next_patch = i then patches.(!patch_cursor) else no_patch in
    if stop > i then
      pc :=
        State.run_slots !state ~code ~a:prog.a ~b:prog.b ~c:prog.c ~w:prog.w
          ~gates:prog.gates ~tally ~bits ~rng i ~stop
    else if op < op_measure then begin
      state := gate_step ~reference !state prog i ~tally ~bits ~rng;
      for k = 0 to Array.length p.paulis - 1 do
        state := inject ~reference !state p.paulis.(k) ~tally ~bits ~rng
      done;
      injected := !injected + p.count;
      pc := i + 1
    end
    else if op = op_measure then begin
      let qubit = prog.a.(i) and bit = prog.b.(i) in
      (* Support size peaks just before a measurement collapses the state,
         so sampling here (O(1)) catches the run's high-water without a
         per-gate probe. *)
      let terms = State.support_size !state in
      if terms > tally.(State.tally_peak) then
        tally.(State.tally_peak) <- terms;
      let p1 = State.prob_bit_one !state qubit in
      let outcome =
        if p.pin < 0 then State.draw_outcome rng p1
        else if State.zero_probability p1 (p.pin = 1) then
          Mbu_error.invalid ~subsystem:"Sim.run" ~qubit ~bit
            (Printf.sprintf "forced outcome %b has probability zero" (p.pin = 1))
        else p.pin = 1
      in
      if reference then
        state := State.Reference.project !state ~qubit ~value:outcome
      else State.project_inplace !state ~qubit ~value:outcome;
      let recorded =
        if p.count > 0 then begin
          incr injected;
          not outcome
        end
        else outcome
      in
      bits.(bit) <- recorded;
      (* Reset is an X conditioned on the *recorded* outcome, so a misread
         fault leaves the qubit physically wrong — exactly the failure mode
         the campaigns probe. *)
      if prog.c.(i) = 1 && recorded then
        if not outcome then
          state := inject ~reference !state (2 * qubit) ~tally ~bits ~rng
        else if reference then
          state := State.Reference.set_bit_zero !state ~qubit
        else State.set_bit_zero_inplace !state ~qubit;
      tally.(op_measure) <- tally.(op_measure) + 1;
      if hooked then emit (Measured { qubit; bit; outcome = recorded; p1 });
      pc := i + 1
    end
    else begin
      let bit = prog.a.(i) and value = prog.b.(i) = 1 in
      let guard = bits.(bit) = value in
      let taken =
        if p.count > 0 then begin
          if guard then incr injected;
          false
        end
        else guard
      in
      tally.(op_if) <- tally.(op_if) + 1;
      if taken then tally.(State.tally_taken) <- tally.(State.tally_taken) + 1;
      if hooked then emit (Branch { bit; value; taken });
      pc := if taken then i + 1 else prog.c.(i)
    end
  done;
  (* Per-run telemetry lands once per run, not per instruction; the GC
     words once per fold block ([Parallel.fold]). *)
  Telemetry.incr m_runs;
  Telemetry.observe m_run_seconds (Telemetry.now () -. t_start);
  let gates = ref 0 in
  for k = 0 to op_measure - 1 do
    gates := !gates + tally.(k)
  done;
  Telemetry.add m_gates !gates;
  Telemetry.add m_measurements tally.(op_measure);
  Telemetry.add m_branches tally.(op_if);
  Telemetry.add m_branches_taken tally.(State.tally_taken);
  Telemetry.observe_max m_peak_terms tally.(State.tally_peak);
  if tally.(State.tally_promotions) > 0 then
    Telemetry.add m_promotions tally.(State.tally_promotions);
  if tally.(State.tally_fallbacks) > 0 then
    Telemetry.add m_table_fallbacks tally.(State.tally_fallbacks);
  let count op = float_of_int tally.(op) in
  let executed =
    { Counts.x = count 0; z = count 1; h = count 2; phase = count 3;
      cnot = count 4; cz = count 5; swap = count 6; toffoli = count 7;
      cphase = count 8; measure = count op_measure }
  in
  { state = !state; bits; executed; injected = !injected }

(* A caller's [Random.State.t] seeds the run's stream with one draw. *)
let run ?rng ?on_event ?engine ?force ?faults c ~init =
  run_program ?rng:(Option.map Rng.of_random rng) ?on_event ?engine ?force
    ?faults (compile c) ~init

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

let run_builder ?rng ?on_event ?engine ?faults b ~inits =
  let c = Builder.to_circuit b in
  let init = init_registers ~num_qubits:(Builder.num_qubits b) inits in
  run ?rng ?on_event ?engine ?faults c ~init

(* ------------------------------------------------------------------ *)
(* Aggregate branch statistics over Monte-Carlo runs *)

type stats = {
  mutable runs : int;
  branch : (int, int * int) Hashtbl.t;  (* bit -> taken, seen *)
}

let new_stats () = { runs = 0; branch = Hashtbl.create 16 }

let stats_hook st = function
  | Branch { bit; taken; _ } ->
      let a, b = Option.value (Hashtbl.find_opt st.branch bit) ~default:(0, 0) in
      Hashtbl.replace st.branch bit ((if taken then a + 1 else a), b + 1)
  | Measured _ -> ()

let record_run st = st.runs <- st.runs + 1
let runs st = st.runs

let merge_stats into src =
  match (into, src) with
  | Some into, Some src ->
      into.runs <- into.runs + src.runs;
      Hashtbl.iter
        (fun k (a, b) ->
          let a0, b0 =
            Option.value (Hashtbl.find_opt into.branch k) ~default:(0, 0)
          in
          Hashtbl.replace into.branch k (a0 + a, b0 + b))
        src.branch
  | _ -> ()

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

let branch_bits st = Hashtbl.fold (fun k _ acc -> k :: acc) st.branch [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Multi-shot runner *)

let default_jobs = Parallel.default_jobs
let parallel_backend = Parallel.backend

(* The one Monte-Carlo loop. The circuit compiles once; shot [i] runs it
   with [shot_rng ~seed i] inside [Parallel.fold], and each worker keeps
   one branch tally when [stats] is asked for, merged into it at the end. *)
let fold_shots ?(seed = 0) ?jobs ?stats ?(engine = Fast) ~shots c ~init
    ~empty ~step ~merge =
  if shots < 0 then
    Mbu_error.invalid ~subsystem:"Sim.fold_shots" "negative shot count";
  let prog = compile c in
  let worker () =
    let st = Option.map (fun _ -> new_stats ()) stats in
    (st, Option.map stats_hook st, ref (empty ()))
  in
  let shot ((st, on_event, acc) as w) i =
    let rng = shot_rng ~seed i in
    let r = run_program ~rng ?on_event ~engine prog ~init in
    Option.iter record_run st;
    acc := step !acc i rng r;
    w
  in
  let merge_workers ((st, _, acc) as w) (st', _, acc') =
    merge_stats st st';
    acc := merge !acc !acc';
    w
  in
  let st, _, acc =
    Parallel.fold ?jobs ~tasks:shots ~init:worker ~step:shot
      ~merge:merge_workers
  in
  merge_stats stats st;
  !acc

let run_shots ?seed ?jobs ?stats ?engine ~shots c ~init =
  let blank = { state = init; bits = [||]; executed = Counts.zero; injected = 0 } in
  let runs = Array.make (max 0 shots) blank in
  fold_shots ?seed ?jobs ?stats ?engine ~shots c ~init ~empty:ignore
    ~step:(fun () i _ r -> runs.(i) <- r)
    ~merge:(fun () () -> ());
  runs

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
  let n = State.num_qubits state in
  let marked = Array.make n false in
  List.iter
    (fun r ->
      Array.iter (fun q -> if q < n then marked.(q) <- true) (Register.qubits r))
    except;
  let rec check q =
    if q >= n then true
    else if marked.(q) then check (q + 1)
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
    let bit = State.draw_outcome rng p1 in
    State.project_inplace state ~qubit:q ~value:bit;
    v := (!v lsl 1) lor (if bit then 1 else 0)
  done;
  !v

let sample_register ?seed ?jobs ~shots c ~init reg =
  let add tally v k =
    Hashtbl.replace tally v (k + Option.value (Hashtbl.find_opt tally v) ~default:0)
  in
  fold_shots ?seed ?jobs ~shots c ~init
    ~empty:(fun () -> Hashtbl.create 16)
    ~step:(fun tally _ rng r ->
      add tally (measure_register rng r.state reg) 1;
      tally)
    ~merge:(fun a b ->
      Hashtbl.iter (add a) b;
      a)
  |> Hashtbl.to_seq |> List.of_seq
  |> List.sort (fun (va, a) (vb, b) ->
         if a <> b then compare b a else compare va vb)

let unitary_column (c : Circuit.t) j =
  if not (Circuit.is_unitary c) then
    Mbu_error.invalid ~subsystem:"Sim.unitary_column"
      "circuit contains measurements";
  (run c ~init:(State.basis ~num_qubits:c.Circuit.num_qubits j)).state

let circuits_equal_unitary ?dim_qubits a b =
  let n =
    match dim_qubits with
    | Some n -> n
    | None -> max a.Circuit.num_qubits b.Circuit.num_qubits
  in
  let invalid msg =
    Mbu_error.invalid ~subsystem:"Sim.circuits_equal_unitary" msg
  in
  if n > 12 then invalid (Printf.sprintf "%d wires, at most 12" n);
  let widen (c : Circuit.t) =
    Circuit.make ~num_qubits:n ~num_bits:c.Circuit.num_bits c.Circuit.instrs
  in
  let a = widen a and b = widen b in
  if not (Circuit.is_unitary a && Circuit.is_unitary b) then
    invalid "circuit contains measurements";
  let pa = compile a and pb = compile b in
  let column prog j =
    (run_program prog ~init:(State.basis ~num_qubits:n j)).state
  in
  (* Columns must match up to a single global phase shared across all
     columns. Compare the relative phase of each column against column 0 by
     checking U_a |+...+> against U_b |+...+> as well as each basis state. *)
  let dim = 1 lsl n in
  let col_ok = ref true in
  for j = 0 to dim - 1 do
    if State.fidelity (column pa j) (column pb j) < 1. -. 1e-9 then
      col_ok := false
  done;
  (* catching relative-phase differences between columns: feed the uniform
     superposition through both *)
  let uniform =
    let amp : Complex.t = { re = 1.0 /. sqrt (float_of_int dim); im = 0.0 } in
    State.of_alist ~num_qubits:n (List.init dim (fun j -> (j, amp)))
  in
  let through prog = (run_program prog ~init:uniform).state in
  !col_ok && State.fidelity (through pa) (through pb) > 1. -. 1e-9
