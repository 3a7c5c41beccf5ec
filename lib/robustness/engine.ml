open Mbu_circuit
open Mbu_simulator
open Mbu_telemetry

(* Campaign instruments: progress and classification tallies plus per-run
   latency. Counters are striped per domain, so the parallel campaign
   loop bumps them contention-free. *)
let m_runs =
  Telemetry.counter ~help:"Fault-campaign runs completed"
    "mbu_robustness_runs"

let m_correct =
  Telemetry.counter ~help:"Campaign runs classified correct"
    "mbu_robustness_correct"

let m_detected =
  Telemetry.counter ~help:"Campaign runs classified detected"
    "mbu_robustness_detected"

let m_silent =
  Telemetry.counter ~help:"Campaign runs classified silent_corrupt"
    "mbu_robustness_silent"

let m_run_seconds =
  Telemetry.histogram ~help:"Per-campaign-run wall-clock latency in seconds"
    "mbu_robustness_run_seconds"

type spec = {
  name : string;
  circuit : Circuit.t;
  init : State.t;
  keep : Register.t list;
  expect : (Register.t * int) list;
  detectors : (string * (Sim.run -> bool)) list;
}

let spec_of_builder ~name ?(detectors = []) ~keep ~expect b ~inits =
  let circuit = Builder.to_circuit b in
  let init = Sim.init_registers ~num_qubits:(Builder.num_qubits b) inits in
  { name; circuit; init; keep; expect; detectors }

type outcome = Correct | Detected | Silent_corrupt

let outcome_name = function
  | Correct -> "correct"
  | Detected -> "detected"
  | Silent_corrupt -> "silent_corrupt"

let classify_run spec (r : Sim.run) =
  if List.exists (fun (_, d) -> d r) spec.detectors then Detected
  else if not (Sim.wires_zero r.Sim.state ~except:spec.keep) then Detected
  else if
    List.for_all
      (fun (reg, v) -> Sim.register_value r.Sim.state reg = Some v)
      spec.expect
  then Correct
  else Silent_corrupt

(* Every error a run raises propagates: a spec whose [init] is narrower
   than its circuit is broken whatever the faults, and an
   [Invalid_argument] from a state kernel is a simulator bug. *)
let classify ?engine ~rng ~faults spec =
  classify_run spec (Sim.run ~rng ?engine ~faults spec.circuit ~init:spec.init)

let oracle_outputs spec outputs =
  let r = Sim.run spec.circuit ~init:spec.init in
  if not (Sim.wires_zero r.Sim.state ~except:spec.keep) then
    Mbu_error.invalid ~subsystem:"Robustness.oracle_outputs"
      "fault-free run leaves a dirty ancilla";
  List.map (fun reg -> (reg, Sim.register_value_exn r.Sim.state reg)) outputs

(* ------------------------------------------------------------------ *)
(* Campaigns *)

type plan =
  | Exhaustive of { paulis : Fault.pauli list }
  | Random of { runs : int; faults_per_run : int }

type result = {
  spec_name : string;
  sites : int;
  runs : int;
  correct : int;
  detected : int;
  silent : int;
  silent_examples : Fault.t list list;
}

(* Split-RNG derivations: the fault plan and the measurement stream of run
   [i] each come from (tag, seed, i) only, so campaigns are reproducible
   and independent of the parallel fan-out. *)
let plan_rng ~seed i = Rng.make ~stream:0x6661756c ~seed i
let run_rng ~seed i = Rng.make ~stream:0x696e6a63 ~seed i

(* [table] is the circuit's sites in program order, so site [s] of the
   draw is [table.(s)], the one [Fault.site] would find. *)
let random_plan ~faults_per_run table rng =
  let num_sites = Array.length table in
  let k = min faults_per_run num_sites in
  let chosen = Hashtbl.create (2 * k) in
  let rec draw () =
    let s = Rng.int rng num_sites in
    if Hashtbl.mem chosen s then draw ()
    else begin
      Hashtbl.add chosen s ();
      s
    end
  in
  List.init k (fun _ ->
      let site = table.(draw ()) in
      let pauli =
        match Rng.int rng 3 with
        | 0 -> Fault.X
        | 1 -> Fault.Y
        | _ -> Fault.Z
      in
      Fault.of_site ~pauli site)

let exhaustive_plans ~paulis table =
  List.concat_map
    (fun site ->
      match site with
      | Fault.Gate_site _ ->
          List.map (fun pauli -> [ Fault.of_site ~pauli site ]) paulis
      | Fault.Measure_site _ | Fault.Branch_site _ -> [ [ Fault.of_site site ] ])
    (Array.to_list table)

let run_campaign ?(seed = 0) ?jobs ?on_progress ~plan spec =
  let invalid msg = Mbu_error.invalid ~subsystem:"Robustness.run_campaign" msg in
  (* Built once: a run's plan indexes it instead of walking the circuit. *)
  let table = Array.of_list (Fault.sites spec.circuit.Circuit.instrs) in
  let sites = Array.length table in
  let total, plan_of =
    match plan with
    | Exhaustive { paulis } ->
        let plans = Array.of_list (exhaustive_plans ~paulis table) in
        (Array.length plans, Array.get plans)
    | Random { runs; faults_per_run } when runs < 0 || faults_per_run < 0 ->
        invalid
          (Printf.sprintf "runs %d and faults per run %d must not be negative"
             runs faults_per_run)
    | Random { runs; faults_per_run } ->
        (runs, fun i -> random_plan ~faults_per_run table (plan_rng ~seed i))
  in
  let prog = Sim.compile spec.circuit in
  let classify ~rng ~faults =
    classify_run spec (Sim.run_program ~rng ~faults prog ~init:spec.init)
  in
  (match classify ~rng:(run_rng ~seed (-1)) ~faults:[] with
  | Correct -> ()
  | o ->
      invalid
        (Printf.sprintf
           "fault-free baseline of %s classifies as %s — oracle or keep-list \
            is wrong"
           spec.name (outcome_name o)));
  let completed = Atomic.make 0 in
  let first_8 = List.filteri (fun k _ -> k < 8) in
  let step r i =
    let faults = plan_of i in
    let o =
      Telemetry.time m_run_seconds (fun () ->
          classify ~rng:(run_rng ~seed i) ~faults)
    in
    Telemetry.incr m_runs;
    (* The heartbeat sees a monotone completion count; under parallel jobs
       it may fire from any domain, so callbacks must be thread-safe
       (printing a line is). *)
    (match on_progress with
    | Some f -> f ~completed:(1 + Atomic.fetch_and_add completed 1) ~total
    | None -> ());
    match o with
    | Correct ->
        Telemetry.incr m_correct;
        { r with correct = r.correct + 1 }
    | Detected ->
        Telemetry.incr m_detected;
        { r with detected = r.detected + 1 }
    | Silent_corrupt ->
        Telemetry.incr m_silent;
        { r with silent = r.silent + 1;
          silent_examples = first_8 (r.silent_examples @ [ faults ]) }
  in
  (* Each worker tallies a block of runs and the blocks merge in run order,
     so the examples are the campaign's first silent plans. *)
  let merge a b =
    { a with correct = a.correct + b.correct;
      detected = a.detected + b.detected; silent = a.silent + b.silent;
      silent_examples = first_8 (a.silent_examples @ b.silent_examples) }
  in
  Parallel.fold ?jobs ~tasks:total
    ~init:(fun () ->
      { spec_name = spec.name; sites; runs = total; correct = 0; detected = 0;
        silent = 0; silent_examples = [] })
    ~step ~merge

let detection_rate r =
  if r.detected + r.silent = 0 then 1.0
  else float_of_int r.detected /. float_of_int (r.detected + r.silent)

let silent_rate r =
  if r.runs = 0 then 0.0 else float_of_int r.silent /. float_of_int r.runs

(* ------------------------------------------------------------------ *)
(* Forced-branch execution *)

let branch_arms (c : Circuit.t) =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (function
      | Fault.Branch_site { bit; value; _ } ->
          if Hashtbl.mem seen (bit, value) then None
          else begin
            Hashtbl.add seen (bit, value) ();
            Some (bit, value)
          end
      | Fault.Gate_site _ | Fault.Measure_site _ -> None)
    (Fault.sites c.Circuit.instrs)

type coverage = {
  arms : (int * bool) list;
  uncovered : (int * bool * bool) list;
  runs : int;
  correct : bool;
  reconverged : bool;
  fair : bool;
  expected_toffoli : float;
}

let check_forced_branches spec =
  let arms = branch_arms spec.circuit in
  let prog = Sim.compile spec.circuit in
  let num_bits = spec.circuit.Circuit.num_bits in
  let driven = Hashtbl.create 32 in
  let runs = ref 0 and correct = ref true and reconverged = ref true in
  let fair = ref true in
  (* One run with the bits in [flips] pinned to 1 and every other bit to
     0: the bits it measured, in order, and the run; [None] when a pin had
     probability zero. *)
  let run flips =
    incr runs;
    let reached = ref [] in
    let hook = function
      | Sim.Measured { bit; p1; _ } ->
          if p1 <> 0.5 then fair := false;
          reached := bit :: !reached
      | Sim.Branch { bit; value; taken } ->
          Hashtbl.replace driven (bit, value, taken) ()
    in
    let force = List.init num_bits (fun b -> (b, List.mem b flips)) in
    match Sim.run_program ~on_event:hook ~force prog ~init:spec.init with
    | r ->
        if classify_run spec r <> Correct then correct := false;
        Some (List.rev !reached, r)
    | exception Mbu_error.Error { subsystem = "Sim.run"; bit = Some _; _ } ->
        correct := false;
        reconverged := false;
        None
  in
  let toffoli (r : Sim.run) = r.Sim.executed.Counts.toffoli in
  (* Each outcome is a fair coin, so a run [depth] flips deep carries
     weight 2^-depth: its Toffolis beyond its parent's, so weighted, sum to
     the expectation. A flip that opens an arm reaches measurements its
     parent did not; each of those is flipped on top of it in turn. *)
  let expected_toffoli =
    match run [] with
    | None -> Float.nan
    | Some (reached, base) ->
        let expected = ref (toffoli base) in
        let rec flip flips (parent_reached, parent) weight bits =
          List.iter
            (fun bit ->
              match run (bit :: flips) with
              | None -> expected := Float.nan
              | Some (reached, r) ->
                  if State.fidelity r.Sim.state base.Sim.state < 1. -. 1e-9
                  then reconverged := false;
                  expected := !expected +. (weight *. (toffoli r -. toffoli parent));
                  List.filter (fun b -> not (List.mem b parent_reached)) reached
                  |> flip (bit :: flips) (reached, r) (weight /. 2.))
            bits
        in
        flip [] (reached, base) 0.5 reached;
        !expected
  in
  let uncovered =
    List.concat_map
      (fun (bit, value) ->
        List.filter_map
          (fun taken ->
            if Hashtbl.mem driven (bit, value, taken) then None
            else Some (bit, value, taken))
          [ true; false ])
      arms
  in
  { arms; uncovered; runs = !runs; correct = !correct;
    reconverged = !reconverged; fair = !fair; expected_toffoli }

let covered c = c.uncovered = [] && c.correct && c.reconverged && c.fair
