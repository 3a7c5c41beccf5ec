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

(* A spec whose [init] is narrower than its circuit is broken whatever
   the faults, so that check runs first and its error propagates. Past it,
   the [Mbu_error]s raised while the slots run (a forced outcome of
   probability zero, say) are the circuit detecting the fault; anything
   else (an [Invalid_argument] from a state kernel, say) is a simulator
   bug and propagates. *)
let classify_program ?engine ?force ~rng ~faults prog spec =
  Sim.check_init prog ~init:spec.init;
  match
    Sim.run_program ~rng ?engine ?force ~faults prog ~init:spec.init
  with
  | r -> classify_run spec r
  | exception Mbu_error.Error _ -> Detected

let classify ?engine ?force ~rng ~faults spec =
  classify_program ?engine ?force ~rng ~faults
    (Sim.compile spec.circuit) spec

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
let plan_rng ~seed i = Random.State.make [| 0x6661756c; seed; i |]
let run_rng ~seed i = Random.State.make [| 0x696e6a63; seed; i |]

(* [table] is the circuit's sites in program order, so site [s] of the
   draw is [table.(s)], the one [Fault.site] would find. *)
let random_plan ~faults_per_run table rng =
  let num_sites = Array.length table in
  let k = min faults_per_run num_sites in
  let chosen = Hashtbl.create (2 * k) in
  let rec draw () =
    let s = Random.State.int rng num_sites in
    if Hashtbl.mem chosen s then draw ()
    else begin
      Hashtbl.add chosen s ();
      s
    end
  in
  List.init k (fun _ ->
      let site = table.(draw ()) in
      let pauli =
        match Random.State.int rng 3 with
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
  let classify ~rng ~faults = classify_program ~rng ~faults prog spec in
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

let force_all v _bit = Some v

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
  correct_on_true : bool;
  correct_on_false : bool;
  correct_on_targeted : bool;
}

let check_forced_branches spec =
  let arms = branch_arms spec.circuit in
  let driven = Hashtbl.create 32 in
  let hook = function
    | Sim.Branch { bit; value; taken } ->
        Hashtbl.replace driven (bit, value, taken) ()
    | _ -> ()
  in
  let prog = Sim.compile spec.circuit in
  let run_forced force =
    match Sim.run_program ~on_event:hook ~force prog ~init:spec.init with
    | r -> classify_run spec r = Correct
    | exception Mbu_error.Error _ -> false
  in
  let correct_on_true = run_forced (force_all true) in
  let correct_on_false = run_forced (force_all false) in
  let uncovered_now () =
    List.concat_map
      (fun (bit, value) ->
        List.filter_map
          (fun taken ->
            if Hashtbl.mem driven (bit, value, taken) then None
            else Some (bit, value, taken))
          [ true; false ])
      arms
  in
  (* Conditionals nested inside another conditional's body (e.g. a Gidney
     AND erasure inside an MBU correction block) only execute when the
     enclosing guard fires, so the two uniform runs can miss one of their
     arms.  Chase each remaining arm with targeted runs — the arm's own bit
     overridden against a uniform base — until a full sweep makes no
     progress. *)
  let correct_on_targeted = ref true in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun (bit, value, taken) ->
        List.iter
          (fun base ->
            if not (Hashtbl.mem driven (bit, value, taken)) then begin
              let before = Hashtbl.length driven in
              let ok =
                run_forced (fun b ->
                    if b = bit then Some (if taken then value else not value)
                    else Some base)
              in
              if Hashtbl.length driven > before then progress := true;
              if Hashtbl.mem driven (bit, value, taken) && not ok then
                correct_on_targeted := false
            end)
          [ true; false ])
      (uncovered_now ())
  done;
  { arms; uncovered = uncovered_now (); correct_on_true; correct_on_false;
    correct_on_targeted = !correct_on_targeted }

let covered c =
  c.uncovered = [] && c.correct_on_true && c.correct_on_false
  && c.correct_on_targeted
