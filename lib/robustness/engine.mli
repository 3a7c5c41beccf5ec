(** Fault-injection campaigns over adaptive circuits.

    A {!spec} packages a circuit with the ground truth a run is judged
    against: the classical oracle values of its output registers, the
    registers allowed to be non-zero at the end (everything else must be a
    |0> ancilla), and optional custom detectors (e.g. fidelity against a
    known superposed state — the only way to see a pure phase fault on a
    basis-input run is to feed a superposition).

    Each faulty run is classified:
    - [Detected] — a detector fired or an ancilla was left dirty: the
      fault is visible to checks an error-corrected machine (or this test
      harness) actually performs. An exception is never classified: it
      propagates out of {!classify} and {!run_campaign}.
    - [Correct] — all output registers match the oracle and every ancilla
      is clean: the fault was absorbed (e.g. a Z on a wire in a basis
      state, or an X in a branch that never ran).
    - [Silent_corrupt] — the run finished, ancillas clean, but an output
      register is wrong or superposed: the dangerous case the campaign
      exists to measure.

    Campaigns are deterministic: run [i] draws its fault plan and its
    measurements from two {!Mbu_simulator.Rng.t} streams keyed by
    [(seed, i)] only (no [Random.State.t] is made per run), so results are
    independent of [jobs] (runs fan out across domains exactly like
    [Sim.run_shots]'s shots). *)

open Mbu_circuit
open Mbu_simulator

type spec = {
  name : string;
  circuit : Circuit.t;
  init : State.t;
  keep : Register.t list;  (** registers allowed non-zero at the end *)
  expect : (Register.t * int) list;  (** classical oracle for the outputs *)
  detectors : (string * (Sim.run -> bool)) list;
      (** extra checks; returning [true] classifies the run [Detected] *)
}

val spec_of_builder :
  name:string -> ?detectors:(string * (Sim.run -> bool)) list ->
  keep:Register.t list -> expect:(Register.t * int) list ->
  Builder.t -> inits:(Register.t * int) list -> spec

type outcome = Correct | Detected | Silent_corrupt

val outcome_name : outcome -> string

val classify_run : spec -> Sim.run -> outcome
(** Judge a finished run (detectors, then ancilla check, then oracle). *)

val classify :
  ?engine:Sim.engine -> rng:Random.State.t -> faults:Fault.t list -> spec ->
  outcome
(** One faulty run, judged by {!classify_run}. [rng] seeds the run's
    stream with one draw, as in {!Mbu_simulator.Sim.run}. Every error the run raises
    propagates: a spec whose [init] is narrower than its circuit is broken,
    and any other exception is a simulator bug, not a detected fault. *)

val oracle_outputs : spec -> Register.t list -> (Register.t * int) list
(** Reference oracle from a fault-free run: the registers' final values.
    Valid because a healthy adaptive circuit's outputs are
    outcome-independent; raises [Mbu_error] if an output is superposed or
    an ancilla dirty (the spec itself is broken). *)

(** {1 Campaigns} *)

type plan =
  | Exhaustive of { paulis : Fault.pauli list }
      (** One run per fault site: every listed Pauli on every (gate, wire)
          site, one outcome flip per measurement site, one skip per branch
          site. *)
  | Random of { runs : int; faults_per_run : int }
      (** [runs] runs, each injecting [faults_per_run] distinct
          uniformly-drawn sites (gate sites get a uniform Pauli). *)

type result = {
  spec_name : string;
  sites : int;  (** fault sites in the circuit *)
  runs : int;
  correct : int;
  detected : int;
  silent : int;
  silent_examples : Fault.t list list;
      (** plans of the first 8 silent runs, in run order *)
}

val run_campaign :
  ?seed:int -> ?jobs:int ->
  ?on_progress:(completed:int -> total:int -> unit) ->
  plan:plan -> spec -> result
(** Checks first that the plan's counts are not negative and that the
    fault-free baseline classifies [Correct] (raising [Mbu_error] otherwise
    — a broken spec would classify everything), then runs the campaign as
    one [Parallel.fold] over the runs. [on_progress] fires after every
    completed run with a monotone completion count; under parallel jobs it
    may be called from any worker domain, so it must be thread-safe. *)

val detection_rate : result -> float
(** [detected / (detected + silent)] — of the faults that {e mattered}, the
    fraction the checks caught. 1.0 when nothing was silently corrupted. *)

val silent_rate : result -> float
(** [silent / runs]. *)

(** {1 Forced-branch execution} *)

type coverage = {
  arms : (int * bool) list;
      (** the distinct [(bit, value)] guards of every [If_bit], in program
          order *)
  uncovered : (int * bool * bool) list;
      (** [(bit, value, taken)] combinations never driven *)
  runs : int;  (** the base run and one per flip *)
  correct : bool;  (** every run classified [Correct] *)
  reconverged : bool;
      (** every flipped run ends at fidelity 1 (within 1e-9) with the base *)
  fair : bool;
      (** every measurement reached in every run had probability exactly
          0.5 of reading 1 ([Sim.Measured]'s [p1]) *)
  expected_toffoli : float;
      (** the base run's Toffolis plus Σ 2{^-depth} (a flipped run's
          Toffolis − its parent run's): exact when every outcome is a fair
          coin; NaN when a pin raised *)
}

val check_forced_branches : spec -> coverage
(** Lemma 4.1 by execution: each MBU outcome is a fair coin and both arms
    leave the same state. A base run pins every outcome to 0
    ([Sim.run_program ~force]); then one run per measurement the base run
    reached flips it to 1. Every run reads each measurement's [p1] off its
    hook, so an outcome that can go either way but is not exactly a fair
    coin fails [fair]. A flip that reaches measurements its parent run
    did not (an arm nested in the one it opened) has each new one flipped
    on top of it, recursively; [depth] counts the flips. A pin of
    probability zero (an outcome that is not a coin) fails its run and
    ends that branch, so a base run meeting a deterministic 1 is not
    covered. *)

val covered : coverage -> bool
(** [uncovered = []], [correct], [reconverged] and [fair]. *)
