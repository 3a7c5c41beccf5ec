(** Fault-injection campaigns over adaptive circuits.

    A {!spec} packages a circuit with the ground truth a run is judged
    against: the classical oracle values of its output registers, the
    registers allowed to be non-zero at the end (everything else must be a
    |0> ancilla), and optional custom detectors (e.g. fidelity against a
    known superposed state — the only way to see a pure phase fault on a
    basis-input run is to feed a superposition).

    Each faulty run is classified:
    - [Detected] — the run raised a clean error ([Mbu_error], including
      forced zero-probability outcomes), a detector fired, or an ancilla
      was left dirty: the fault is visible to checks an error-corrected
      machine (or this test harness) actually performs.
      Other exceptions are never classified: they propagate out of
      {!classify} and {!run_campaign}.
    - [Correct] — all output registers match the oracle and every ancilla
      is clean: the fault was absorbed (e.g. a Z on a wire in a basis
      state, or an X in a branch that never ran).
    - [Silent_corrupt] — the run finished, ancillas clean, but an output
      register is wrong or superposed: the dangerous case the campaign
      exists to measure.

    Campaigns are deterministic: run [i] derives its fault plan and its
    measurement RNG from [(seed, i)] only, so results are independent of
    [jobs] (shots fan out across domains exactly like [Sim.run_shots]). *)

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
  ?engine:Sim.engine -> ?force:(int -> bool option) ->
  rng:Random.State.t -> faults:Fault.t list -> spec -> outcome
(** One faulty run. An [Mbu_error] during execution (including a forced
    zero-probability outcome) classifies as [Detected]; any other exception
    is a simulator bug, not a detected fault, and propagates. *)

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

val force_all : bool -> int -> bool option
(** [force_all v] pins every measurement outcome to [v] — with [true] every
    MBU correction block runs, with [false] none does. *)

val branch_arms : Circuit.t -> (int * bool) list
(** The distinct [(bit, value)] guards of every [If_bit] in the circuit,
    in program order. *)

type coverage = {
  arms : (int * bool) list;
  uncovered : (int * bool * bool) list;
      (** [(bit, value, taken)] combinations never driven *)
  correct_on_true : bool;  (** all-outcomes-1 run classified [Correct] *)
  correct_on_false : bool;  (** all-outcomes-0 run classified [Correct] *)
  correct_on_targeted : bool;
      (** every targeted run for a nested arm classified [Correct] *)
}

val check_forced_branches : spec -> coverage
(** Run the spec twice — all outcomes forced to 1, then to 0 — recording
    which [(bit, value, taken)] combinations fire. For every top-level
    guard one run takes the block and the other skips it; arms nested
    inside another conditional's body are then chased with targeted runs
    (the arm's bit overridden against a uniform base) until coverage stops
    growing. [uncovered = []] means both arms of every conditional were
    driven; the [correct_*] flags assert the oracle held on every forced
    run that drove an arm. *)

val covered : coverage -> bool
(** [uncovered = []] and every forced run was [Correct]. *)
