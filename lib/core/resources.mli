(** Measured resource extraction: build a circuit and report the quantities
    the paper's tables use, in a given accounting mode. This is what the
    benchmark harness prints next to the {!Formulas} predictions, and what
    the Monte-Carlo validation compares against. *)

open Mbu_circuit

type t = {
  toffoli : float;
  cnot : float;
  cz : float;
  cnot_cz : float;
  x : float;
  h : float;
  phase : float;
  cphase : float;
  measure : float;
  qft_units : float;  (** rotation+H content in units of one [QFT_{n+1}] *)
  qubits : int;  (** total wires (inputs + peak ancillas) *)
  ancillas : int;  (** peak ancilla usage *)
  total_depth : float;
  toffoli_depth : float;
}

val measure :
  ?mode:Counts.mode -> n:int -> build:(Builder.t -> unit) -> unit -> t
(** [measure ~mode ~n ~build ()] runs [build] on a fresh builder — [build]
    allocates its own input registers — and extracts counts and ASAP depths.
    [mode] defaults to [Counts.Expected 0.5] (the paper's accounting);
    [qft_units] is normalized by [QFT_{n+1}]. Depths use
    [Depth.of_counts_mode mode]. *)

val monte_carlo_toffoli :
  ?shots:int ->
  ?seed:int ->
  ?jobs:int ->
  build:(Builder.t -> (Mbu_circuit.Register.t * int) list) -> unit -> float
(** Average {e executed} Toffoli count over [shots] (default 400) simulator
    runs: [build] returns the register initialization; measurement outcomes
    vary per shot. Used to validate that the analytic "in expectation"
    numbers are the true mean. One {!Mbu_simulator.Sim.fold_shots}, so the
    answer depends on [seed] only, not on [jobs]. Executed counts are whole
    numbers, so the float sum is exact in any order. Raises
    {!Mbu_circuit.Mbu_error.Error} if [shots < 1]. *)
