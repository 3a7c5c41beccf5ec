(** Circuit execution.

    Runs an adaptive circuit (gates, measurements, classically controlled
    blocks) against a {!State.t}, drawing measurement outcomes from an RNG.
    Besides the final state it reports the classical outcome bits and the
    gate counts that were {e actually executed} — conditional blocks counted
    only when taken — which is what the Monte-Carlo validation of the
    paper's "in expectation" costs averages over.

    The runner works on a private copy of the initial state, so it can use
    the in-place state kernels; the caller's [init] is never mutated and can
    be shared across shots. *)

open Mbu_circuit

type run = {
  state : State.t;
  bits : bool array;  (** classical bits, indexed by measurement bit id *)
  executed : Counts.t;  (** gates actually executed in this run *)
  injected : int;
      (** injected faults that actually fired this run: Paulis whose
          position was reached, outcome flips applied, conditionals whose
          skip changed behaviour. 0 when no fault plan was given. *)
}

(** Execution event, reported to the [?on_event] hook in program order.
    [Branch] fires for every [If_bit] reached, taken or not — the raw
    material for checking the paper's "each conditional fires with
    probability 1/2" cost model empirically. Span events carry the full
    label path from the root. *)
type event =
  | Gate_applied of Gate.t
  | Measured of { qubit : Gate.qubit; bit : int; outcome : bool }
  | Branch of { bit : int; value : bool; taken : bool }
  | Span_enter of { label : string; path : string list }
  | Span_exit of { label : string; path : string list }

(** Which state backend executes the circuit. All three draw measurement
    outcomes from the same RNG stream and agree on every run (the
    backend-equivalence property tests enforce this); they differ only in
    speed.

    - [Fast] (default): the product track for products of Z-basis and
      X-basis wires (O(1) mask updates for X, Z, H, Swap, CZ and CNOT /
      Toffoli with Z-basis controls, an exact coin flip for measuring an
      X-basis wire, no allocation). An operation that needs the amplitudes
      of an X-basis wire (a control on it, a phase rotation on it) promotes
      the state to the in-place sparse kernel, and a sparse state that
      collapses to one basis vector demotes back. MBU circuits on basis
      inputs stay on the product track.
    - [Sparse]: pin the state to the in-place sparse kernel for the whole
      run, even where the product track would apply.
    - [Reference]: the seed simulator's pure rebuild-per-gate algorithms —
      the oracle for equivalence tests and the benchmark baseline. *)
type engine = Fast | Sparse | Reference

val run :
  ?rng:Random.State.t -> ?on_event:(event -> unit) -> ?engine:engine ->
  ?force:(int -> bool option) -> ?faults:Fault.t list -> ?max_terms:int ->
  Circuit.t -> init:State.t -> run
(** [rng] defaults to a {e freshly seeded} deterministic generator per call:
    two unseeded runs of the same circuit give the same outcomes, and an
    unseeded run never perturbs later ones. [on_event] is called
    synchronously after each instruction executes (and for each conditional
    block considered); it must not mutate the run.

    [force bit] pins measurement outcomes: [Some v] projects the measured
    qubit onto [v] instead of sampling (raising {!Mbu_circuit.Mbu_error.Error}
    if [v] has probability zero), [None] falls back to the RNG. Classical
    bits are 1:1 with measurements, so [bit] addresses each measurement
    uniquely — this is what drives {e both} arms of every MBU conditional
    deterministically.

    [faults] injects the given {!Mbu_circuit.Fault.t} plan: Pauli and skip
    faults fire when execution reaches their static position (see [Fault]
    for the numbering — branches not taken advance the position past their
    bodies), outcome flips corrupt the {e recorded} bit of the matching
    measurement while the projection (and a reset's conditional X, which
    keys on the recorded value) follow the fault. Injected Paulis are not
    counted in [executed].

    [max_terms] bounds the state's support ({!State.support_size}: the
    basis terms a product-track state denotes, 2{^k} for k X-basis wires,
    or the sparse table's entries); the first gate that leaves more than
    this many raises a [Mbu_error.Resource_limit] carrying the enclosing
    span path — a clean failure instead of thrashing toward OOM on an
    accidentally dense circuit. *)

(** {1 Compiled programs}

    [run] lowers its circuit to a flat program on every call. Callers that
    run one circuit many times compile it once: {!run_shots},
    {!sample_register}, {!circuits_equal_unitary} and the robustness
    campaigns do. *)

type program
(** A circuit lowered to int arrays: one slot per static instruction
    position ([Call]s expanded, so fault sites index slots directly),
    [If_bit] as a forward jump past its body, and span boundaries as
    weightless marks read only when a hook or [max_terms] observes them. *)

val compile : Circuit.t -> program

val run_program :
  ?rng:Random.State.t -> ?on_event:(event -> unit) -> ?engine:engine ->
  ?force:(int -> bool option) -> ?faults:Fault.t list -> ?max_terms:int ->
  program -> init:State.t -> run
(** [run] on a compiled circuit: [run c] is [run_program (compile c)], with
    the same results. *)

val init_registers : num_qubits:int -> (Register.t * int) list -> State.t
(** Basis state with each register holding the given unsigned value (LSB
    first); unlisted wires start at |0>. Raises {!Mbu_circuit.Mbu_error.Error}
    (with the register name attached) if a value does not fit its register —
    including registers of 62 bits and wider, which the seed guard
    skipped. *)

val run_builder :
  ?rng:Random.State.t -> ?on_event:(event -> unit) -> ?engine:engine ->
  ?force:(int -> bool option) -> ?faults:Fault.t list -> ?max_terms:int ->
  Builder.t -> inits:(Register.t * int) list -> run
(** Convert the builder to a circuit and run it on a basis initialization. *)

(** {1 Monte-Carlo branch statistics}

    A mutable tally designed to plug into [?on_event] or {!run_shots}:
    {[
      let st = Sim.new_stats () in
      ignore (Sim.run_shots ~stats:st ~shots:400 c ~init);
      (* Sim.taken_frequency st ≈ 0.5 for MBU circuits *)
    ]} *)

type stats

val new_stats : unit -> stats

val stats_hook : stats -> event -> unit
(** Fold one event into the tally; pass [stats_hook st] as [on_event]. *)

val record_run : stats -> unit
val runs : stats -> int

val merge_stats : into:stats -> stats -> unit
(** Add the counters of the second tally into [into]. Used by the parallel
    runner to combine per-shot tallies; merging is order-independent. *)

val taken_frequency : stats -> float option
(** Fraction of all conditional blocks (across all bits and runs) that were
    taken; [None] before any branch was seen. The paper's MBU cost model
    predicts 0.5. *)

val bit_taken_frequency : stats -> int -> float option
(** Taken fraction for the conditionals guarded by one classical bit. *)

val measured_one_frequency : stats -> int -> float option
(** Fraction of measurements of the given bit that returned 1. *)

val branch_bits : stats -> int list
(** Classical bits that guarded at least one conditional, sorted. *)

(** {1 Parallel multi-shot runner} *)

val default_jobs : unit -> int
(** The fan-out {!run_shots} uses when [?jobs] is omitted: the runtime's
    recommended domain count on OCaml 5, 1 on the sequential fallback. *)

val parallel_backend : string
(** ["domains"] or ["sequential"] — which {!Parallel} implementation this
    binary was built with. *)

val run_shots :
  ?seed:int -> ?jobs:int -> ?stats:stats -> ?engine:engine ->
  ?force:(int -> bool option) -> ?faults:Fault.t list -> ?max_terms:int ->
  shots:int -> Circuit.t -> init:State.t -> run array
(** Run the circuit [shots] times and return the runs in shot order. Shot
    [i] draws its outcomes from a generator derived only from [seed] and
    [i], so the result array (states, bits, executed counts) is identical
    for every [jobs] value — shots are merely evaluated concurrently across
    domains when the runtime supports it. When [stats] is given, each
    shot's branch/outcome events are tallied and merged into it (equivalent
    to running sequentially with [stats_hook]). *)

val run_shots_builder :
  ?seed:int -> ?jobs:int -> ?stats:stats -> ?engine:engine ->
  ?force:(int -> bool option) -> ?faults:Fault.t list -> ?max_terms:int ->
  shots:int -> Builder.t -> inits:(Register.t * int) list -> run array

val register_value : State.t -> Register.t -> int option
(** The register's value if it is definite across the whole superposition. *)

val register_value_exn : State.t -> Register.t -> int

val wires_zero : State.t -> except:Register.t list -> bool
(** True when every wire outside the given registers is definitely |0> —
    the "all ancillas correctly uncomputed" check. *)

val sample_register :
  ?rng:Random.State.t -> ?seed:int -> ?jobs:int ->
  shots:int -> Mbu_circuit.Circuit.t -> init:State.t -> Mbu_circuit.Register.t ->
  (int * int) list
(** Run the circuit [shots] times and, for each run, sample the register in
    the computational basis from the final state; returns
    (value, occurrences) sorted by decreasing count (ties by value). With
    [?rng] the legacy sequential path shares the generator across shots;
    without it each shot is independently seeded from [seed] and the shot
    index and the shots may run in parallel ([jobs] defaults to
    {!default_jobs}), with [jobs]-independent output. *)

val unitary_column : Circuit.t -> int -> State.t
(** [unitary_column c j] is [U |j>] for a measurement-free circuit — column
    [j] of the circuit unitary. Raises [Invalid_argument] on adaptive
    circuits. Useful for exact unitary-equality tests on small widths. *)

val circuits_equal_unitary : ?dim_qubits:int -> Circuit.t -> Circuit.t -> bool
(** Exact unitary equality up to global phase, checked column by column
    (fidelity 1 on every basis input {e and} matching relative phases via a
    shared reference column). Only for measurement-free circuits of small
    width ([dim_qubits] defaults to the wider circuit). *)
