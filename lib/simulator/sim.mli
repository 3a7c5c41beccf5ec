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
    [Measured] fires for every measurement executed, with the outcome
    recorded in its bit and [p1], the probability ({!State.prob_bit_one})
    that the wire read 1 just before it was measured: an MBU measurement
    must read exactly 0.5 (Lemma 4.1). [Branch] fires for every [If_bit]
    reached, taken or not — the raw material for checking the paper's
    "each conditional fires with probability 1/2" cost model empirically.
    Gates raise no event, so a hooked run's gate passes allocate
    nothing. *)
type event =
  | Measured of { qubit : Gate.qubit; bit : int; outcome : bool; p1 : float }
  | Branch of { bit : int; value : bool; taken : bool }

(** Which state backend executes the circuit. All three draw measurement
    outcomes from the same RNG stream and agree on every run (the
    backend-equivalence property tests enforce this); they differ only in
    speed.

    - [Fast] (default): the product track for products of Z-basis and
      equatorial wires, each equatorial wire's phase an exact
      fixed-point turn. {!State.run_slots} runs the compiled program in
      passes with the wire masks in registers: O(1) updates for X, Swap,
      CNOT / Toffoli with Z-basis controls, H at phase 0 or 1/2, and Z,
      Phase, CZ and Cphase with at most one equatorial wire; an exact coin
      flip for measuring an equatorial wire; and the conditionals between
      them. So MBU circuits and Draper's QFT adders on basis inputs stay on
      the product track. A gate in a pass allocates nothing (a state's
      first phase below a half turn allocates its fine-phase cells once);
      a measurement of an equatorial wire allocates the few words of its
      random draw. An operation that needs the amplitudes of an
      equatorial wire (a control on it, a CZ or Cphase on two of them, H
      at another phase) promotes the state to the sparse track (see
      {!State}), which runs the same program in passes of its own, and a
      sparse state that collapses to one basis vector demotes back. The
      sparse track holds a state as a dense cube over the wires that vary
      across its terms, every gate in place. When a gate would grow the
      cube's arrays past 4 times its terms, or swaps a varying wire with
      a constant one, the cube hands its terms for good to a map: the
      [Reference] oracle's own hash table, which runs every later gate,
      projection and reset by the oracle's algorithms (a {!program}
      keeps each gate slot's [Gate.t] for it). A run adds its promotions
      and its hand-offs from the cube to a map to the counters
      [mbu_sim_promotions] and [mbu_sim_table_fallbacks] (when it has
      any). One rule sets the
      passes on both tracks: a pass runs every slot up to the next fault
      patch (a Pauli after a gate slot, a skipped conditional, a misread
      or a pinned outcome on a measure slot) and, when [on_event] is
      given, up to the next measurement or conditional. The slot it
      stops at runs alone, to report its event or apply its patch.
    - [Sparse]: pin the state to the sparse track for the whole run, even
      where the product track would apply: it starts as a cube, hands its
      terms to a map by the same rule, and runs in the same passes.
    - [Reference]: the seed simulator's pure rebuild-per-gate algorithms —
      the oracle for equivalence tests and the benchmark baseline. *)
type engine = Fast | Sparse | Reference

val run :
  ?rng:Random.State.t -> ?on_event:(event -> unit) -> ?engine:engine ->
  ?force:(int * bool) list -> ?faults:Fault.t list ->
  Circuit.t -> init:State.t -> run
(** [rng] defaults to a {e freshly seeded} deterministic generator per call:
    two unseeded runs of the same circuit give the same outcomes, and an
    unseeded run never perturbs later ones. [on_event] is called
    synchronously after each measurement and for each conditional block
    considered; it must not mutate the run.

    [force] pins measurement outcomes: a pin [(bit, v)] projects every
    measurement that writes [bit] onto [v] instead of sampling, raising
    {!Mbu_circuit.Mbu_error.Error} (subsystem ["Sim.run"], [bit] attached)
    if [v] has probability zero; unpinned bits draw from the RNG. The last
    pin of a bit wins, and a bit the circuit does not have is ignored. A
    pin is a slot patch, like a misread: pinning both values of an MBU
    bit is what drives {e both} arms of its conditional deterministically
    ([Engine.check_forced_branches]).

    [faults] injects the given {!Mbu_circuit.Fault.t} plan: Pauli and skip
    faults fire when execution reaches their static position (see [Fault]
    for the numbering — branches not taken advance the position past their
    bodies), outcome flips corrupt the {e recorded} bit of the matching
    measurement while the projection (and a reset's conditional X, which
    keys on the recorded value) follow the fault. A misread flips the bit
    of every measurement that writes it, once however often the plan
    names it. Injected Paulis are not counted in [executed]. A fault at a
    position the program does not have, or at a slot of the wrong kind,
    is dropped, like one in a branch never reached; a Pauli fault on a
    wire outside [\[0, State.num_qubits init)] raises
    {!Mbu_circuit.Mbu_error.Error} ([Invalid], subsystem ["Sim.run"],
    [qubit] attached) before any slot runs. *)

(** {1 Compiled programs}

    [run] lowers its circuit to a flat program on every call. Callers that
    run one circuit many times compile it once: the shot loop
    {!fold_shots}, {!circuits_equal_unitary} and the robustness campaigns
    do. *)

type program
(** A circuit lowered to int arrays: one slot per static instruction
    position ([Call]s expanded, so fault sites index slots directly), each
    an opcode and operands in {!State.run_slots}' layout. A gate slot
    carries two wire masks (target, controls) and, for the diagonal gates,
    its phase as a fixed-point turn, besides its [Gate.t];
    [If_bit] is a forward jump past its body; a [Span] is laid out as its
    body, like a [Call], and leaves no trace in the program. Every gate
    a run applies is a slot: an injected Pauli, and a misread reset's X,
    is a slot of one constant program (X q at slot 2q, Z q at 2q + 1, for
    each of the 62 wires; Y is Z then X), run like a program gate. *)

val compile : Circuit.t -> program

val run_program :
  ?rng:Random.State.t -> ?on_event:(event -> unit) -> ?engine:engine ->
  ?force:(int * bool) list -> ?faults:Fault.t list ->
  program -> init:State.t -> run
(** [run] on a compiled circuit: [run c] is [run_program (compile c)], with
    the same results. Raises {!Mbu_circuit.Mbu_error.Error} ([Invalid],
    subsystem ["Sim.run"]) before it runs a slot when [init] has fewer
    wires than the program. *)

val init_registers : num_qubits:int -> (Register.t * int) list -> State.t
(** Basis state with each register holding the given unsigned value (LSB
    first); unlisted wires start at |0>. Raises {!Mbu_circuit.Mbu_error.Error}
    (with the register name attached) if a value does not fit its register —
    including registers of 62 bits and wider, which the seed guard
    skipped. *)

val run_builder :
  ?rng:Random.State.t -> ?on_event:(event -> unit) -> ?engine:engine ->
  ?faults:Fault.t list -> Builder.t -> inits:(Register.t * int) list -> run
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

val taken_frequency : stats -> float option
(** Fraction of all conditional blocks (across all bits and runs) that were
    taken; [None] before any branch was seen. The paper's MBU cost model
    predicts 0.5. *)

val bit_taken_frequency : stats -> int -> float option
(** Taken fraction for the conditionals guarded by one classical bit. *)

val branch_bits : stats -> int list
(** Classical bits that guarded at least one conditional, sorted. *)

(** {1 Multi-shot runner}

    Every Monte-Carlo path is one {!fold_shots}: {!run_shots},
    {!sample_register}, [Resources.monte_carlo_toffoli]. *)

val default_jobs : unit -> int
(** The fan-out the shot loop uses when [?jobs] is omitted: the runtime's
    recommended domain count on OCaml 5, 1 on the sequential fallback. *)

val parallel_backend : string
(** ["domains"] or ["sequential"] — which {!Parallel} implementation this
    binary was built with. *)

val fold_shots :
  ?seed:int -> ?jobs:int -> ?stats:stats -> ?engine:engine ->
  shots:int -> Circuit.t -> init:State.t -> empty:(unit -> 'acc) ->
  step:('acc -> int -> Random.State.t -> run -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) -> 'acc
(** The shot loop. The circuit is compiled once; shot [i] runs it from
    [init] with a generator derived only from [seed] and [i], and
    [step acc i rng r] folds its run [r] in, with [rng] left where the run
    stopped drawing. The shots are a {!Parallel.fold} over [jobs] workers
    (default {!default_jobs}), each starting from [empty ()], so a [merge]
    that is associative with unit [empty ()] gives the same answer at every
    [jobs]. When [stats] is given, each worker tallies its shots' branch
    events and the tallies are added into it (the same counts as
    running sequentially with [stats_hook]). Raises {!Mbu_circuit.Mbu_error.Error}
    if [shots] is negative. *)

val run_shots :
  ?seed:int -> ?jobs:int -> ?stats:stats -> ?engine:engine ->
  shots:int -> Circuit.t -> init:State.t -> run array
(** {!fold_shots} keeping every run: the runs in shot order, identical
    (states, bits, executed counts) for every [jobs]. *)

val register_value : State.t -> Register.t -> int option
(** The register's value if it is definite across the whole superposition. *)

val register_value_exn : State.t -> Register.t -> int

val wires_zero : State.t -> except:Register.t list -> bool
(** True when every wire outside the given registers is definitely |0> —
    the "all ancillas correctly uncomputed" check. *)

val sample_register :
  ?seed:int -> ?jobs:int ->
  shots:int -> Mbu_circuit.Circuit.t -> init:State.t -> Mbu_circuit.Register.t ->
  (int * int) list
(** {!fold_shots} that samples the register in the computational basis
    from each shot's final state, with the rest of that shot's generator;
    returns (value, occurrences) sorted by decreasing count (ties by
    value), the same for every [jobs]. *)

val unitary_column : Circuit.t -> int -> State.t
(** [unitary_column c j] is [U |j>] for a measurement-free circuit — column
    [j] of the circuit unitary. Raises {!Mbu_circuit.Mbu_error.Error}
    ([Invalid]) on adaptive circuits. Useful for exact unitary-equality
    tests on small widths. *)

val circuits_equal_unitary : ?dim_qubits:int -> Circuit.t -> Circuit.t -> bool
(** Exact unitary equality up to global phase, checked column by column
    (fidelity 1 on every basis input {e and} matching relative phases via a
    shared reference column). Only for measurement-free circuits of at most
    12 wires ([dim_qubits] defaults to the wider circuit); raises
    {!Mbu_circuit.Mbu_error.Error} ([Invalid]) otherwise. *)
