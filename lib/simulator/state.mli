(** Sparse state vectors with a phase-product fast track.

    A state over [num_qubits] wires (at most 62) is a finite map from basis
    indices to complex amplitudes; basis index bit [i] is the value of wire
    [i]. Sparsity is what makes simulating the ripple-carry circuits cheap:
    a computational-basis input stays a single basis state under X / CNOT /
    Toffoli, and the measurement-based blocks only ever put a few ancillas
    into |+> or |->.

    Internally a state rides one of two tracks. The {e product} track
    stores a product of Z-basis wires (an [int] of bits) and equatorial
    wires (|0> + e{^ 2 pi i phi}|1>)/sqrt 2, each phase phi an exact
    fixed-point turn (an [int] numerator over 2{^61}, so every
    [Phase.t] is exact and |+>, |-> are phi = 0, 1/2), plus a global
    phase held the same way and an amplitude. X, Swap, CNOT / Toffoli
    whose controls are Z-basis wires, H at phi in {0, 1/2}, and Z, Phase,
    CZ and Cphase with at most one equatorial wire are O(1) updates with
    zero allocation ({!run_slots} runs a whole stretch of them with the
    masks in locals), and measuring an equatorial wire has probability
    exactly 1/2. That covers MBU's H.U_g.H.X correction (the garbage
    qubit is only ever a target while in |->), the H-measure AND erasure,
    and the QFT of a basis state with Draper's phase adders, whose
    controls are all Z-basis wires. An operation that needs an equatorial
    wire's amplitudes — a control on it, a CZ or Cphase between two of
    them, H at any other phase, clearing it — promotes the state to the
    {e sparse} track holding the 2{^k} terms it denotes.

    The sparse track has two layouts:
    - the {e cube}, for supports that fill most of the cube over their
      active wires (the wires whose value varies across the terms): one
      entry per subset of the active wires, unboxed in two [float
      array]s, the other wires' values held once. A promotion builds it.
      Every gate runs in place: X, CNOT and Toffoli exchange entry
      pairs, Z, Phase, CZ and Cphase scale entries, H is a butterfly,
      and a projection or a cleared wire folds the cube in half and
      drops the wire. A gate on constant wires only updates their
      values, or leaves the state alone. It allocates only to grow its
      arrays;
    - the {e map}, for thin supports: the {!Reference} oracle's own hash
      table from basis index to amplitude, run by the oracle's
      rebuild-per-gate algorithms (each gate, projection and reset builds
      a new table), bit for bit.
    A cube grows (an H on a constant wire, or a CNOT or Toffoli fanning
    an active control out onto one) freely within the arrays it holds,
    and grows them only while its 2{^k} cells, k its active wires, stay
    at most 4 times its terms: they never hold more than 4 times the
    terms it had when they last grew. A gate that would break that rule,
    or a Swap of an active wire with a constant one, hands the cube's
    terms to a map, which then runs it. A map never turns back into a
    cube. {!of_alist} builds a cube when its keys fill one by the same
    rule and no amplitude is zero, and a map otherwise.

    A cube's gate writes the amplitudes the oracle computes, bit for bit,
    and H drops the negligible terms (norm at most 1e-12) the oracle's H
    drops; a zero cube entry is an absent term. A cube's projection
    scales by the inverse norm where the oracle divides by it, so the two
    may differ in an ulp. A sparse state demotes back to the product
    track as soon as its support collapses to one term.

    The [*_inplace] operations mutate the state; the same-named pure
    functions copy first and are safe to use on shared states. *)

open Mbu_circuit

type t

val num_qubits : t -> int

val basis : num_qubits:int -> int -> t
(** [basis ~num_qubits idx]: the computational basis state |idx>. More than
    62 wires raises {!Mbu_circuit.Mbu_error.Error} with
    [Resource_limit {limit = 62; actual = num_qubits}]; a negative width or
    an index out of range raises it with [Invalid]. *)

val of_alist : num_qubits:int -> (int * Complex.t) list -> t
(** Not normalized automatically. A cube when the keys fill one (see
    above) and no amplitude is zero, else a map; one term demotes to the
    product track. Raises like {!basis} on the width and on each index,
    and with [Invalid] on a repeated index. *)

val to_alist : t -> (int * Complex.t) list
(** Entries with non-negligible amplitude, sorted by basis index. *)

val num_terms : t -> int
(** The length of {!to_alist}, counted in place. *)

val support_size : t -> int
(** Number of basis terms the state holds: 2{^k} on the product track with
    k equatorial wires, the stored terms on the sparse track (the nonzero
    entries of a cube, the keys of a map: negligible amplitudes
    included, unlike {!num_terms}). O(1); the same number the oracle's
    map would hold for that state. *)

val norm : t -> float

val copy : t -> t
(** Independent deep copy; in-place operations on the copy do not affect
    the original. *)

val is_classical : t -> bool
(** True while the state is a single basis vector on the product track (no
    equatorial wire). *)

val force_sparse : t -> unit
(** Move the state to the sparse track and pin it there: it will not demote
    back to the product track even when the support is a single term.
    Used by tests and benchmarks to exercise the sparse kernel on circuits
    that would otherwise stay on the product track. A product state moves
    to the cube, a sparse one keeps its layout. Copies inherit the
    pin. *)

(** {1 The program kernel}

    A compiled program ([Sim.compile]) is three parallel int arrays [code],
    [a], [b] and a fourth, [c], one slot per instruction. The gate opcodes
    are [0] to [op_measure - 1] in [Counts] field order (X, Z, H, Phase,
    CNOT, CZ, Swap, Toffoli, Cphase), so an opcode indexes a tally
    directly. A gate slot's operands are masks and a turn
    ({!encode_gate}):
    - X, Z, H and Phase: [a = 0] and [b =] the target;
    - CNOT, Toffoli and Cphase: [a =] the controls, [b =] the target;
    - CZ and Swap: its two wires;
    - [c =] the phase of Z, Phase, CZ and Cphase in turns over 2{^61}
      (a half turn, 2{^60}, for Z and CZ), and 0 for the other gates;
    - a float array [w]: cells [2i] and [2i + 1] hold the cosine and
      sine of the angle of Phase or Cphase slot [i]'s turn, the factor
      the sparse track multiplies by. No other slot reads [w], so a
      program with neither gate may pass [[||]]. The product track reads
      the integer turn [c].

    A measurement slot is [op_measure] with [a] the qubit, [b] the bit and
    [c = 1] for a reset; a conditional is [op_if] with [a] the bit, [b = 1]
    when the guard value is true and [c] the slot one past its body. *)

val op_measure : int
val op_if : int

val tally_taken : int
(** The tally cell counting conditionals taken. *)

val tally_peak : int
(** The tally cell holding the largest {!support_size} seen just before a
    measurement. *)

val tally_promotions : int
(** The tally cell counting promotions from the product track to the
    sparse track. *)

val tally_fallbacks : int
(** The tally cell counting hand-offs of a state from the cube to a
    map. *)

val tally_size : int

val encode_gate :
  Gate.t -> code:int array -> a:int array -> b:int array -> c:int array ->
  w:float array -> int -> unit
(** [encode_gate g ~code ~a ~b ~c ~w i] writes [g] into slot [i], and a
    Phase or Cphase's factor into cells [2i] and [2i + 1] of [w]. *)

val on_product_track : t -> bool
(** Whether the state is on the product track (else on the sparse
    track). *)

val run_slots :
  t -> code:int array -> a:int array -> b:int array -> c:int array ->
  w:float array -> gates:Gate.t array -> tally:int array ->
  bits:bool array -> rng:Random.State.t -> int -> stop:int -> int
(** [run_slots s ~code ~a ~b ~c ~w ~gates ~tally ~bits ~rng i ~stop]
    runs every slot from [i] to the stop, [min stop n] for arrays of [n]
    slots, in passes on whichever track the state is on, and returns the
    stop: or the target of a conditional that jumped past it, or [i] if
    past it. [gates.(i)] is gate slot [i] as a {!Gate.t}, the program's
    own ([Sim.program] holds it): a map runs it by the oracle's
    {!Reference.apply_gate}.

    A product pass holds the state's masks in locals. A gate it cannot
    take there — a CNOT or Toffoli with a control on an equatorial wire, a
    CZ or Cphase on two equatorial wires, an H on an equatorial wire whose
    phase is not 0 or 1/2 — promotes the state to the cube, and a
    sparse pass runs on from that gate. A sparse pass ends at the first
    slot after which the state has demoted, and a product pass runs on
    from there. So every slot runs, on one track or the other.

    Neither the product pass nor a cube allocates per gate. The product
    track allocates once per state: the cells for phases below a half
    turn, made when the first such phase lands on an equatorial wire. A
    cube allocates when it promotes and when its arrays grow. A map
    builds a new hash table for every gate, projection and reset, as the
    oracle does.

    A measurement draws by {!draw_outcome}: on the product track with
    [p1 = 1/2] for an equatorial wire (nothing for a Z-basis one), on the
    sparse track with {!prob_bit_one}. It projects as {!project_inplace}
    does, normalizing an amplitude of any norm, writes the outcome into
    [bits], and clears the wire on a reset that read 1; a conditional
    reads [bits] and jumps past its body when the guard fails.

    Each slot run adds 1 to [tally.(opcode)]; a conditional taken adds 1 to
    [tally.(tally_taken)], a measurement raises [tally.(tally_peak)] to
    the support it saw, and a promotion and a hand-off from the cube to a
    map add 1 to [tally.(tally_promotions)] and
    [tally.(tally_fallbacks)]. On return the state holds every slot run,
    and nothing else. Raises [Invalid_argument] when [i] is negative or
    [tally] has fewer than [tally_size] cells, when a Phase or Cphase
    slot reaches a cube without its cells in [w] or a gate slot reaches a
    map without its gate in [gates], and as {!project_inplace} when a
    measurement's projection does. *)

val prob_bit_one : t -> int -> float
(** Probability that measuring the given wire yields 1. *)

val zero_probability : float -> bool -> bool
(** [zero_probability p1 v]: reading [v] from a wire that reads 1 with
    probability [p1] counts as impossible ([p1 <= 1e-12] for 1,
    [p1 >= 1 - 1e-12] for 0). *)

val draw_outcome : Random.State.t -> float -> bool
(** The outcome of measuring a wire that reads 1 with probability [p1]:
    the only possible one when the other has {!zero_probability}, drawing
    nothing, else [Random.State.float rng 1.0 < p1]. Every measurement
    draws by this rule: [Sim]'s and both tracks' passes. *)

val project_inplace : t -> qubit:int -> value:bool -> unit
(** Project onto the subspace where [qubit] = [value] and renormalize.
    Raises [Invalid_argument] if the outcome has zero probability. *)

val set_bit_zero : t -> qubit:int -> t
(** Clear the given wire in every basis index (used by measure-and-reset
    after projecting onto 1). The map is linear but not bijective: basis
    indices that collide once the wire is cleared have their amplitudes
    {e accumulated}. *)

val set_bit_zero_inplace : t -> qubit:int -> unit

val fidelity : t -> t -> float
(** |<a|b>| — 1 for states equal up to global phase. *)

val classical_value : t -> int option
(** [Some idx] when the state is a single basis vector (up to global phase),
    [None] otherwise. *)

val bit_value : t -> int -> bool option
(** The definite value of a wire across the whole support, if any. *)

(** The seed simulator's pure rebuild-per-gate algorithms over a hash
    table, kept verbatim (modulo the [set_bit_zero] collision fix) as the
    oracle for the backend-equivalence property tests and the "before"
    baseline of the simulator benchmark, and the sparse track's kernel
    for a map. Each call reads the state's terms into a hash table (a
    map's own table, which it never writes) and returns its result as a
    new map, on the sparse track even when one term is left. *)
module Reference : sig
  val apply_gate : t -> Gate.t -> t
  val project : t -> qubit:int -> value:bool -> t
  val set_bit_zero : t -> qubit:int -> t
end

val pp : Format.formatter -> t -> unit
