(** Sparse state vectors with a Z/X product fast track.

    A state over [num_qubits] wires (at most 62) is a finite map from basis
    indices to complex amplitudes; basis index bit [i] is the value of wire
    [i]. Sparsity is what makes simulating the ripple-carry circuits cheap:
    a computational-basis input stays a single basis state under X / CNOT /
    Toffoli, and the measurement-based blocks only ever put a few ancillas
    into |+> or |->.

    Internally a state rides one of two tracks. The {e product} track
    stores a product of Z-basis wires (an [int] of bits) and X-basis wires
    (a mask of wires in |+> or |-> and a mask of the |-> ones), plus a
    global-phase amplitude. X, Z, H, Swap, CZ and CNOT / Toffoli whose
    controls are Z-basis wires are O(1) mask updates with zero allocation
    ({!run_slots} runs a whole stretch of them with the masks in locals),
    and measuring an X-basis wire has probability exactly 1/2 — which
    covers MBU's H.U_g.H.X correction (the garbage qubit is only ever a
    target while in |->) and the H-measure AND erasure. An operation that
    needs an X-basis wire's amplitudes — a control on it, a [Phase] or
    [Cphase] on it, a CZ between two X-basis wires, clearing it — promotes
    the state to the {e sparse} track holding the 2{^k} terms it denotes: a
    hash table mutated in place for permutation and diagonal gates,
    double-buffered only for H. A sparse state demotes back to the product
    track as soon as its support collapses to one term. Dense states (QFT
    circuits) are still exact, just limited to small wire counts.

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
(** Not normalized automatically. Raises like {!basis} on the width and on
    each index, and with [Invalid] on a repeated index. *)

val to_alist : t -> (int * Complex.t) list
(** Entries with non-negligible amplitude, sorted by basis index. *)

val num_terms : t -> int

val support_size : t -> int
(** Number of basis terms the state holds: 2{^k} on the product track with
    k X-basis wires, the raw hash-table size on the sparse track
    (negligible amplitudes included, unlike {!num_terms}). O(1); the same
    number the sparse table would hold for that state. *)

val norm : t -> float

val copy : t -> t
(** Independent deep copy; in-place operations on the copy do not affect
    the original. *)

val is_classical : t -> bool
(** True while the state is a single basis vector on the product track (no
    X-basis wire). *)

val force_sparse : t -> unit
(** Move the state to the sparse track and pin it there: it will not demote
    back to the product track even when the support is a single term.
    Used by tests and benchmarks to exercise the sparse kernel on circuits
    that would otherwise stay on the product track. Copies inherit the
    pin. *)

val apply_gate : t -> Gate.t -> t
val apply_gate_inplace : t -> Gate.t -> unit
(** On the product track every gate but [Phase] and [Cphase] runs through
    the gate loop of {!run_slots}, as a one-slot program. *)

(** {1 The product-track program kernel}

    A compiled program ([Sim.compile]) is three parallel int arrays [code],
    [a], [b] and a fourth, [c], one slot per instruction. The gate opcodes
    are [0] to [op_measure - 1] in [Counts] field order (X, Z, H, Phase,
    CNOT, CZ, Swap, Toffoli, Cphase), so an opcode indexes a tally
    directly. A gate slot's operands are masks ({!encode_gate}):
    - X, Z, H and Phase: [a = 0] and [b =] the target;
    - CNOT, Toffoli and Cphase: [a =] the controls, [b =] the target;
    - CZ and Swap: its two wires.

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

val tally_size : int

val encode_gate :
  Gate.t -> code:int array -> a:int array -> b:int array -> int -> unit
(** [encode_gate g ~code ~a ~b i] writes [g] into slot [i]. *)

val on_product_track : t -> bool
(** Whether the state is on the product track, the only one {!run_slots}
    runs on. *)

val run_slots :
  t -> code:int array -> a:int array -> b:int array -> c:int array ->
  tally:int array -> bits:bool array -> rng:Random.State.t -> adaptive:bool ->
  int -> stop:int -> int
(** [run_slots s ~code ~a ~b ~c ~tally ~bits ~rng ~adaptive i ~stop] runs
    the slots from [i] on the product track, with the state's masks and
    sign held in locals, and returns the first slot it did not run. That is
    the first slot at or past [stop] (or the arrays' end) that it reaches,
    or the first slot it cannot take:
    - a CNOT or Toffoli with a control on an X-basis wire;
    - a CZ on two X-basis wires;
    - a [Phase] or a [Cphase];
    - unless [adaptive], any measurement or conditional;
    - a measurement while [|amp|] is not exactly 1;
    - any slot at all when the state is on the sparse track, in which case
      it returns [i] and leaves the state alone.

    When [adaptive], a measurement draws [Random.State.float rng 1.0 < 0.5]
    for an X-basis wire (nothing for a Z-basis one), projects, writes the
    outcome into [bits], and clears the wire on a reset that read 1; a
    conditional reads [bits] and jumps past its body when the guard fails.
    Without [adaptive], [rng] and [bits] are not touched.

    Each slot run adds 1 to [tally.(opcode)]; a conditional taken adds 1 to
    [tally.(tally_taken)], and a measurement raises [tally.(tally_peak)] to
    the support it saw. On return the state holds every slot run, and
    nothing else. Raises [Invalid_argument] when [i] is negative or
    [tally] has fewer than [tally_size] cells. *)

val prob_bit_one : t -> int -> float
(** Probability that measuring the given wire yields 1. *)

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

(** The seed simulator's pure rebuild-per-gate algorithms, kept verbatim
    (modulo the [set_bit_zero] collision fix) as the oracle for the
    backend-equivalence property tests and the "before" baseline of the
    simulator benchmark. Results are always on the sparse track. *)
module Reference : sig
  val apply_gate : t -> Gate.t -> t
  val project : t -> qubit:int -> value:bool -> t
  val set_bit_zero : t -> qubit:int -> t
end

val pp : Format.formatter -> t -> unit
