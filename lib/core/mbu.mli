(** Measurement-based uncomputation (section 4).

    The MBU lemma (lemma 4.1, figure 24): a single-qubit garbage register
    holding [g(x)] entangled with data [sum_x a_x |x>|g(x)>] can be returned
    to |0> by measuring it in the X basis. With probability 1/2 the outcome
    is 0 and nothing more is needed; otherwise a phase [(-1)^{g(x)}] has been
    kicked onto the data and is repaired by one invocation of a self-adjoint
    oracle [U_g] (plus two Hadamards and a NOT). The expensive uncomputation
    circuit therefore runs only half the time, in expectation halving its
    cost. *)

open Mbu_circuit

val uncompute_bit : Builder.t -> garbage:Gate.qubit -> ug:(unit -> unit) -> unit
(** [uncompute_bit b ~garbage ~ug] implements figure 24. [garbage] must hold
    [g(x)]; [ug] must emit a self-adjoint circuit realizing
    [|x>|b> -> |x>|b XOR g(x)>] with [garbage] as the target wire. Afterwards
    [garbage] is |0>. The emitted program is adaptive: [ug] runs inside a
    measurement-conditioned block, so [Counts.Expected 0.5] accounts it at
    half cost, exactly the paper's "in expectation" bookkeeping. *)

val in_range :
  ?mbu:bool ->
  Adder.style ->
  Builder.t ->
  x:Register.t -> y:Register.t -> z:Register.t -> target:Gate.qubit -> unit
(** Theorem 4.13 (two-sided comparator):
    [target XOR= 1\[y < x AND x < z\]] with all three registers restored.
    With [mbu] (default true) the intermediate [1\[y < x\]] bit is erased by
    MBU, saving a quarter of the comparator cost in expectation. *)
