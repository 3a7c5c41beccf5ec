(** Montgomery multiplication by a constant (REDC).

    The alternative to the compare-and-correct modular reduction used
    everywhere else in this library (and surveyed in the paper's related
    work \[Wan+24b\]): interleave the shift-and-add ladder with Montgomery
    reduction steps, so no comparator against [p] is ever needed. Each step
    adds [x_i . a], peels off the accumulator's low bit [m] (after the
    conditional [+p] the low bit is always 0, so the {e wire} itself is
    recycled as the next most-significant accumulator wire — a register
    rotation), and adds [m . (p+1)/2] to the shifted accumulator.

    The [n] peeled reduction bits are data-dependent garbage, exactly the
    kind of by-product sections 1 and 4 of the paper are about; here they
    are returned explicitly (Rines–Chuang style) so the caller can uncompute
    them with the adjoint ladder — or weigh that against the comparator-
    based designs where MBU erases the single flag for half price. *)

open Mbu_circuit

val mul_const_redc :
  Adder.style ->
  Builder.t ->
  a:int -> p:int ->
  x:Register.t -> acc:Register.t -> quotient:Register.t -> Register.t
(** [mul_const_redc style b ~a ~p ~x ~acc ~quotient] computes the
    semi-reduced Montgomery product: the returned register (a rotation of
    [acc]'s wires) holds a value [t < 2p] with
    [t = x . a . 2^(-n) mod p] (congruence), where [n = length x]. [acc]
    must have [n + 2] wires at |0>, [quotient] [n] wires at |0> (it receives
    the reduction bits), [p] odd, [0 <= a < p], [x < p]. The circuit is
    unitary for the unitary adder styles, so [Builder.emit_adjoint] undoes
    it, garbage included. A [p] that is even, not positive or not below
    [2^n], an [a] outside [\[0, p)] and a wrong [acc] or [quotient] width
    raise [Mbu_error.Error] (kind [Invalid], subsystem
    ["Montgomery.mul_const_redc"]). *)
