(** Draper's QFT adder (proposition 2.5, corollary 2.7) and Beauregard's
    constant variants (propositions 2.17 and 2.20).

    The "phi" entry points act on a register already mapped into the Fourier
    encoding by {!Qft.apply}: after [Qft.apply b phi_y], qubit [i] of [phi_y]
    holds [|0> + exp(2 i pi y / 2^{i+1}) |1>]. The full adders wrap them in
    QFT / IQFT pairs ({!Qft.within}). All phase angles are exact dyadic
    rationals.

    One rotation ladder, [x_j] turning qubit [i] of [phi_y] by
    [2 pi / 2^(i-j+1)] for every [j <= i] below [x]'s width, serves
    {!phi_add} ([length x + 1] targets), {!phi_add_equal} ([length x]
    targets) and {!add_approx} (rotations finer than its cutoff dropped).
    One sign read — subtract in the Fourier basis, CNOT the top wire into
    the target, add back — serves {!compare} (a padded sign wire, the
    adjoint {!phi_add} then {!phi_add}), {!compare_const} (a padded sign
    wire, {!phi_sub_const} then {!phi_add_const}) and {!compare_const_msb}
    (the register's own top wire, the same pair).

    Classical constants are {!Mbu_bitstring.Bitstring.t}s: qubit [i] turns
    by the constant's low [i+1] bits over [2^(i+1)] of a turn, so a
    constant acts modulo [2^m] on an [m]-qubit register and its higher bits
    are ignored ({!Adder} rejects a constant that does not fit). The phase
    denominators cap every constant entry point at 61 wires; a wider
    register raises [Invalid_argument]. *)

open Mbu_circuit
open Mbu_bitstring

val phi_add : Builder.t -> x:Register.t -> phi_y:Register.t -> unit
(** Proposition 2.5 ([Phi_ADD], figure 14): [|x>|phi(y)> -> |x>|phi(x+y)>].
    [phi_y] must have [length x + 1] qubits. No ancillas. *)

val phi_add_const : Builder.t -> a:Bitstring.t -> phi_y:Register.t -> unit
(** Proposition 2.17 ([Phi_ADD(a)], figure 19, equation (7)): adds the
    classical constant [a] in the Fourier basis with one single-qubit
    rotation per qubit — the paper's "partially classical QFT" (PCQFT)
    gates. [a] is taken modulo [2^m]. *)

val phi_sub_const : Builder.t -> a:Bitstring.t -> phi_y:Register.t -> unit
(** [Phi_ADD(-a)]: each rotation of {!phi_add_const} negated. *)

val c_phi_add_const :
  Builder.t -> ctrl:Gate.qubit -> a:Bitstring.t -> phi_y:Register.t -> unit
(** Proposition 2.20 ([C-Phi_ADD(a)]): every rotation gains the control. *)

val c_phi_sub_const :
  Builder.t -> ctrl:Gate.qubit -> a:Bitstring.t -> phi_y:Register.t -> unit

val c_phi_add :
  Builder.t -> ctrl:Gate.qubit -> x:Register.t -> phi_y:Register.t -> unit
(** Theorem 2.14's [C-Phi_ADD] with a single ancilla: rotations are grouped
    by their control [x_j]; each group's control is replaced by a temporary
    logical-AND of [ctrl] and [x_j], erased afterwards by MBU. Costs [n]
    Toffoli plus, in expectation, [n/2] classically controlled CZ. *)

val add : Builder.t -> x:Register.t -> y:Register.t -> unit
(** Corollary 2.7: QFT, [Phi_ADD], IQFT. Conventions as {!Adder_vbe.add}. *)

val add_controlled :
  Builder.t -> ctrl:Gate.qubit -> x:Register.t -> y:Register.t -> unit
(** Theorems 2.13 + 2.14: only the central [Phi_ADD] is controlled. *)

val add_const : Builder.t -> a:Bitstring.t -> y:Register.t -> unit
(** QFT, [Phi_ADD(a)], IQFT on an (n+1)-qubit register (MSB initially 0). *)

val add_const_controlled :
  Builder.t -> ctrl:Gate.qubit -> a:Bitstring.t -> y:Register.t -> unit

val compare :
  Builder.t -> x:Register.t -> y:Register.t -> target:Gate.qubit -> unit
(** Proposition 2.26 (Draper/Beauregard comparator):
    [target XOR= 1\[x > y\]] via [Phi_SUB]; uses one borrowed |0> qubit as
    the sign bit. [x] and [y] of equal length [n]; both restored. *)

val compare_const :
  Builder.t -> a:Bitstring.t -> x:Register.t -> target:Gate.qubit -> unit
(** Proposition 2.36: [target XOR= 1\[x < a\]]. *)

val phi_add_equal : Builder.t -> x:Register.t -> phi_y:Register.t -> unit
(** Equal-length [Phi_ADD]: both registers have [m] qubits, addition is
    modulo [2^m]. *)

val add_mod : Builder.t -> x:Register.t -> y:Register.t -> unit
(** Equal-length addition modulo [2^m]: QFT, {!phi_add_equal}, IQFT. *)

val compare_const_msb :
  Builder.t -> a:Bitstring.t -> x:Register.t -> target:Gate.qubit -> unit
(** [target XOR= 1\[x < a\]] using the register's own most significant qubit
    as the sign of [x - a] — no ancilla, so adjacent QFT/IQFT pairs cancel
    against neighbouring Fourier blocks (the composition trick of
    proposition 3.7). Only valid when [|x - a| < 2^(m-1)], which holds for
    the modular adder's sum register ([x < 2p], [a = p < 2^(m-1)]). *)

val add_approx : Builder.t -> cutoff:int -> x:Register.t -> y:Register.t -> unit
(** The Draper adder with approximate QFTs and a truncated [Phi_ADD] (all
    rotations below [2 pi / 2^cutoff] dropped): [O(n cutoff)] rotations
    instead of [O(n^2)], exact up to an [O(n / 2^cutoff)] phase error. *)
