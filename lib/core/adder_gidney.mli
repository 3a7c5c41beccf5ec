(** Gidney's temporary-logical-AND adder (proposition 2.4, figures 12--13)
    and its derived circuits.

    Each carry is computed into a fresh ancilla by one logical-AND (one
    Toffoli) and erased on the way down by measurement-based uncomputation —
    an X-basis measurement plus a probability-1/2 classically controlled CZ —
    so the adder costs [n] Toffoli and [n] ancillas. Because of the
    measurements these circuits are not invertible by [Builder.emit_adjoint];
    subtraction uses the complement identity of theorem 2.22 instead
    (see {!Adder.sub}).

    One carry ladder serves every entry: logical-AND compute blocks up the
    low positions (carry [c_(i+1)] into a fresh ancilla), a middle step on
    the top carry, then each carry erased by MBU on the way down followed
    by a per-position step. {!add} climbs [n - 1] positions, its middle
    step computes [c_n] straight into [y_n], and it descends by restoring
    [x_i] and writing [s_i]; {!add_mod} climbs [m - 1], writes the top sum
    bit with two CNOTs and descends as {!add} (at [m = 1] the ladder is
    empty); {!add_controlled} climbs all [n] positions, copies [c_n] into
    [y_n] under the control and descends by a controlled sum write;
    {!compare} and {!compare_controlled} climb all [n] between complements
    of [y], copy the top carry into the target and descend by restoring
    [x_i] and [y_i] only.

    Register conventions as in {!Adder_vbe}. *)

open Mbu_circuit

val add : Builder.t -> x:Register.t -> y:Register.t -> unit
(** Proposition 2.4: [n] Toffoli, [n] ancillas. *)

val add_controlled :
  Builder.t -> ctrl:Gate.qubit -> x:Register.t -> y:Register.t -> unit
(** Proposition 2.11: [2n + 1] Toffoli (paper quotes 2n), [n] ancillas. *)

val compare :
  Builder.t -> x:Register.t -> y:Register.t -> target:Gate.qubit -> unit
(** Proposition 2.28: [target XOR= 1\[x > y\]] with [n] Toffoli and [n]
    ancillas — the descent erases every carry by MBU, costing no Toffoli. *)

val compare_controlled :
  Builder.t ->
  ctrl:Gate.qubit -> x:Register.t -> y:Register.t -> target:Gate.qubit -> unit
(** Proposition 2.31: [target XOR= ctrl AND 1\[x > y\]], [n + 1] Toffoli. *)

val add_mod : Builder.t -> x:Register.t -> y:Register.t -> unit
(** Equal-length addition modulo [2^m] (no overflow qubit):
    [y <- (x + y) mod 2^m]. *)
