(** The Vedral–Barenco–Ekert plain adder (proposition 2.2, figures 4 and 5).

    Conventions shared by all ripple-carry adders in this library:
    - [x] is an [n]-qubit register, unchanged by the circuit;
    - [y] is an [(n+1)]-qubit register whose most significant qubit starts in
      |0>; afterwards [y] holds the [(n+1)]-bit sum [x + y] (definition 2.1).
    This module also holds what every adder family shares: the check of
    that convention, the register complement and proposition 2.25's sign
    read.

    One carry ladder serves every entry: CARRY up the low positions, a
    middle step, then CARRY{^ †} and SUM down. {!add} climbs [n - 1]
    positions and its middle step carries into [y_n] and writes [s_(n-1)];
    {!add_mod} climbs [m - 1] and its middle step writes the top sum bit
    with two CNOTs; {!carry_chain} is the climb alone, over all [n]
    positions, and {!compare} runs it between complements and undoes it by
    its adjoint.

    Resources: [n] carry ancillas and [4n - 2] Toffoli gates (the paper
    quotes the leading term 4n). *)

open Mbu_circuit

val carry :
  Builder.t ->
  c_in:Gate.qubit -> x:Gate.qubit -> y:Gate.qubit -> c_out:Gate.qubit -> unit
(** The CARRY gate of figure 4:
    [|c, x, y, c'> -> |c, x, y XOR x, c' XOR maj (x, y, c)>]. *)

val carry_adjoint :
  Builder.t ->
  c_in:Gate.qubit -> x:Gate.qubit -> y:Gate.qubit -> c_out:Gate.qubit -> unit

val sum : Builder.t -> c_in:Gate.qubit -> x:Gate.qubit -> y:Gate.qubit -> unit
(** The SUM gate of figure 4: [|c, x, y> -> |c, x, y XOR x XOR c>]. *)

val check_add_regs : string -> x:Register.t -> y:Register.t -> unit
(** [check_add_regs name ~x ~y] raises [Invalid_argument] unless [x] is
    non-empty (["<name>: empty addend"]) and [length y = length x + 1]
    (["<name>: length y <> length x + 1"]), checked in that order. *)

val complement : Builder.t -> Register.t -> unit
(** One X on every wire of the register: [v <- NOT v]. *)

val sign_read :
  Builder.t -> target:Gate.qubit -> Register.t ->
  sub:(Register.t -> unit) -> add:(Register.t -> unit) -> unit
(** [sign_read b ~target r ~sub ~add]: [sub r], copy [r]'s most
    significant (sign) wire into [target] with one CNOT, then [add r]
    (proposition 2.25's subtract, read the sign, add back). *)

val add : Builder.t -> x:Register.t -> y:Register.t -> unit
(** Proposition 2.2. Requires [length y = length x + 1]. *)

val carry_chain :
  Builder.t -> x:Register.t -> y:Register.t -> carries:Register.t -> unit
(** Computes the full carry string of [x + y] into the [(n+1)]-qubit
    [carries] register (which must start at |0>) and leaves [y_i] holding
    [y_i XOR x_i]. This "half adder" is the building block of the VBE-style
    comparator: its top qubit is [maj]-carry [c_n]. Uncompute with
    [Builder.emit_adjoint]. *)

val compare : Builder.t -> x:Register.t -> y:Register.t -> target:Gate.qubit -> unit
(** VBE-style comparator: [target XOR= 1\[x > y\]] using a complemented carry
    chain and its adjoint ([4n] Toffoli, [n+1] ancillas). Registers of equal
    length [n]; both restored. *)

val add_mod : Builder.t -> x:Register.t -> y:Register.t -> unit
(** Equal-length addition modulo [2^m] (no overflow qubit):
    [y <- (x + y) mod 2^m]. Used by the Takahashi constant modular adder. *)
