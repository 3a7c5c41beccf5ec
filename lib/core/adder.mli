(** The uniform arithmetic-circuit interface over the four adder families,
    together with the paper's generic constructions (sections 2.1--2.5):
    controlled addition by load/unload, addition/subtraction by a constant,
    subtraction via complements, and the comparator family.

    Register conventions: addition targets are [(n+1)]-qubit registers whose
    most significant qubit starts at |0> (definition 2.1); comparators take
    equal-length registers and a single target qubit.

    Classical constants are {!Mbu_bitstring.Bitstring.t}s of any length, so
    the same constructions serve a 3-qubit test and an RSA-2048-sized
    modulus. A constant must fit the register it is combined with: every
    entry point below, Draper included, raises [Mbu_error.Error] (kind
    [Invalid]) when the constant has a set bit at or above that width; its
    subsystem names the entry point that checked, e.g. ["Adder.add_const"]
    ({!compare_ge_const} and {!compare_const_via_sub} delegate the check).
    An [int] constant enters through
    [Bitstring.of_int]; convert it at a width no narrower than the value
    (62 keeps every bit of any non-negative [int]), or the conversion
    itself drops the bits the check would have caught. *)

open Mbu_circuit
open Mbu_bitstring

type style = Vbe | Cdkpm | Gidney | Draper

val all_styles : style list
val style_name : style -> string

(** {1 Plain addition and subtraction} *)

val add : style -> Builder.t -> x:Register.t -> y:Register.t -> unit
(** [y <- x + y] (definition 2.1); [length y = length x + 1]. *)

val sub : style -> Builder.t -> x:Register.t -> y:Register.t -> unit
(** [y <- y - x] modulo [2^(n+1)], in 2's complement (definition 2.21):
    the adjoint adder for the unitary families, and theorem 2.22's
    complement construction for Gidney (whose adder is not invertible,
    remark 2.23). *)

val sub_via_complement : style -> Builder.t -> x:Register.t -> y:Register.t -> unit
(** Circuit (8) of theorem 2.22 explicitly, for any style. *)

(** {1 Controlled addition (section 2.1)} *)

type controlled_impl =
  | Native  (** theorem 2.12 / proposition 2.11 / theorem 2.14 per style *)
  | Load_toffoli  (** theorem 2.9: load [c.x] with [n] Toffoli, unload with [n] more *)
  | Load_and_mbu  (** corollary 2.10: load with [n] logical-ANDs, unload by MBU *)

val add_controlled :
  ?impl:controlled_impl ->
  style -> Builder.t -> ctrl:Gate.qubit -> x:Register.t -> y:Register.t -> unit
(** [y <- y + ctrl.x] (definition 2.8). [Native] (the default) falls back to
    [Load_and_mbu] for VBE, which has no bespoke controlled adder. *)

val sub_controlled :
  style -> Builder.t -> ctrl:Gate.qubit -> x:Register.t -> y:Register.t -> unit
(** [y <- y - ctrl.x] modulo [2^(n+1)]. *)

(** {1 Arithmetic by classical constants (sections 2.2--2.3)} *)

val add_const : style -> Builder.t -> a:Bitstring.t -> y:Register.t -> unit
(** [y <- y + a] (definition 2.15, proposition 2.16 / 2.17). [y] has [n+1]
    qubits (MSB initially 0) and [a < 2^n]. *)

val sub_const : style -> Builder.t -> a:Bitstring.t -> y:Register.t -> unit
(** [y <- y - a] modulo [2^(n+1)] on the whole [(n+1)]-qubit register. *)

val add_const_controlled :
  style -> Builder.t -> ctrl:Gate.qubit -> a:Bitstring.t -> y:Register.t -> unit
(** [y <- y + ctrl.a] (definition 2.18, propositions 2.19 / 2.20). *)

val sub_const_controlled :
  style -> Builder.t -> ctrl:Gate.qubit -> a:Bitstring.t -> y:Register.t -> unit

(** {1 Comparators (section 2.5)} *)

val compare : style -> Builder.t -> x:Register.t -> y:Register.t -> target:Gate.qubit -> unit
(** [target XOR= 1\[x > y\]] (definition 2.24), native per family
    (propositions 2.26 / 2.27 / 2.28, VBE carry-chain). *)

val compare_generic :
  style -> Builder.t -> x:Register.t -> y:Register.t -> target:Gate.qubit -> unit
(** Proposition 2.25: comparator from a full subtractor and adder, for any
    style — twice the cost of the native half-subtractor comparators, kept
    for the ablation benchmarks. *)

val compare_controlled :
  style -> Builder.t ->
  ctrl:Gate.qubit -> x:Register.t -> y:Register.t -> target:Gate.qubit -> unit
(** [target XOR= ctrl AND 1\[x > y\]] (definition 2.29, propositions
    2.30 / 2.31). *)

val compare_const :
  style -> Builder.t -> a:Bitstring.t -> x:Register.t -> target:Gate.qubit -> unit
(** [target XOR= 1\[x < a\]] (definition 2.33): proposition 2.34 (load [a],
    compare) for the ripple families, proposition 2.36 for Draper.
    [a < 2^(length x)]. *)

val compare_const_via_sub :
  style -> Builder.t -> a:Bitstring.t -> x:Register.t -> target:Gate.qubit -> unit
(** Theorem 2.35: comparator by constant from a constant subtractor and a
    constant adder, reading the sign qubit in between. *)

val compare_const_controlled :
  style -> Builder.t ->
  ctrl:Gate.qubit -> a:Bitstring.t -> x:Register.t -> target:Gate.qubit -> unit
(** [target XOR= 1\[x < ctrl.a\]] (definition 2.37, theorem 2.38). *)

val compare_ge_const :
  style -> Builder.t -> a:Bitstring.t -> x:Register.t -> target:Gate.qubit -> unit
(** [target XOR= 1\[x >= a\]] — remark 2.39's postcomposed X. *)

(** {1 Constant loading helpers} *)

val load_const : Builder.t -> a:Bitstring.t -> Register.t -> unit
(** [|a|] X gates, one per set bit (used by propositions 2.16 / 2.34);
    [a < 2^(length reg)]. *)

val load_const_controlled :
  Builder.t -> ctrl:Gate.qubit -> a:Bitstring.t -> Register.t -> unit
(** [|a|] CNOTs (propositions 2.19, theorem 2.38). *)

val with_loaded :
  Builder.t -> string -> int -> load:(Register.t -> unit) -> (Register.t -> unit) -> unit
(** [with_loaded b name n ~load f] runs [load], [f] and [load] again on a
    fresh [n]-qubit ancilla register [name]: a constant loaded around [f]
    by a self-inverse load layer. *)

(** {1 Equal-length modular-[2^m] addition} *)

val add_mod : style -> Builder.t -> x:Register.t -> y:Register.t -> unit
(** [y <- (x + y) mod 2^m] on two [m]-qubit registers (no overflow qubit). *)

val add_const_mod : style -> Builder.t -> a:Bitstring.t -> y:Register.t -> unit
(** [y <- (y + a) mod 2^m] on an [m]-qubit register. *)

val add_const_mod_controlled :
  style -> Builder.t -> ctrl:Gate.qubit -> a:Bitstring.t -> y:Register.t -> unit
(** [y <- (y + ctrl.a) mod 2^m] — the conditional re-addition of the modulus
    in Takahashi's constant modular adder (proposition 3.15). *)

val sub_via_twos_complement : style -> Builder.t -> x:Register.t -> y:Register.t -> unit
(** Circuit (9) of theorem 2.22: [y <- y - x] by temporarily replacing [x]
    (zero-extended by one borrowed qubit) with its 2's complement
    ([NOT then +1], proposition A.1) and adding. The increments use the
    measurement-based ladder of {!Increment}. *)

val compare_unequal :
  style -> Builder.t -> x:Register.t -> y:Register.t -> target:Gate.qubit -> unit
(** Remark 2.32: compare registers of unequal width,
    [target XOR= 1\[x > y\]] with [length y = length x + 1], using
    [1\[x > y\] = 1\[x > y_low\] AND (NOT y_top)] — one extra Toffoli
    instead of padding [x]. *)
