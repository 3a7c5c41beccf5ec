(** Modular adders (section 3) and their MBU-optimized variants (section 4).

    All circuits implement arithmetic modulo a classically known modulus [p]
    with [0 < p < 2^n] on [n]-qubit operands [0 <= x, y < p] (definitions
    3.1, 3.8, 3.12, 3.16). The VBE architecture is the four-stage pipeline of
    proposition 3.2 — plain add, compare with [p], conditional subtract of
    [p], and a final comparison that erases the condition bit — and the MBU
    variants (theorems 4.2--4.12) replace that final erasing comparison with
    the MBU lemma, halving its cost in expectation.

    The [mbu] flag (default [false]) selects the MBU variant everywhere.

    Three constructions underlie the adders, each written once:
    - the VBE architecture, proposition 3.2: ADD, COMP(p), C-SUB(p) and the
      erasing COMP'. {!modadd} (theorem 4.2 with MBU), {!modadd_controlled}
      (theorem 4.7) and {!modadd_const} (theorem 4.10) pass their stage 1
      (add, controlled add, add a constant) and their erasing comparator;
      {!modadd_const_controlled} (theorem 4.12) and {!reduce} reuse its
      stages 2 and 3;
    - the Beauregard skeleton, proposition 3.7 (theorem 4.6 with MBU):
      {!modadd_draper}, {!modadd_const_draper} and
      {!modadd_const_controlled_draper} (proposition 3.19) pass stage 1,
      the erasure's un-add/re-add pair and the sign read (a CNOT from the
      sum's high qubit, or a Toffoli with the control);
    - the original VBE body of table 1: {!modadd_vbe_5adder} and
      {!modadd_vbe_4adder} pass the erasure (a subtract/read/add-back
      pair, or a carry-chain comparator), followed by a NOT.

    Constants are bit strings underneath. {!modadd_big},
    {!modadd_controlled_big} and {!modadd_const_big} are the bodies of the
    three VBE-architecture adders and take {!Mbu_bitstring.Bitstring.t}
    moduli and addends of any width; {!modadd}, {!modadd_controlled} and
    {!modadd_const} are [int] wrappers over them, capped at 61 bits, that
    emit the same circuit with the same span tree. Every other constructor
    takes [int]s and converts them once at entry. Every [int]-modulus
    constructor raises [Mbu_error.Error] (kind [Invalid]) when [n] is
    outside [1, 61] or [p] outside [1, 2^n); the bodies raise it when [n]
    is not positive or [p] is zero or does not fit [n] bits. *)

open Mbu_circuit
open Mbu_bitstring

(** Which adder family implements each of the four subroutines of
    proposition 3.2 (Q_ADD, Q_COMP(p), C-Q_SUB(p), Q'_COMP). *)
type spec = {
  q_add : Adder.style;
  q_comp_const : Adder.style;
  c_q_sub_const : Adder.style;
  q_comp : Adder.style;
}

val spec_cdkpm : spec  (** proposition 3.4: [8n] Toffoli. *)

val spec_gidney : spec  (** proposition 3.5: [4n] Toffoli. *)

val spec_mixed : spec
(** Theorem 3.6 (Gidney + CDKPM): [6n] Toffoli with only [n + O(1)]
    ancillas — the paper's new space–time tradeoff point. *)

val spec_name : spec -> string

(** {1 Modular addition (definition 3.1)} *)

val modadd :
  ?mbu:bool -> spec -> Builder.t -> p:int -> x:Register.t -> y:Register.t -> unit
(** [y <- (x + y) mod p] (proposition 3.2; theorem 4.2 when [mbu]).
    [x] and [y] have equal length [n] and [p < 2^n]. *)

val modadd_vbe_5adder :
  ?mbu:bool -> Builder.t -> p:int -> x:Register.t -> y:Register.t -> unit
(** The original five-plain-adder modular adder of \[VBE96\] (table 1 row 1):
    ADD, SUB(p), conditional re-ADD(p), then an adder pair SUB(x)/ADD(x) to
    erase the condition bit. With [mbu] the erasing adder pair runs half the
    time. *)

val modadd_vbe_4adder :
  ?mbu:bool -> Builder.t -> p:int -> x:Register.t -> y:Register.t -> unit
(** Table 1 row 2: the final adder pair replaced by a single VBE carry-chain
    comparator (four plain-adder-equivalents total). *)

val modadd_draper :
  ?mbu:bool -> Builder.t -> p:int -> x:Register.t -> y:Register.t -> unit
(** Draper/Beauregard QFT modular adder (proposition 3.7; theorem 4.6 when
    [mbu]), with the adjacent QFT/IQFT pairs cancelled as in the paper:
    3 QFT + 3 IQFT + 2 Phi_ADD + 1 Phi_SUB + 1 C-Phi_SUB(p) + 1 Phi_ADD(p) +
    1 Phi_SUB(p), and in expectation 2.5 QFT + 2.5 IQFT with MBU. *)

(** {1 Controlled modular addition (definition 3.8)} *)

val modadd_controlled :
  ?mbu:bool ->
  spec -> Builder.t -> ctrl:Gate.qubit -> p:int -> x:Register.t -> y:Register.t -> unit
(** [y <- (y + ctrl.x) mod p] (propositions 3.9/3.10/3.11; theorems 4.7--4.9
    when [mbu]): only the first adder and the final comparator carry the
    control. *)

(** {1 Modular addition by a constant (definition 3.12)} *)

val modadd_const :
  ?mbu:bool -> spec -> Builder.t -> p:int -> a:int -> x:Register.t -> unit
(** [x <- (x + a) mod p] in the VBE architecture (theorem 3.14; theorem 4.10
    when [mbu]). Requires [0 <= a < p]. *)

val modadd_const_takahashi :
  ?mbu:bool -> spec -> Builder.t -> p:int -> a:int -> x:Register.t -> unit
(** Takahashi's three-stage constant modular adder (proposition 3.15;
    theorem 4.11 when [mbu]): subtract [p - a], conditionally re-add [p]
    controlled on the sign, erase the sign bit with a constant comparison.
    Uses [q_add] for the subtraction/additions and [q_comp] for the final
    comparison. *)

val modadd_const_draper :
  ?mbu:bool -> Builder.t -> p:int -> a:int -> x:Register.t -> unit
(** QFT constant modular adder in the Beauregard style. *)

(** {1 Controlled modular addition by a constant (definition 3.16)} *)

val modadd_const_controlled :
  ?mbu:bool ->
  spec -> Builder.t -> ctrl:Gate.qubit -> p:int -> a:int -> x:Register.t -> unit
(** [x <- (x + ctrl.a) mod p] (proposition 3.18; theorem 4.12 when [mbu]). *)

val modadd_const_controlled_draper :
  ?mbu:bool ->
  Builder.t -> ctrl:Gate.qubit -> p:int -> a:int -> x:Register.t -> unit
(** Beauregard's controlled QFT constant modular adder (proposition 3.19). *)

(** {1 Generic reduction (remark 3.3 flavour)} *)

val modadd_const_via_load :
  ?mbu:bool -> spec -> Builder.t -> p:int -> a:int -> x:Register.t -> unit
(** Proposition 3.13: load [a] into an ancilla register with X gates and run
    the full quantum-quantum modular adder. Costlier than theorem 3.14; kept
    for the ablation benchmarks. *)

(** {1 Modular reduction and subtraction} *)

val reduce :
  ?mbu:bool ->
  spec -> Builder.t -> p:int -> x:Register.t -> flag:Gate.qubit -> unit
(** Remark 3.3: [(n+1)]-bit [x < 2p] becomes [x mod p] (top qubit |0>), with
    [flag XOR= 1\[x >= p\]]. The flag cannot be erased without knowing the
    pre-image, so it is an explicit output; composing reduce after a plain
    addition and erasing the flag with a comparator is exactly {!modadd}
    (the remark's alternative construction). [mbu] is accepted for symmetry
    but has no conditional block to skip here. *)

val modsub :
  ?mbu:bool -> spec -> Builder.t -> p:int -> x:Register.t -> y:Register.t -> unit
(** [y <- (y - x) mod p] — the mirror of {!modadd} (comparator first, then
    conditional re-add of [p], then a plain subtraction), with the flag
    erased by the sum-vs-modulus comparison; MBU halves that erasure. *)

val modsub_const :
  ?mbu:bool -> spec -> Builder.t -> p:int -> a:int -> x:Register.t -> unit
(** [x <- (x - a) mod p], i.e. {!modadd_const} with [(p - a) mod p]. *)

val modadd_const_double_controlled_draper :
  ?mbu:bool ->
  Builder.t ->
  ctrl1:Gate.qubit -> ctrl2:Gate.qubit -> p:int -> a:int -> x:Register.t -> unit
(** Beauregard's original doubly controlled constant modular adder
    (figure 23), as used inside modular exponentiation where the two
    controls are an exponent bit and a multiplicand bit. Implemented as a
    temporary logical-AND of the controls (erased by MBU) driving
    {!modadd_const_controlled_draper}. *)

(** {1 Bit-string bodies}

    The three constructors above with the modulus and addend as bit
    strings, for cryptographic widths (RSA-2048-sized moduli). Any style
    works; a Draper stage is still capped at 61 wires by its phases. *)

val modadd_big :
  ?mbu:bool ->
  spec -> Builder.t -> p:Bitstring.t -> x:Register.t -> y:Register.t -> unit
(** {!modadd}'s body. *)

val modadd_const_big :
  ?mbu:bool ->
  spec -> Builder.t -> p:Bitstring.t -> a:Bitstring.t -> x:Register.t -> unit
(** {!modadd_const}'s body; raises [Invalid_argument] unless [a < p]. *)

val modadd_controlled_big :
  ?mbu:bool ->
  spec -> Builder.t ->
  ctrl:Gate.qubit -> p:Bitstring.t -> x:Register.t -> y:Register.t -> unit
(** {!modadd_controlled}'s body. *)
