(** Modular multiplication and exponentiation (the paper's stated
    application / future work, section 1.1): Beauregard-style circuits built
    entirely from the controlled constant modular adders of section 3.3, so
    every MBU saving in those adders compounds here.

    The construction is the standard shift-and-add one: with
    [a_i = a 2^i mod p],

      [t <- t + c.a.x mod p]  =  for each bit [x_i], a doubly controlled
      [MODADD_p(a_i)], where the double control [c AND x_i] is held in a
      temporary logical-AND ancilla erased by MBU;

    and in-place multiplication conjugates that with a controlled swap and
    the inverse multiplication by [a^{-1} mod p] (requires [gcd(a,p) = 1]).
    Modular exponentiation applies one in-place controlled multiplication
    per exponent bit.

    Each of these is written once: one doubling loop gives every
    multiplier its constants [a 2^i mod p]; one in-place multiplier
    (multiply into a fresh register, swap it with [x], clear it with
    [-a^{-1}]) serves {!cmult_inplace}, {!mult_inplace} and the rounds of
    {!modexp_windowed}, which pass their multiply-accumulate and their
    swap, controlled or plain; and one ladder serves {!modexp} and
    {!modexp_windowed}.

    Every entry checks its inputs before it emits anything and raises
    [Mbu_error.Error] (kind [Invalid], its own name as the subsystem) when
    [x] and [target] differ in length, when [n] is outside [1, 61] or [p]
    outside [1, 2^n), when an in-place multiplier or a ladder is given an
    [a] not coprime to [p], and when a ladder's [p] is not below [2^31]
    (squaring [a] must not overflow). *)

open Mbu_circuit

(** The controlled constant modular adder the multiplier is built from. *)
type engine

val ripple_engine : ?mbu:bool -> Mod_add.spec -> engine
(** Proposition 3.18 (theorem 4.12 with [mbu]) with the given subroutines. *)

val draper_engine : ?mbu:bool -> unit -> engine
(** Beauregard's QFT adder (proposition 3.19). *)

val engine_name : engine -> string

val modinv : a:int -> p:int -> int
(** Modular inverse by extended Euclid. Raises [Invalid_argument] when
    [gcd (a, p) <> 1]. *)

val cmult_add :
  engine -> Builder.t ->
  ctrl:Gate.qubit -> a:int -> p:int -> x:Register.t -> target:Register.t -> unit
(** [target <- (target + ctrl.a.x) mod p]. [x] and [target] have equal
    length [n], [p < 2^n], [target < p]; [x] is read-only. *)

val cmult_sub :
  engine -> Builder.t ->
  ctrl:Gate.qubit -> a:int -> p:int -> x:Register.t -> target:Register.t -> unit
(** [target <- (target - ctrl.a.x) mod p] (adds the modular negations). *)

val cmult_inplace :
  engine -> Builder.t -> ctrl:Gate.qubit -> a:int -> p:int -> x:Register.t -> unit
(** [x <- ctrl ? (a.x mod p) : x]; requires [gcd (a, p) = 1] and [x < p]. *)

val modexp :
  engine -> Builder.t -> a:int -> p:int -> e:Register.t -> x:Register.t -> unit
(** [x <- (x . a^e) mod p] — the Shor-style modular exponentiation ladder:
    one {!cmult_inplace} by [a^{2^j} mod p] per exponent bit [e_j].
    Requires [gcd (a, p) = 1] and [x < p]. *)

(** {1 Windowed multiplication (Gidney, "Windowed quantum arithmetic")}

    Instead of one controlled constant modular addition per multiplier bit,
    process [window] bits at a time: look up [u . a . 2^(w i) mod p] for the
    window value [u] from a QROM table (with the control folded in as an
    extra address bit), add the looked-up register with one quantum-quantum
    modular addition, and erase the table entry with the measurement-based
    unlookup. MBU thus enters twice: in the unlookup and in the modular
    adder's own comparator. *)

val cmult_add_windowed :
  ?window:int ->
  ?mbu:bool ->
  Mod_add.spec ->
  Builder.t ->
  ctrl:Gate.qubit -> a:int -> p:int -> x:Register.t -> target:Register.t -> unit
(** [target <- (target + ctrl.a.x) mod p]; [window] defaults to 2 and must
    divide into [length x] greedily (a final smaller window is used for the
    remainder). *)

(** {1 Uncontrolled and register-register multiplication} *)

val mult_add :
  engine -> Builder.t -> a:int -> p:int -> x:Register.t -> target:Register.t -> unit
(** [target <- (target + a.x) mod p]: one controlled constant modular adder
    per multiplier bit, the bit itself being the control. *)

val mult_inplace : engine -> Builder.t -> a:int -> p:int -> x:Register.t -> unit
(** [x <- a.x mod p]; requires [gcd (a, p) = 1] and [x < p]. *)

val mul_register :
  engine -> Builder.t ->
  x:Register.t -> y:Register.t -> p:int -> target:Register.t -> unit
(** Fully quantum multiply-accumulate
    [target <- (target + x.y) mod p]: a doubly controlled constant modular
    adder of [2^{i+j} mod p] per bit pair [(x_i, y_j)], the double control
    held in a logical-AND ancilla erased by MBU — the building block of
    elliptic-curve-style cryptanalysis circuits. *)

val square_register :
  engine -> Builder.t -> x:Register.t -> p:int -> target:Register.t -> unit
(** [target <- (target + x^2) mod p]: the register-register multiplier with
    both operands the same register — the diagonal terms need only a single
    control. *)

val modexp_windowed :
  ?window:int ->
  Mod_add.spec -> Builder.t -> a:int -> p:int -> e:Register.t -> x:Register.t -> unit
(** {!modexp} with each controlled multiplication's ladder replaced by the
    windowed QROM form of {!cmult_add_windowed}. *)
