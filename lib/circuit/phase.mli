(** Exact dyadic phases.

    A value of this type represents the phase angle [2 * pi * num / 2^k],
    i.e. the unitary [diag (1, exp (2 i pi num / 2^k))] when used in a phase
    gate. The QFT-based circuits of the paper (Draper adder, Beauregard
    modular adder) only ever need dyadic angles, so representing them exactly
    keeps gate counting exact (two rotations are "the same gate" iff their
    dyadic phases are equal) and keeps the simulator numerically clean. *)

type t

val zero : t

val make : num:int -> log2_den:int -> t
(** [make ~num ~log2_den] is the phase [2 pi num / 2^log2_den], normalized so
    that equal angles compare equal ([num] is reduced modulo the denominator
    and the denominator is minimal). [log2_den] must lie in [0, 61]. *)

val theta : int -> t
(** [theta k] is the paper's rotation angle [theta_k = 2 pi / 2^k] (section
    1.3, figure 3). *)

val add : t -> t -> t
val neg : t -> t
val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val num : t -> int
(** Reduced numerator, in [0, 2^log2_den). *)

val log2_den : t -> int
(** Reduced denominator exponent; [0] iff the phase is zero. *)

val to_radians : t -> float
val pp : Format.formatter -> t -> unit
