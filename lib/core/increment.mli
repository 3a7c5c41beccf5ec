(** Increment gates (remark 2.23's "increment by one" \[Gid15\]).

    [y <- y + 1 mod 2^m] via a prefix-AND carry ladder: carry [c_{i+1}] is
    the AND of all bits below [i+1], computed with one temporary logical-AND
    per position and erased on the way down by measurement-based
    uncomputation — [m - 2] Toffoli in total, against the [2m] of a generic
    constant adder. Decrement conjugates the increment with complements
    ([NOT (NOT v + 1) = v - 1]), which also sidesteps the non-invertibility
    of the measurement-based ladder (remark 2.23).

    One prefix-AND ladder serves both increments; they differ in its first
    ancilla carry. {!apply} starts at [c_2 = y_0 AND y_1], flips [y_1] by
    [y_0] after the ladder and [y_0] by an X; {!apply_controlled} starts at
    [c_1 = ctrl AND y_0] and flips [y_0] by a CNOT from the control. *)

open Mbu_circuit

val apply : Builder.t -> Register.t -> unit
(** [y <- y + 1 mod 2^m]. *)

val apply_decrement : Builder.t -> Register.t -> unit
(** [y <- y - 1 mod 2^m]. *)

val apply_controlled : Builder.t -> ctrl:Gate.qubit -> Register.t -> unit
(** [y <- y + ctrl mod 2^m]; [m - 1] Toffoli. *)

val apply_decrement_controlled : Builder.t -> ctrl:Gate.qubit -> Register.t -> unit
