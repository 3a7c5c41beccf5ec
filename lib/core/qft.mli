(** Quantum Fourier transform in the "phase-encoding" convention used by
    Draper's adder (proposition 2.5).

    [apply b r] maps a basis value [|y>] of register [r] (LSB first, length
    [m]) to the product state in which qubit [i] holds
    [|0> + exp(2 i pi y / 2^{i+1}) |1>] — the paper's [|phi(y)>]. This is the
    textbook QFT up to qubit ordering, with no terminal swaps, which is the
    convention under which [Phi_ADD] acts qubit-locally.

    One loop emits every transform: H on each qubit from the top down,
    each followed by the rotations controlled by the qubits below it. The
    exact transform keeps every rotation; the approximate one drops those
    finer than its cutoff. *)

open Mbu_circuit

val apply : Builder.t -> Register.t -> unit
(** [QFT_m]. *)

val apply_inverse : Builder.t -> Register.t -> unit
(** [IQFT_m]. *)

val within : Builder.t -> Register.t -> (unit -> unit) -> unit
(** [within b r f]: {!apply} on [r], [f ()], {!apply_inverse} on [r] — the
    Fourier sandwich around every Draper adder body. *)

val apply_approx : Builder.t -> cutoff:int -> Register.t -> unit
(** Approximate QFT: controlled rotations by angles smaller than
    [2 pi / 2^cutoff] are dropped, reducing the rotation count from
    [m (m-1) / 2] to [O(m . cutoff)] at the price of an
    [O(m / 2^cutoff)]-size phase error — the standard trade applied in
    QFT-adder implementations. [cutoff >= m] reproduces the exact QFT. *)

val apply_approx_inverse : Builder.t -> cutoff:int -> Register.t -> unit
