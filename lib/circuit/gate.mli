(** The gate set used by the paper's circuits.

    Qubits are identified by non-negative integers (wire indices). The set
    covers everything appearing in figures 3--25: Pauli X/Z, Hadamard, CNOT,
    CZ, SWAP, Toffoli, and (controlled) dyadic phase rotations [C-R(theta_k)]
    for the QFT-based constructions. [S] and [T] gates are expressible as
    [Phase] gates with angles [theta_2] and [theta_3]. *)

type qubit = int

type t =
  | X of qubit
  | Z of qubit
  | H of qubit
  | Phase of qubit * Phase.t  (** [diag (1, e^{i theta})] on one qubit. *)
  | Cnot of { control : qubit; target : qubit }
  | Cz of qubit * qubit  (** Symmetric. *)
  | Swap of qubit * qubit
  | Toffoli of { c1 : qubit; c2 : qubit; target : qubit }
  | Cphase of { control : qubit; target : qubit; phase : Phase.t }
      (** The controlled rotation [C_i-R_j(theta)] of figure 3; symmetric in
          control and target. *)

val qubits : t -> qubit list
(** The distinct wires the gate touches. Builds a list: per-gate passes use
    {!arity} and {!qubit} instead. *)

val arity : t -> int
(** Number of wires the gate touches: 1, 2 or 3. *)

val qubit : t -> int -> qubit
(** [qubit g k] is the [k]-th element of [qubits g] (controls before the
    target), for [0 <= k < arity g], read off the constructor without
    allocating. Raises [Invalid_argument] for any other [k]. *)

val adjoint : t -> t
(** Every gate in the set is either self-adjoint or has its adjoint in the
    set ([Phase]/[Cphase] negate their angle). *)

val validate : t -> unit
(** Raises [Invalid_argument "Gate: negative wire"] if the gate touches a
    negative wire, otherwise [Invalid_argument "Gate: repeated wire"] if it
    reuses the same wire twice (e.g. a CNOT with control = target).
    Allocates nothing on a valid gate. *)

val is_toffoli : t -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
