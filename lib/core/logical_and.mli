(** Gidney's temporary logical-AND (figures 10 and 11).

    [compute] writes [c1 AND c2] into a fresh |0> ancilla; at the abstraction
    level of the paper this costs one Toffoli ("we consider each temporary
    logical-AND gate implemented using a Tof gate"). [uncompute] erases it
    {e without} a Toffoli: an X-basis measurement (H + computational-basis
    measure-and-reset) followed, on outcome 1, by a classically controlled CZ
    on the two control wires — the measurement-based uncomputation at the
    heart of the paper. The CZ therefore executes with probability 1/2. *)

open Mbu_circuit

val compute : Builder.t -> c1:Gate.qubit -> c2:Gate.qubit -> target:Gate.qubit -> unit
(** [target] must be |0>; afterwards it holds [c1 AND c2]. *)

val uncompute : Builder.t -> c1:Gate.qubit -> c2:Gate.qubit -> target:Gate.qubit -> unit
(** [target] must hold [c1 AND c2] (with the same [c1], [c2] values as at
    compute time); afterwards it is |0>. *)

val within :
  Builder.t -> c1:Gate.qubit -> c2:Gate.qubit -> target:Gate.qubit ->
  (unit -> unit) -> unit
(** [within b ~c1 ~c2 ~target f]: {!compute} into [target], [f ()] (which
    may use [target] as a control but must leave it holding the AND), then
    {!uncompute}: how a doubly controlled operation runs under one
    control. *)
