(** Gate counting, with the paper's three accounting modes.

    The MBU lemma (lemma 4.1) makes gate costs random variables: each
    measurement-conditioned block executes with probability 1/2 when the
    measured qubit came from an X-basis-style measurement of a balanced
    garbage bit. The paper reports costs "in expectation" over that Bernoulli
    distribution; this module also offers worst-case (every conditional
    taken) and best-case (none taken) accounting. Counts are floats because
    expected counts are fractional (e.g. 3.5 n Toffoli for theorem 4.4). *)

type t = {
  x : float;
  z : float;
  h : float;
  phase : float;
  cnot : float;
  cz : float;
  swap : float;
  toffoli : float;
  cphase : float;
  measure : float;
}

type mode =
  | Worst  (** every conditional block executes *)
  | Best  (** no conditional block executes *)
  | Expected of float
      (** each conditional block executes with this probability,
          independently; [Expected 0.5] is the paper's cost model *)

val zero : t
val add : t -> t -> t
val scale : float -> t -> t

val of_instrs : mode:mode -> Instr.t list -> t
(** Count the gates of a program. Measurements count in [measure] only; the
    outcome-conditioned reset X of a [Measure ~reset:true] is not counted as
    a gate. The walk allocates one {!acc}, plus one [t] per distinct shared
    node in the dyadic modes: nothing per gate. *)

(** {1 Accumulators}

    A mutable tally for per-gate walks ({!of_instrs}, [Trace.profile]).
    Its fields are all floats, so adding a gate allocates nothing. Every
    operation adds to each field what the equivalent {!add}/{!scale}
    expression would, in the same order, so a walk that mirrors a
    record-building fold gets bit-identical sums. *)

type acc

val acc : float -> acc
(** [acc w]: zero counts; every gate added counts [w]. *)

val add_gate : acc -> Gate.t -> unit
(** Adds the weight to the gate's field. *)

val add_measure : acc -> unit

val add_scaled : acc -> t -> unit
(** Adds [scale w c], field by field, where [w] is the accumulator's weight. *)

val add_acc : acc -> acc -> unit
(** [add_acc a b] adds [b]'s counts to [a], unscaled. *)

val of_acc : acc -> t

val cnot_cz : t -> float
(** The paper's combined "CNOT,CZ" column of table 1. *)

val two_qubit : t -> float
(** CNOT + CZ + SWAP + controlled-phase. *)

val total_gates : t -> float

val qft_gates : int -> t
(** [qft_gates m]: gate count of a textbook [QFT_m] — [m] Hadamards and
    [m (m-1) / 2] controlled rotations (remark 1.1). Used to express
    Draper-adder costs in "QFT units" as table 1 does. *)

val qft_units : m:int -> t -> float
(** [(h + phase + cphase)] of the count, normalized by the same quantity for
    one [QFT_m]. *)

val approx_equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
