(** Fault sites and injectable faults over the hash-consed circuit DAG.

    A fault-injection campaign needs a stable way to name "the place in the
    program where the fault strikes". Runtime gate ordinals will not do:
    which gates execute depends on the measurement outcomes (every MBU
    correction block is conditional). Instead, sites are addressed by the
    {e static expanded position} of their instruction — the index the
    instruction has in [Instr.count_instrs] order, where [Gate] / [Measure]
    / [If_bit] each occupy one slot, an [If_bit]'s body follows its slot,
    spans are weightless, and a [Call] counts as its inline expansion. The
    simulator's compiled program ([Sim.compile]) has exactly one slot per
    such position and jumps over the slots of a branch not taken, so a
    site is hit at most once per run regardless of which branches fire.

    Enumeration respects the sharing: every interned node carries its site
    count in its [Instr.summary], so finding the [k]-th site of a circuit
    whose body is a deep DAG descends one path instead of expanding the
    program. (The site
    {e space} still covers every occurrence: a block called twice
    contributes its sites twice, at different positions.)

    Three fault models, matching what can actually go wrong in the paper's
    measurement-based circuits:
    - a Pauli X / Y / Z inserted after a gate, on one of its wires — the
      standard circuit-level depolarizing model;
    - a misread measurement: the projection happens according to the true
      outcome but the {e recorded} classical bit is flipped, so every
      conditional correction keyed on it (MBU lemma 4.1, Gidney's AND
      erasure) fires wrongly;
    - a skipped conditional block: the classical controller fails to apply
      a correction that should have fired. *)

type pauli = X | Y | Z

type site =
  | Gate_site of { pos : int; gate : Gate.t; qubit : Gate.qubit }
      (** One site per (gate, touched wire) pair: position [pos], wire
          [qubit]. A Toffoli therefore contributes three sites. *)
  | Measure_site of { pos : int; qubit : Gate.qubit; bit : int }
  | Branch_site of { pos : int; bit : int; value : bool }

type t =
  | Pauli_after of { pos : int; qubit : Gate.qubit; pauli : pauli }
      (** Apply the Pauli to [qubit] immediately after the instruction at
          [pos] executes (no effect if [pos] sits in a branch not taken). *)
  | Flip_outcome of { bit : int }
      (** Record the opposite of the true outcome into classical [bit]
          (misread model: the projection itself is faithful). *)
  | Skip_block of { pos : int }
      (** Do not execute the [If_bit] at [pos] even when its guard holds. *)

val num_sites : Instr.t list -> int
(** [(Instr.scan instrs).site_count]: shared nodes contribute their stored
    count, so the cost is O(top level). *)

val site : Instr.t list -> int -> site
(** [site instrs k] is the [k]-th site in program order, found by counted
    descent (no expansion). Raises [Invalid_argument] when [k] is out of
    [0 .. num_sites - 1]. *)

val sites : Instr.t list -> site list
(** All sites in program order — the expanded enumeration; prefer
    {!site} + {!num_sites} for sampling large circuits. *)

val of_site : ?pauli:pauli -> site -> t
(** The canonical fault for a site: [Pauli_after] (default pauli [X]) for a
    gate site, [Flip_outcome] for a measurement, [Skip_block] for a
    branch. *)

val pauli_gates : pauli -> Gate.qubit -> Gate.t list
(** The gate-set realization of the Pauli, in application order ([Y] is
    [Z] then [X], equal to Y up to global phase). *)

val pauli_name : pauli -> string
val to_string : t -> string
