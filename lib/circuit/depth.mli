(** Circuit depth by ASAP (as-soon-as-possible) scheduling.

    Depth is computed on the dependency structure: each gate is scheduled one
    layer after the latest layer touching any of its qubits. Toffoli depth
    counts only Toffoli layers (all other gates propagate availability
    without using a layer), the standard cost model for fault-tolerant
    surface-code estimates where Toffoli/T gates dominate.

    Measurements occupy a layer on their qubit and define the classical bit;
    gates inside a conditional block additionally depend on that bit.

    Two accounting modes mirror {!Counts.mode}: [`Worst] assumes every
    conditional body runs; [`Expected p] weights the layers contributed by a
    conditional body by the probability that it runs (a linear-in-expectation
    approximation — exact expected depth of an adaptive circuit is obtained
    by Monte-Carlo over simulator runs instead, see [Sim]). *)

type r = { total : float; toffoli : float }

type mode = [ `Worst | `Expected of float ]

val of_counts_mode : Counts.mode -> mode
(** The one mapping from a counting mode to a depth mode: [Worst] is
    [`Worst], [Best] is [`Expected 0.] (conditional bodies add no layers) and
    [Expected p] is [`Expected p]. *)

val of_instrs : mode:[ `Worst | `Expected of float ] -> Instr.t list -> r
(** One walk of the expansion ([Call]s walked in full, since depth is not
    compositional), with per-wire and per-bit fronts in arrays sized by
    {!Instr.scan}: O(expanded instructions). *)

val of_circuit : mode:[ `Worst | `Expected of float ] -> Circuit.t -> r

val spans : mode -> Instr.t list -> r array
(** [spans mode instrs] scores the root and every {!Instr.Span} in one walk.
    Index 0 is [of_instrs ~mode instrs]; index [i >= 1] is the isolated
    depth of the [i]-th span in expanded pre-order ([Call]s expanded, spans
    inside conditional bodies included), equal to [of_instrs ~mode] of that
    span's body: the span's own branch weight starts at 1 and it sees no
    wire, bit or conditional outside it. The array has
    [(Instr.scan instrs).span_count + 1] entries. Every gate advances the
    fronts of each span enclosing it, so the cost is O(expanded
    instructions x span nesting). A span (or the root) whose body is
    exactly one span, through [Call]s, takes that span's score and adds
    no nesting. *)
