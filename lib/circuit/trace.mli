(** Hierarchical span profiling — pprof-style resource attribution.

    Circuits built through {!Builder.with_span} carry a tree of named
    {!Instr.Span} blocks ("modadd" > "adder.add" > "and.compute" > ...).
    {!profile} walks that tree once and produces, for every span, flat and
    cumulative gate counts, depth, and the peak number of live ancillas
    recorded while the span was open — the circuit-level analogue of a
    profiler's flat/cum columns.

    Spans are weightless: the root entry's cumulative counts equal
    [Counts.of_instrs ~mode] of the same program, and stripping spans
    ({!Instr.strip_spans}) never changes any cost metric. *)

type entry = {
  label : string;
  path : string list;  (** span labels from the root down to this entry *)
  start : float;
      (** position on the weighted-instruction time axis: number of
          (branch-probability-weighted) gates and measurements emitted before
          this span opened *)
  dur : float;  (** weighted gates + measurements inside the span *)
  flat : Counts.t;
      (** gates attributed directly to this span — not inside any child span
          (conditional blocks are transparent and weight their contents by
          the branch probability of the profiling mode) *)
  cum : Counts.t;  (** flat + sum of children's [cum] *)
  peak_ancillas : int;
      (** high-water mark of live builder ancillas while the span was open *)
  total_depth : float;
      (** isolated ASAP depth of the span's body, per {!Depth.spans} *)
  toffoli_depth : float;
  calls : int;
      (** 1 for entries from {!profile}; >1 after {!render}'s sibling
          merging has collapsed repeated sub-circuits into one row *)
  children : entry list;
}

val root_label : string
(** Label of the synthetic root entry, ["(root)"]. *)

val profile : ?mode:Counts.mode -> ?span_depth:bool -> Instr.t list -> entry
(** Build the profile tree. [mode] defaults to [Counts.Expected 0.5], the
    paper's cost model for measurement-conditioned blocks. The returned root
    covers the whole program: [root.cum = Counts.of_instrs ~mode instrs].

    Shared blocks ({!Instr.Call}) are profiled once per distinct node and
    every reference reuses the memoized subtree, rebased to its own start
    time and branch weight — counts, durations and attribution are identical
    to profiling the expanded tree.

    [span_depth] (default [true]) controls the per-span isolated ASAP depth
    columns ([total_depth]/[toffoli_depth]). They come from one
    {!Depth.spans} walk of the whole expansion, which scores the root and
    every span at once: O(expanded instructions x span nesting), the one
    part of the profile that does not shrink with sharing. Isolated depth
    does not depend on context, so memoized subtrees keep their depths.
    [~span_depth:false] skips that walk and reports the two fields as [0.],
    for sweeps that only need counts and attribution.

    The walk allocates per block, not per gate: one {!Counts.acc} per span,
    conditional body and inlined shared block, plus the entries themselves.
    Each block's tally is added to its enclosing block's in the order of
    the record-building fold it replaced, so counts are bit-identical in
    every mode, [Expected 0.3] included. *)

val of_circuit : ?mode:Counts.mode -> ?span_depth:bool -> Circuit.t -> entry

val flatten : entry -> entry list
(** Pre-order listing of an entry and all its descendants. *)

val find : entry -> string -> entry option
(** First entry (pre-order) with the given label. *)

val sum_flat : entry -> Counts.t
(** Sum of [flat] over the whole tree; equals the root's [cum]. Useful as a
    conservation check: every gate is attributed to exactly one span. *)

val render : ?merge:bool -> ?max_depth:int -> entry -> string
(** Fixed-width tree table (span, calls, flat/cum Toffoli, CNOT+CZ, X,
    ancillas, Toffoli-depth, total gates). [merge] (default [true]) collapses
    same-labelled siblings into one row with a call count — without it a
    Gidney adder prints one row per bit position. A merged row sums its
    instances' counts, durations and depths (ancilla peaks take the max), so
    its depth is the serial sum of per-instance isolated depths, an upper
    bound on the depth of the instances together. [max_depth] prunes the tree
    below the given nesting level. *)

val to_json : ?counters:(string * float) list -> entry -> string
(** Chrome trace-event JSON (one ["ph":"X"] complete event per span, on the
    weighted-gate-count time axis). Loads directly into [chrome://tracing],
    Perfetto or speedscope; per-span counts ride in ["args"]. [counters]
    (e.g. [Telemetry.counters_alist ()]) are appended as counter ["ph":"C"]
    events pinned to the root span's end, overlaying runtime metrics on the
    same timeline. Numbers are exact: every [ts], [dur] and [args] number
    reads back equal to the entry's field, fractional in-expectation costs
    included. One event per line ({!Mbu_telemetry.Json.to_string}). *)
