(** Adaptive circuit instructions.

    On top of unitary gates, the paper's circuits need two non-unitary
    primitives: single-qubit computational-basis measurement, and blocks of
    gates executed conditionally on a classical measurement outcome. These
    appear in Gidney's measurement-based uncomputation of the temporary
    logical-AND (figure 11) and in the MBU lemma itself (figure 24).

    Programs are hash-consed DAGs rather than trees: a [Call] node is a
    reference to an interned shared block, so a subcircuit that is emitted
    many times (the per-bit controlled modular adders of [Mod_mul], QROM
    one-hot ladders, pebbling rounds, MCX conjunction ladders) is built and
    analysed once. Every consumer treats [Call n] exactly as the inline
    expansion of [n.body]; metric passes memoize per distinct node. *)

type summary = {
  max_qubit : int;  (** largest wire index touched, or [-1] *)
  max_bit : int;  (** largest classical bit index used, or [-1] *)
  instr_count : int;  (** expanded instruction count (spans weightless) *)
  span_count : int;  (** expanded number of [Span] nodes *)
  site_count : int;
      (** expanded number of fault sites (see {!Fault}): one per wire of a
          gate, one per [Measure], one per [If_bit] plus its body *)
  unitary : bool;  (** no [Measure]/[If_bit] anywhere *)
}

type t =
  | Gate of Gate.t
  | Measure of { qubit : Gate.qubit; bit : int; reset : bool }
      (** Measure [qubit] in the computational basis, store the outcome in
          classical [bit]. If [reset], the qubit is returned to |0> after the
          measurement (an outcome-conditioned X that we do not count as a
          gate, matching the usual measure-and-reset primitive). *)
  | If_bit of { bit : int; value : bool; body : t list }
      (** Execute [body] iff classical [bit] equals [value]. *)
  | Span of { label : string; peak_ancillas : int; body : t list }
      (** A named, semantically transparent grouping of [body] — the unit of
          attribution for {!Trace} profiles. [label] names the subroutine
          that emitted the block (e.g. ["modadd.comp_p"]); [peak_ancillas]
          records the builder's live-ancilla high-water mark while the span
          was open. Spans nest, forming the hierarchical call tree of the
          circuit's construction. Every consumer (counting, depth,
          optimization, serialization, simulation) treats a span exactly as
          its body. *)
  | Call of node
      (** Reference to an interned shared block: semantically identical to
          splicing [node.body] in place. Obtain one with {!share}; never
          construct a node by hand. *)

and node = private { id : int; hkey : int; body : t list; summary : summary }
(** An interned block. [id] is a process-unique identifier (memo key for
    metric passes), [hkey] the structural hash under which the body was
    interned, [summary] the {!scan} of [body], computed once when the node
    is created. Structurally equal bodies always yield the physically same
    node while it is alive. *)

val share : t list -> t
(** [share body] interns [body] and returns a [Call] reference to its
    canonical node. Two calls with structurally equal bodies (including
    [Call] children, which compare by node identity) return the same node.
    On a miss the body's own gates are checked with [Gate.validate], so
    every node is valid by construction; raises [Invalid_argument] on an
    invalid gate. Safe to call from several domains at once. *)

val expand_calls : t list -> t list
(** Expand every [Call] back into its body, recursively — the materialized
    instruction tree the program denotes. Used as the reference
    representation in tests and benchmarks. *)

val shared_nodes : unit -> int
(** Number of interned nodes still alive. The intern set holds nodes
    weakly: a node no circuit references is reclaimed by the GC and stops
    being counted (exactly so after a [Gc.full_major]). *)

val scan : ?validate:bool -> t list -> summary
(** One fused traversal computing the whole {!summary}; when [validate] is
    set, every gate outside [Call]s is checked with [Gate.validate] in the
    same pass (nodes are valid by construction). A [Call] contributes its
    node's stored summary, so the walk never descends into shared blocks. *)

val adjoint : t list -> t list
(** Adjoint of a measurement-free instruction sequence. Spans are preserved
    (same label, adjointed body); the adjoint of a shared block is itself
    shared, each distinct block is adjointed once per call, and
    double-adjoint returns the original node (interning finds it).
    Raises [Invalid_argument] if the sequence contains [Measure] or [If_bit]
    (remark 2.23: circuits involving a measurement are generally not
    invertible). *)

val iter_gates : (Gate.t -> unit) -> t list -> unit
(** Visit every gate, including those inside conditional bodies and shared
    blocks (a block referenced [k] times is visited [k] times — this is the
    expansion semantics the simulator uses). *)

val max_qubit : t list -> int
(** Largest wire index touched, or [-1] for the empty program. *)

val max_bit : t list -> int
(** Largest classical bit index used, or [-1]. *)

val count_instrs : t list -> int
(** Total number of instructions, conditionals counted with their bodies and
    [Call]s counted as their expansion; spans are weightless. *)

val count_spans : t list -> int
(** Number of [Span] nodes anywhere in the (expanded) program. *)

val is_unitary : t list -> bool
(** [true] iff the program contains no [Measure] and no [If_bit]. *)

val strip_spans : t list -> t list
(** Erase the span structure and expand shared blocks, splicing every body
    in place. The result is gate-for-gate the same program without
    attribution markers. *)

val pp : Format.formatter -> t -> unit
