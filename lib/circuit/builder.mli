(** Imperative circuit builder.

    All arithmetic constructors in [mbu.core] are functions that take a
    builder plus the registers they act on and emit instructions into it.
    This makes the paper's compositional style direct: a modular adder is
    literally the sequence "plain adder; comparator; controlled subtractor;
    comparator" emitted into one builder.

    Ancilla discipline: {!alloc_ancilla} hands out a |0> wire, reusing
    previously freed ones before widening the circuit, so the final
    {!num_qubits} is the high-water mark of simultaneously live qubits —
    the quantity the paper's "ancillas"/"logical qubits" columns measure.
    {!free_ancilla} must only be called on wires that the emitted circuit
    returns to |0> (a run checks this with [Sim.wires_zero]).

    Misuse (freeing a wire that is not a live ancilla, inputs allocated
    after ancillas, unbalanced capture) raises {!Mbu_error.Error} with the
    offending wire attached.

    Emitting a gate allocates only the gate, its [Instr.Gate] box and one
    list cell: validation matches on the constructor and the innermost open
    block is a mutable list head. *)

type t

val create : unit -> t

(** {1 Allocation} *)

val fresh_qubit : t -> Gate.qubit
val fresh_register : t -> string -> int -> Register.t
val fresh_bit : t -> int

val alloc_ancilla : t -> Gate.qubit
val free_ancilla : t -> Gate.qubit -> unit
(** Returns a live ancilla to the pool. Raises {!Mbu_error.Error} (subsystem
    ["Builder.free_ancilla"], the wire attached) if the wire was never
    allocated, is an input wire, or is already free (double free). *)

val alloc_ancilla_register : t -> string -> int -> Register.t
val free_ancilla_register : t -> Register.t -> unit

val with_ancilla : t -> (Gate.qubit -> 'a) -> 'a
val with_ancilla_register : t -> string -> int -> (Register.t -> 'a) -> 'a

val num_qubits : t -> int
(** High-water mark so far. *)

val input_qubits : t -> int
(** Number of wires allocated with {!fresh_qubit} / {!fresh_register} (i.e.
    non-ancilla wires). *)

val ancilla_qubits : t -> int
(** [num_qubits - input_qubits]: peak ancilla usage. *)

(** {1 Emission} *)

val gate : t -> Gate.t -> unit
val x : t -> Gate.qubit -> unit
val z : t -> Gate.qubit -> unit
val h : t -> Gate.qubit -> unit
val phase : t -> Gate.qubit -> Phase.t -> unit
val cnot : t -> control:Gate.qubit -> target:Gate.qubit -> unit
val cz : t -> Gate.qubit -> Gate.qubit -> unit
val swap : t -> Gate.qubit -> Gate.qubit -> unit
val toffoli : t -> c1:Gate.qubit -> c2:Gate.qubit -> target:Gate.qubit -> unit
val cphase : t -> control:Gate.qubit -> target:Gate.qubit -> Phase.t -> unit

val measure : ?reset:bool -> t -> Gate.qubit -> int
(** Emits a measurement into a fresh classical bit and returns the bit.
    [reset] defaults to [false]. *)

val if_bit : ?value:bool -> t -> int -> (unit -> unit) -> unit
(** [if_bit b bit f] runs [f], collecting everything it emits into a block
    conditioned on [bit = value] ([value] defaults to [true]). *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span b label f] runs [f] and wraps everything it emits in a named
    {!Instr.Span} block. Spans are semantically transparent — counting,
    depth, optimization, serialization and simulation all treat the block as
    its body — but give {!Trace.profile} a hierarchical tree to attribute
    gates, depth and ancillas to. The span records the live-ancilla
    high-water mark reached while it was open. Nest freely; every arithmetic
    constructor in [mbu.core] opens one. *)

val with_shared : t -> string -> (unit -> 'a) -> 'a
(** Like {!with_span}, but the emitted span is interned with {!Instr.share}
    and pushed as an {!Instr.Call} reference. If a structurally identical
    block (same gates on the same wires, same label and ancilla high-water)
    was emitted before — e.g. the per-bit controlled modular adder of a
    product loop, whose LIFO ancilla reuse makes every iteration
    wire-identical — the reference points at the existing node and metric
    passes evaluate it only once. Bodies containing measurements are legal
    but never deduplicate (each measurement uses a fresh classical bit). *)

val shared : t -> (unit -> 'a) -> 'a
(** Like {!with_shared} but anonymous: the emitted instructions are interned
    and referenced with no span wrapper, so traces, counts, QASM and drawing
    are indistinguishable from inline emission — only the representation
    (and the metric memoization) changes. Use it for small repeated layers
    that are not worth a line of attribution, e.g. constant load layers.
    Emitting nothing pushes nothing. *)

val capture : t -> (unit -> 'a) -> 'a * Instr.t list
(** [capture b f] runs [f] and returns what it emitted {e without} adding it
    to the circuit. Allocation effects (fresh wires, ancilla pool) persist. *)

val emit : t -> Instr.t list -> unit

val emit_adjoint : t -> (unit -> unit) -> unit
(** [emit_adjoint b f] emits the adjoint of what [f] emits. [f] must emit a
    measurement-free sequence. This is how "use [Q_ADD]{^ †} as a subtractor"
    (theorem 2.22) is expressed. *)

val to_circuit : t -> Circuit.t
