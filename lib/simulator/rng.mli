(** Keyed SplitMix64 streams (Steele, Lea and Flood, "Fast splittable
    pseudorandom number generators", OOPSLA 2014).

    Every draw the simulator and the fault campaigns make comes from one
    of these: a measurement outcome ({!State.draw_outcome}), a fault
    plan's sites and Paulis. A generator is one 64-bit cell, unboxed in 8
    bytes, that each draw advances by the golden gamma 0x9e3779b97f4a7c15
    and returns mixed by SplitMix64's output function, so it allocates
    nothing. The stream is this file's arithmetic alone, so every
    compiler draws the same numbers.

    A stream is keyed by (tag, seed, index): shot [i] of a seeded shot
    loop and the fault plan and measurements of campaign run [i] each get
    their own, made in a few nanoseconds and independent of every other
    shot or run. *)

type t

val make : stream:int -> seed:int -> int -> t
(** [make ~stream ~seed index] is the generator keyed by the stream tag,
    the seed and the index: the three are folded into the starting cell
    by SplitMix64's output function, a bijection of 64-bit words, one
    after the other, so neighbouring keys start at unrelated cells. *)

val of_random : Random.State.t -> t
(** A generator whose starting cell is one [Random.State.bits64] draw of
    the given state. *)

val of_state : int64 -> t
(** The generator whose cell holds the given word: its first draw is
    SplitMix64's output for the cell plus the golden gamma. From 0 the
    first three draws are 0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4 and
    0x06c45d188009454f. *)

val bits64 : t -> int64
(** The next 64-bit output. *)

val float : t -> float
(** The top 53 bits of the next output over 2{^53}: uniform on the
    multiples of 2{^-53} in \[0, 1). Called from another module that is
    compiled without cross-module inlining (dune's default profile passes
    [-opaque]), it returns the float boxed, 2 words. *)

val below : t -> float -> bool
(** [below t p] is [float t < p], the draw unboxed: it allocates nothing
    wherever it is called from. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound), by rejection over the top 62
    bits of each output, so unbiased for any bound. Raises
    {!Mbu_circuit.Mbu_error.Error} ([Invalid], subsystem ["Rng.int"])
    unless [bound] is positive. *)
