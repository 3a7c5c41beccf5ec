(** Classical bit-string arithmetic (paper section 1.3 and appendix A).

    Bit strings are stored LSB-first: bit [i] of [x] has weight [2^i], matching
    the paper's convention [x = x_{n-1} ... x_0]. This module is the reference
    semantics against which every quantum circuit in the library is validated:
    circuits are simulated and their register contents compared with the
    functions below. *)

type t
(** An immutable bit string of fixed length. *)

(** {1 Construction and observation} *)

val length : t -> int

val get : t -> int -> bool
(** [get x i] is bit [i] (weight [2^i]). Raises [Invalid_argument] if [i] is
    out of bounds. *)

val zero : int -> t
(** [zero n] is the all-zeros string of length [n]. *)

val init : int -> (int -> bool) -> t

val of_int : width:int -> int -> t
(** [of_int ~width v] encodes the non-negative integer [v mod 2^width]
    (remark A.2). Raises [Invalid_argument] if [v < 0] or [width < 0]. *)

val to_int : t -> int
(** Unsigned value [sum_i x_i 2^i] (remark A.2). Raises [Invalid_argument] if
    the string is longer than 62 bits. *)

val to_signed_int : t -> int
(** Signed value under 2's-complement interpretation: the most significant bit
    carries weight [-2^(n-1)] (remark A.4). *)

val of_signed_int : width:int -> int -> t
(** [of_signed_int ~width v] encodes [v] in 2's complement on [width] bits
    (remark A.4). Raises [Invalid_argument] when [v] is not representable. *)

val of_string : string -> t
(** MSB-first string of ['0']/['1'] characters, as written in the paper
    ([x_{n-1} ... x_0]). Raises [Invalid_argument] on other characters. *)

val to_string : t -> string
(** MSB-first rendering. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** {1 Bit-level operations} *)

val maj : bool -> bool -> bool -> bool
(** Majority of three bits (equation (5)). *)

val carries : t -> t -> t
(** [carries x y] is the carry string [c_0 ... c_n] of [x + y] (length
    [n + 1]), defined by the recursion of definition 1.2: [c_0 = 0],
    [c_{i+1} = maj (x_i, y_i, c_i)]. Requires equal lengths. *)

val borrows : t -> t -> t
(** [borrows x y] is the borrow string [b_0 ... b_n] of [x - y] (length
    [n + 1]), per definition 1.5: [b_0 = 0],
    [b_{i+1} = maj (x_i XOR 1, y_i, b_i)]. Requires equal lengths. *)

(** {1 Arithmetic (definitions 1.2--1.5)} *)

val add : t -> t -> t
(** [add x y] is the [(n+1)]-bit sum of two [n]-bit strings (definition 1.2).
    Requires equal lengths. *)

val ones_complement : t -> t
(** Definition 1.3: flip every bit. *)

val twos_complement : t -> t
(** Definition 1.4: [ones_complement x + 1], truncated to [n] bits. *)

val sub : t -> t -> t
(** [sub x y] is the [(n+1)]-bit string [x - y] of definition 1.5. Its most
    significant bit is [1] exactly when [x < y] as unsigned integers
    (proposition A.3), and the whole string is the 2's-complement encoding of
    the signed integer [x - y] (proposition A.5). *)

val hamming_weight : t -> int
(** [|x|]: number of set bits. *)

val hamming_weight_int : int -> int
(** Hamming weight of the binary expansion of a non-negative integer. *)

(** {1 Comparisons and predicates used by the comparator circuits} *)

val lt : t -> t -> bool
(** Unsigned [x < y]. *)

val msb : t -> bool

val pad : t -> int -> t
(** [pad x n] extends [x] with zero MSBs up to length [n]. Raises
    [Invalid_argument] if [n < length x]. *)

val truncate : t -> int -> t
(** [truncate x n] keeps the [n] least significant bits. *)
