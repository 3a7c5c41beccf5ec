(** The Cuccaro–Draper–Kutin–Petrie-Moulton ripple-carry adder
    (proposition 2.3, figures 6--9) and its derived circuits.

    Register conventions as in {!Adder_vbe}: [x] has [n] qubits and is
    restored; [y] has [n+1] qubits (MSB initially |0>) and receives the sum.

    One carry ladder serves every entry: MAJ up the low positions (the
    carry into position [i] rides on the [x_(i-1)] wire, [c_0] is one
    ancilla), a middle step on the top carry, then a descent. {!add} copies
    the top carry into [y_n] and descends by UMA; {!add_3cnot} descends by
    {!uma_3cnot}; {!add_controlled} copies under the control (one Toffoli)
    and descends by {!c_uma}; {!compare} and {!compare_controlled} run the
    ladder between complements of [y], copy the top carry into the target
    (a CNOT, or a Toffoli under the control) and descend by MAJ{^ †};
    {!add_mod} climbs [m - 1] positions, writes the top sum bit with two
    CNOTs and descends by UMA (at [m = 1], one CNOT and no ladder).

    Resources: 1 ancilla and [2n] Toffoli for the plain adder; 1 ancilla and
    [3n + 1] Toffoli for the controlled adder (theorem 2.12 quotes 3n); 1
    ancilla and [2n] Toffoli for the comparator (proposition 2.27). *)

open Mbu_circuit

val maj : Builder.t -> c:Gate.qubit -> y:Gate.qubit -> x:Gate.qubit -> unit
(** Figure 6: [|c, y, x> -> |c XOR x, y XOR x, maj (x, y, c)>]. *)

val uma : Builder.t -> c:Gate.qubit -> y:Gate.qubit -> x:Gate.qubit -> unit
(** Figure 7 (2-CNOT version); [maj] then [uma] on the same wires yields
    [|c, y XOR x XOR c, x>] (figure 9). *)

val uma_3cnot : Builder.t -> c:Gate.qubit -> y:Gate.qubit -> x:Gate.qubit -> unit
(** The 3-CNOT variant of figure 7 — same unitary action within the adder,
    one more CNOT but allows a shallower pipeline; provided for the depth
    ablation. *)

val c_uma :
  Builder.t ->
  ctrl:Gate.qubit -> c:Gate.qubit -> y:Gate.qubit -> x:Gate.qubit -> unit
(** Controlled unmajority (figure 16): after [maj], applies the sum to [y]
    only when [ctrl] is set, restoring [y] otherwise. Two Toffoli. *)

val add : Builder.t -> x:Register.t -> y:Register.t -> unit
(** Proposition 2.3. *)

val add_controlled :
  Builder.t -> ctrl:Gate.qubit -> x:Register.t -> y:Register.t -> unit
(** Theorem 2.12: controlled addition with a single ancilla, via C-UMA. *)

val compare :
  Builder.t -> x:Register.t -> y:Register.t -> target:Gate.qubit -> unit
(** Proposition 2.27 (figure 21): [target XOR= 1\[x > y\]] with half a
    subtractor. [x] and [y] have equal length and are restored. *)

val compare_controlled :
  Builder.t ->
  ctrl:Gate.qubit -> x:Register.t -> y:Register.t -> target:Gate.qubit -> unit
(** Proposition 2.30: [target XOR= ctrl AND 1\[x > y\]]; the copy-out CNOT
    becomes a Toffoli ([2n + 1] Toffoli total, no extra ancilla). *)

val add_mod : Builder.t -> x:Register.t -> y:Register.t -> unit
(** Equal-length addition modulo [2^m] (no overflow qubit):
    [y <- (x + y) mod 2^m]. Saves the top MAJ/UMA pair. *)

val add_3cnot : Builder.t -> x:Register.t -> y:Register.t -> unit
(** The adder with the 3-CNOT UMA variant of figure 7 — one extra CNOT per
    bit but a shorter critical path through the carry wire, kept for the
    depth ablation. *)
