(** The circuit catalogue: one registry of every circuit family that the
    CLI, the bench, the fault campaigns and the tests build.

    A {!family} maps one set of {!args} to the emitted circuit's registers,
    their initial values and a classical oracle for the final value of
    every register. The campaign {!entry} values are the paper's Table-1
    modular adders and the two narrow-width constant modular adders
    (Oumarou–Paler–Basmadjian), each a family at a fixed style, built with
    [~mbu:true] on deterministic inputs. Families are closures: nothing is
    built until [build] is called. *)

open Mbu_circuit
open Mbu_core

type args = {
  style : Adder.style;  (** ignored by families with [styled = false] *)
  mbu : bool;
  n : int;  (** register width *)
  p : int;  (** modulus, for the modular families *)
  a : int;  (** classical constant: constant adders, comparators, [cmult] *)
  x : int;  (** first input value (the address, for [lookup]) *)
  y : int;  (** second input value, or the target's *)
}

type built = {
  registers : Register.t list;  (** every register, in allocation order *)
  inits : (Register.t * int) list;
      (** initial values (absent: 0); modular families reduce x, y mod p *)
  outputs : Register.t list;  (** the registers the circuit computes into *)
  expect : (Register.t * int) list;
      (** the classical oracle: the final value of every register of
          [registers], in order, computed from [args] without running the
          circuit. Outputs hold the result (e.g. [(x + y) mod p]); every
          other register keeps its initial value. *)
}

type family = {
  name : string;  (** CLI [-c] name, e.g. ["modadd"] *)
  styled : bool;  (** [false]: every style builds the same circuit *)
  build : Builder.t -> args -> built;
      (** allocate the registers on the builder and emit the circuit; the
          builder's own argument checks raise before the oracle runs *)
}

val families : family list
(** adder, sub, cadder, adder-const, compare, compare-const, modadd,
    modadd-mixed, modadd-vbe5, modadd-vbe4, cmodadd, modadd-const,
    takahashi, in-range, cmult, adder-cla, increment, modsub, lookup,
    cmult-windowed. *)

val family : string -> family
(** Raises [Not_found] for a name not in {!families}. *)

val spec : name:string -> Builder.t -> built -> Engine.spec
(** The campaign spec: every register kept, the oracle as [expect]. *)

(** {1 Campaign entries} *)

type entry = {
  name : string;  (** e.g. ["vbe5"] *)
  title : string;  (** table row label, e.g. ["(5 adder) VBE"] *)
  family : family;
  style : Adder.style;
  make : n:int -> p:int -> Engine.spec;  (** [~mbu:true], default inputs *)
}

val table1 : entry list
(** vbe5, vbe4, cdkpm, gidney, mixed, draper: table 1's rows in order. *)

val const_adders : entry list
(** modadd-const (CDKPM architecture), takahashi (VBE subroutines). *)

val all : entry list
val find : string -> entry option

val emit :
  ?x:int -> ?y:int -> entry -> mbu:bool -> n:int -> p:int -> Builder.t -> built
(** Build an entry on a caller's builder; [x] and [y] default to
    {!default_inputs}, the constant is {!default_constant}. *)

val default_inputs : p:int -> int * int
(** Deterministic in-range [(x, y)] with x + y >= p, so the conditional
    subtract-p path runs. *)

val default_constant : p:int -> int
(** The classical addend of the constant-adder entries. *)

val lint : Engine.spec -> Lint.report
(** Lint a catalogue spec's circuit ([input_qubits] recovered from the
    entry's register widths). *)
