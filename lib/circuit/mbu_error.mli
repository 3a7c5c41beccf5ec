(** Structured errors for the builder / simulator hot paths.

    The seed raised bare [Invalid_argument] strings everywhere, which is
    fine for a library but loses exactly the context a CLI user (or a
    fault-injection campaign classifying failures) needs: {e which} wire,
    {e which} classical bit and {e which} register. [Mbu_error.Error]
    carries that context as data; {!to_string} renders it as a one-line
    human message ([mbu-cli] prints it instead of a backtrace). *)

type kind =
  | Invalid
      (** A precondition violation: bad argument, malformed program,
          impossible request (e.g. forcing a zero-probability outcome). *)
  | Resource_limit of { limit : int; actual : int }
      (** A fixed limit was exceeded — e.g. the simulator's 62-wire cap
          in [State.basis]. *)

type t = {
  kind : kind;
  subsystem : string;  (** the raising function, e.g. ["Builder.free_ancilla"] *)
  message : string;
  qubit : int option;  (** wire index, when one is implicated *)
  bit : int option;  (** classical bit index, when one is implicated *)
  register : string option;  (** register name, when one is implicated *)
}

exception Error of t

val invalid :
  ?qubit:int -> ?bit:int -> ?register:string ->
  subsystem:string -> string -> 'a
(** Raise {!Error} with [kind = Invalid]. *)

val resource_limit :
  ?qubit:int -> ?bit:int -> ?register:string ->
  limit:int -> actual:int -> subsystem:string -> string -> 'a
(** Raise {!Error} with [kind = Resource_limit]. *)

val to_string : t -> string
(** One line, no backtrace:
    ["Builder.free_ancilla: double free [qubit 5]"]. Also installed as the
    [Printexc] printer for {!Error}. *)
