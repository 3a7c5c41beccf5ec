(** Task fan-out for the Monte-Carlo loops: blocks of tasks on [Domain]s on
    OCaml >= 5.0, one block on the calling thread on 4.14 (selected at build
    time). A fold whose tasks depend only on their index gives the same
    answer on either, at any [jobs]. *)

val backend : string
(** ["domains"] or ["sequential"], for display and benchmark metadata. *)

val default_jobs : unit -> int
(** Recommended fan-out: the domain count the runtime suggests on OCaml 5,
    1 on the sequential fallback. *)

val fold :
  ?jobs:int -> tasks:int -> init:(unit -> 'acc) -> step:('acc -> int -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) -> 'acc
(** [fold ~jobs ~tasks ~init ~step ~merge] folds [step] over the indices
    [0 .. tasks-1] with [j = max 1 (min jobs tasks)] workers ([jobs]
    defaults to {!default_jobs}; the sequential fallback runs one).
    - Worker [k] folds the contiguous indices [[k*tasks/j, (k+1)*tasks/j)]
      in increasing order, starting from its own [init ()]. [init] and
      [step] run on other domains: only the accumulator is the worker's own.
    - The workers' results merge left to right in block order, so a
      [merge] that is associative with unit [init ()] gives the sequential
      answer at every [jobs].
    - If tasks raise, the exception of the lowest failing index is
      re-raised once every worker has finished.

    Raises [Invalid_argument] if [tasks] is negative. *)
