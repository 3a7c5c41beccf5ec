(** Task fan-out for the Monte-Carlo loops: blocks of tasks on a pool of
    worker [Domain]s on OCaml >= 5.0, one block on the calling thread on
    4.14 (selected at build time). A fold whose tasks depend only on their
    index gives the same answer on either, at any [jobs].

    The pool is spawned lazily: the first fold that needs [j - 1] workers
    spawns the ones missing, so the pool only grows, to the largest
    [jobs - 1] any fold has asked for (the [mbu_parallel_workers_spawned]
    counter shows it). Between folds the workers park on a condition
    variable; they are never joined, and a parked worker does not keep the
    process alive at exit. A parked worker still takes part in each minor
    collection of the process (its runtime's backup thread answers for
    it), so once a pool exists, allocation on the calling domain alone
    costs a little more per collection. *)

val backend : string
(** ["domains"] or ["sequential"], for display and benchmark metadata. *)

val default_jobs : unit -> int
(** Recommended fan-out: the domain count the runtime suggests on OCaml 5,
    1 on the sequential fallback. *)

val fold :
  ?jobs:int -> tasks:int -> init:(unit -> 'acc) -> step:('acc -> int -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) -> 'acc
(** [fold ~jobs ~tasks ~init ~step ~merge] folds [step] over the indices
    [0 .. tasks-1] in [j = max 1 (min jobs tasks)] blocks ([jobs] defaults
    to {!default_jobs}; the sequential fallback runs one).
    - Block [k] folds the contiguous indices [[k*tasks/j, (k+1)*tasks/j)]
      in increasing order, starting from its own [init ()]. Block 0 runs on
      the calling domain and block [k] on worker [k - 1], so [init] and
      [step] run on other domains: only the accumulator is the block's own.
    - A fold that finds the pool in use (one nested in a [step], or one
      started on another domain while a fold runs) runs all its blocks on
      the calling domain, in order, with the same answer.
    - The blocks' results merge left to right in block order, so a
      [merge] that is associative with unit [init ()] gives the sequential
      answer at every [jobs].
    - If tasks raise, the exception of the lowest failing index is
      re-raised once every block has finished; the pool survives it.
    - Each block adds the words it allocated on its domain to the
      [mbu_sim_gc_minor_words] and [mbu_sim_gc_major_words] counters
      ({!Gc_account.block}): two readings a block, none a task.

    Raises [Invalid_argument] if [tasks] is negative. *)
