(** Allocation accounting for {!Parallel.fold}'s blocks. *)

val block : (unit -> 'a) -> 'a
(** [block f] runs [f] and adds the words it allocated on the running
    domain to the [mbu_sim_gc_minor_words] and [mbu_sim_gc_major_words]
    counters, unless [f] raises: readings before and after, exact and
    domain-local on OCaml 5, so no word waits for a collection to be
    counted. *)
