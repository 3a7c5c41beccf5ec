(* What every workload provides to main.exe. A workload is a closed loop
   with one client: [setup] builds what the requests share and returns the
   request function, which draws the next request from the seeded stream,
   times the calls into the library (or the CLI process) and then, outside
   the timed part, judges the outputs with the workload's own oracle. *)

type outcome = {
  kind : int;  (** which of the [cycle] request kinds *)
  units : int;  (** units of work the request attempted *)
  failed : int;  (** units the oracle rejected *)
  seconds : float;  (** timed calls only *)
}

type t = {
  name : string;
  unit_name : string;
  cycle : int;
      (** request kinds: each appears once per cycle of this many requests *)
  tail_pct : float;
      (** the percentile [latency_tail_ms] reports: the highest with at least
          ten requests beyond it in a run of this workload. It is fixed per
          workload, so that a change of throughput, which changes the number
          of requests a run holds, does not change the percentile. *)
  setup : seed:int -> unit -> outcome;
  describe : seed:int -> int -> string list;
      (** the first requests of the seeded stream, rendered without running
          them: the same seed gives the same list *)
}

(* [f ()] called [k] times, results in call order. *)
let take k f =
  let rec go i acc = if i = k then List.rev acc else go (i + 1) (f () :: acc) in
  go 0 []

(* Run one untimed request of each given kind before timing starts, so that
   caches fill and lazy initialisation finishes inside set-up. The warm-up
   requests come from their own stream, leaving the timed stream as it
   is; their units count in [warm_up_units] as attempted and failed. *)
let warm_up_units = ref (0, 0)

let warm_up exec requests =
  List.iter
    (fun r ->
      let o = exec r in
      let attempted, failed = !warm_up_units in
      warm_up_units := (attempted + o.units, failed + o.failed))
    requests

(* Run [f] on a request, counting an exception escaping the timed calls
   or the oracle as a failure of all its units. *)
let guard ~kind ~units f =
  let t0 = Util.now () in
  try f () with
  | Out_of_memory | Stack_overflow as e -> raise e
  | e ->
      prerr_endline ("perfbench: request raised " ^ Printexc.to_string e);
      { kind; units; failed = units; seconds = Util.now () -. t0 }
