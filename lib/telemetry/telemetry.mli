(** Process-wide metrics registry: monotonic counters, gauges with
    high-water tracking, and fixed-bucket log2-scale latency histograms.

    All instruments are safe to update concurrently from shot-runner
    domains on OCaml 5 — counter and histogram cells are striped by domain
    id and merged on read ({!Shard.stripes} stripes; one on the 4.14
    sequential fallback), gauges use a single atomic cell plus a CAS-max
    high-water mark. Registration is idempotent: asking for an existing
    name returns the existing instrument; asking for it as a different
    kind raises [Invalid_argument]. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); the time source every
    instrumented site uses, so tests can reason about one clock. *)

(** {1 Counters} *)

type counter

val counter : ?help:string -> string -> counter
val incr : counter -> unit

val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative increment: counters are
    monotonic by contract. *)

val counter_value : counter -> int
(** Merged total across all stripes. *)

(** {1 Gauges} *)

type gauge

val gauge : ?help:string -> string -> gauge

val set_gauge : gauge -> int -> unit
(** Set the current value; the high-water mark tracks the maximum ever
    set. *)

val observe_max : gauge -> int -> unit
(** Raise the high-water mark without touching the current value — for
    peaks sampled externally (e.g. sparse-state support size). *)

val gauge_value : gauge -> int
val gauge_highwater : gauge -> int

(** {1 Histograms} *)

type histogram

val histogram : ?help:string -> ?base:float -> ?buckets:int -> string -> histogram
(** Log2-scale buckets: bucket 0 covers everything [<= base], bucket [i]
    covers [(base*2^(i-1), base*2^i]], the last bucket is the +Inf
    overflow. Defaults ([base = 1e-6], [buckets = 28]) span 1 µs to ~67 s
    — the full range of per-shot and per-campaign-run latencies. *)

val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and observe its wall-clock duration in seconds, even if
    it raises. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

(** {1 Snapshots and exposition} *)

type sample =
  | Counter_sample of { name : string; help : string; value : int }
  | Gauge_sample of { name : string; help : string; value : int; highwater : int }
  | Histogram_sample of {
      name : string;
      help : string;
      count : int;
      sum : float;
      buckets : (float * int) array;
          (** [(le, cumulative count)] pairs; the last [le] is
              [infinity]. *)
    }

val snapshot : unit -> sample list
(** All registered instruments, sorted by name. Races benignly with
    concurrent updates. *)

val reset : unit -> unit
(** Zero every registered instrument (values, high-water marks, buckets).
    Instruments stay registered. Intended for tests and for giving each
    CLI invocation a clean slate. *)

val to_openmetrics : unit -> string
(** OpenMetrics text exposition: counters as [name_total], histograms as
    cumulative [name_bucket{le="..."}] plus [name_sum]/[name_count],
    gauges as [name] plus a separate [name_highwater] gauge family;
    terminated by [# EOF]. [name_sum] prints in {!Json.number}'s exact
    format; HELP text escapes backslash and newline. *)

val to_json : unit -> string
(** The same snapshot as a self-contained JSON document
    [{"metrics": [...]}], printed by {!Json.to_string}: one metric per
    line, numbers exact. *)

val counters_alist : unit -> (string * float) list
(** Flattened [(name, value)] view of the snapshot — counters as
    [name_total], gauges as [name] and [name_highwater], histograms as
    [name_count] and [name_sum]. The shape Chrome trace counter events
    want. *)

val parse_openmetrics : string -> (string * float) list
(** Minimal OpenMetrics parser for round-trip tests: returns each sample
    line as [(name-with-labels, value)] in exposition order. Fails on
    malformed lines or unknown comment forms. *)
