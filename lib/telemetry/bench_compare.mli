(** Bench-regression gate: diff a fresh [BENCH_*.json] against a committed
    baseline with per-metric directional thresholds, render a delta table,
    and report regressions for the CLI to turn into a non-zero exit. *)

type json = Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse : string -> json

val parse_result : string -> (json, string) result
val member : string -> json -> json option

val workload : json -> string option
(** The top-level ["workload"] string, used to pair a result file with
    the experiment that regenerates it. *)

val flatten : json -> (string * float) list
(** Dotted-path numeric view of a bench document. Array elements carrying
    a ["row"]/["family"] field are keyed by that label (plus ["@<n>"]
    when an ["n"] field disambiguates repeats), so rows compare by
    identity rather than position. Booleans map to 0/1; strings are
    dropped. *)

(** {1 Threshold policy} *)

type direction =
  | Higher_worse
  | Lower_worse
  | Exact  (** deterministic metric: any change is a regression *)
  | Info  (** reported, never gates *)

type rule = { dir : direction; tol : float; abs_floor : float }

val rule_for : string -> rule
(** Policy keyed on the final path segment: [_ms] latencies gate
    higher-is-worse with a wide band and a 25 ms absolute floor,
    [_per_sec]/speedups gate lower-is-worse, fault classifications and
    gate counts gate exactly, everything else is informational. *)

(** {1 Comparison} *)

type status = Ok_within | Regressed | Improved | Informational | Missing

type delta = {
  key : string;
  baseline : float option;
  current : float option;
  rule : rule;
  status : status;
}

type report = {
  workload_name : string option;
  deltas : delta list;
  regressions : delta list;
      (** deltas with status {!Regressed} or {!Missing} — [Missing] means
          a gated baseline metric vanished from the current run. *)
}

val compare_json : baseline:json -> current:json -> report
val compare_strings : baseline:string -> current:string -> (report, string) result

val render : ?show_info:bool -> report -> string
(** Human-readable delta table plus a one-line verdict. Informational
    rows are hidden unless [show_info]. *)
