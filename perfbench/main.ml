(* The repository benchmark program.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--cli PATH]

   Runs one workload as a closed loop with one client for S seconds and
   prints every metric by name with its unit; the last line of stdout is
   one JSON object {correct, attempted, failed, metrics}. With --trace 0
   the metrics are the end-to-end ones; with --trace 1 they are the
   per-layer ones, from a run that alternates untraced and traced request
   cycles, then probes every layer, and writes its spans as Chrome
   trace-event JSON. perfbench/run.sh builds this program and mbu-cli and
   runs it; perfbench/README.md describes the metrics. *)

open Perfbench
module J = Mbu_telemetry.Bench_compare

let workloads =
  [ Montecarlo.workload; Estimate.workload; Faults.workload; Cli.workload ]

(* {1 The request loop} *)

type sample = { cycle : int; traced : bool; outcome : Workload.outcome }

(* Every run completes at least this many cycles. *)
let min_cycles = 4

(* Requests until [seconds] have passed and [min_cycles] cycles are done;
   cycle [c] is traced when [traced c], and [completed c] is called when
   it ends. *)
let loop ?(completed = fun _ -> ()) (w : Workload.t) run ~seconds ~traced =
  let t0 = Util.now () in
  let rec go i acc =
    if i >= min_cycles * w.Workload.cycle && Util.now () -. t0 >= seconds then
      List.rev acc
    else begin
      let cycle = i / w.Workload.cycle in
      Spans.enabled := traced cycle;
      let outcome = Spans.with_req i (fun () -> Spans.span "bench.request" run) in
      if (i + 1) mod w.Workload.cycle = 0 then completed (cycle + 1);
      go (i + 1) ({ cycle; traced = traced cycle; outcome } :: acc)
    end
  in
  let samples = go 0 [] in
  Spans.enabled := false;
  samples

(* Samples of complete cycles only, so that every kind of request weighs
   the same in every run. *)
let complete (w : Workload.t) samples =
  let cycles = List.length samples / w.Workload.cycle in
  List.filter (fun s -> s.cycle < cycles) samples

(* Each kind's median latency in seconds, and the units of one request of
   that kind. *)
let kind_medians samples =
  let by_kind = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let k = s.outcome.Workload.kind in
      let seen = Option.value ~default:[] (Hashtbl.find_opt by_kind k) in
      Hashtbl.replace by_kind k (s.outcome :: seen))
    samples;
  Hashtbl.fold
    (fun _ outcomes acc ->
      let units = (List.hd outcomes).Workload.units in
      (Util.median (List.map (fun o -> o.Workload.seconds) outcomes), units) :: acc)
    by_kind []

(* Units per timed second over a cycle of median requests: one request of
   each kind, each taking its kind's median time. A slow spell that hits a
   few requests moves it little. *)
let ops_per_s samples =
  let medians = kind_medians samples in
  float_of_int (List.fold_left (fun acc (_, u) -> acc + u) 0 medians)
  /. List.fold_left (fun acc (t, _) -> acc +. t) 0. medians

(* The median over kinds of each kind's median latency, in ms: the median
   request latency of the balanced mix, without the jumps a plain median
   makes where it falls between two kinds of different cost. *)
let latency_p50_ms samples =
  Util.median (List.map (fun (t, _) -> t *. 1e3) (kind_medians samples))

(* Units attempted and failed, warm-up requests included. *)
let totals samples =
  List.fold_left
    (fun (a, f) s -> (a + s.outcome.Workload.units, f + s.outcome.Workload.failed))
    !Workload.warm_up_units samples

(* {1 Output} *)

type metric = Probes.metric = { name : string; value : float; unit : string }

let print_metric ?(note = "") m =
  Printf.printf "  %-28s %18s %-8s %s\n" m.name (Json_out.number m.value) m.unit note

let result_line ~correct ~attempted ~failed metrics =
  J.Obj
    [ ("correct", J.Bool correct); ("attempted", Json_out.int attempted);
      ("failed", Json_out.int failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun m -> (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit) ]))
             metrics) ) ]

let finish ~correct ~attempted ~failed metrics =
  print_endline (Json_out.to_string (result_line ~correct ~attempted ~failed metrics))

let header (w : Workload.t) ~seed ~seconds samples =
  let attempted, failed = totals samples in
  Printf.printf "workload %s: closed loop, one client, seed %d, %g s\n" w.Workload.name
    seed seconds;
  Printf.printf "  %d requests (%d complete cycles of %d kinds), %d %s attempted, \
                 %d failed (fail_frac %s)\n"
    (List.length samples)
    (List.length samples / w.Workload.cycle)
    w.Workload.cycle attempted w.Workload.unit_name failed
    (Json_out.number (float_of_int failed /. float_of_int (max 1 attempted)))

(* {1 End-to-end run} *)

(* Set-ups per run; setup_s is their median. *)
let setups = 5

let end_to_end (w : Workload.t) ~seed ~seconds =
  let setup_times, run =
    let rec go k times =
      let run, dt = Util.timed (fun () -> w.Workload.setup ~seed) in
      if k <= 1 then (dt :: times, run) else go (k - 1) (dt :: times)
    in
    go setups []
  in
  (* Peak memory after a fixed amount of work, not a fixed time: the high
     water mark would otherwise creep up with the number of requests a run
     happens to fit in. *)
  let rss = ref nan in
  let completed c =
    if c = min_cycles then
      rss :=
        if w.Workload.name = "cli" then Util.children_peak_rss_mb ()
        else Util.peak_rss_mb ()
  in
  let samples = loop ~completed w run ~seconds ~traced:(fun _ -> false) in
  let kept = complete w samples in
  let ops = ops_per_s samples in
  let latencies = List.map (fun s -> s.outcome.Workload.seconds *. 1e3) kept in
  let pct, beyond, tail = Util.tail ~pct:w.Workload.tail_pct latencies in
  header w ~seed ~seconds samples;
  let m name value unit = { name; value; unit } in
  let ops_m = m "ops_per_s" ops "units/s"
  and p50_m = m "latency_p50_ms" (latency_p50_ms samples) "ms"
  and tail_m = m "latency_tail_ms" tail "ms"
  and setup_m = m "setup_s" (Util.median setup_times) "s"
  and rss_m = m "peak_rss_mb" !rss "MB" in
  print_metric ops_m
    ~note:(Printf.sprintf "%s per timed second, each kind at its median" w.Workload.unit_name);
  print_metric p50_m
    ~note:(Printf.sprintf "median over %d kinds of each kind's median" w.Workload.cycle);
  print_metric tail_m
    ~note:
      (Printf.sprintf "p%g, %d of %d requests beyond it" pct beyond (List.length latencies));
  print_metric setup_m ~note:(Printf.sprintf "median of %d set-ups" setups);
  print_metric rss_m
    ~note:
      (Printf.sprintf "%s, after the set-ups and %d cycles"
         (if w.Workload.name = "cli" then "largest mbu-cli process" else "VmHWM")
         min_cycles);
  let attempted, failed = totals samples in
  finish ~correct:(failed = 0) ~attempted ~failed [ ops_m; p50_m; tail_m; setup_m; rss_m ]

(* {1 Traced run} *)

(* Per-layer metrics read from span self times: the workload's own spans
   when it makes them, otherwise the probes'. *)
let span_metrics =
  [ ("builder.emit_ms", "builder.emit"); ("builder.to_circuit_ms", "builder.to_circuit");
    ("ir.counts_ms", "ir.counts"); ("ir.depth_ms", "ir.depth");
    ("ir.profile_ms", "ir.profile"); ("engine.forced_ms", "engine.forced");
    ("lint.check_ms", "lint.check") ]

let probe_span_metrics =
  [ ("fault.run_us", "fault.classify"); ("engine.classify_us", "engine.classify_run") ]

(* Where the traced run writes its Chrome trace, relative to the checkout. *)
let trace_dir = Filename.concat "perfbench" "out"

let traced (w : Workload.t) ~seed ~seconds =
  (* Exact builder counts first, while the intern table is fresh. *)
  let builder = Probes.builder_counts ~seed in
  Spans.enabled := true;
  let run = w.Workload.setup ~seed in
  let samples = loop w run ~seconds ~traced:(fun c -> c mod 2 = 1) in
  let ops_plain = ops_per_s (List.filter (fun s -> not s.traced) samples) in
  let ops_traced = ops_per_s (List.filter (fun s -> s.traced) samples) in
  Spans.enabled := true;
  let probed =
    Spans.with_req Spans.probe_req (fun () ->
        Probes.ir_requests ~seed;
        let prepared, sim = Probes.sim ~seed in
        let parallel = Probes.parallel ~seed prepared in
        let faults = Probes.faults ~seed in
        let startup = Probes.cli_startup () in
        let overheads =
          if w.Workload.name = "cli" then !Cli.overheads else Probes.cli_overheads ~seed
        in
        sim @ parallel @ faults
        @ [ startup;
            { name = "cli.overhead_ms";
              value = (match overheads with [] -> nan | _ -> Util.median overheads *. 1e3);
              unit = "ms" } ])
  in
  Spans.enabled := false;
  let spans = Spans.all () in
  let selfs = Spans.self_times spans in
  let from_spans ~scale ~unit (name, span) =
    let own = Spans.mean_self ~keep:(fun s -> s.Spans.req <> Spans.probe_req) selfs span in
    let source, found =
      match own with
      | Some _ -> ("workload", own)
      | None -> ("probe", Spans.mean_self selfs span)
    in
    let calls, mean = Option.value ~default:(0, nan) found in
    ({ name; value = mean *. scale; unit }, Printf.sprintf "%s, %d calls" source calls)
  in
  let timed =
    List.map (from_spans ~scale:1e3 ~unit:"ms") span_metrics
    @ List.map (from_spans ~scale:1e6 ~unit:"us") probe_span_metrics
  in
  let fault_overhead =
    match (Spans.mean_self selfs "fault.classify", Spans.mean_self selfs "sim.run") with
    | Some (_, faulted), Some (_, clean) -> faulted /. clean -. 1.
    | _ -> nan
  in
  let overhead =
    { name = "trace.overhead_frac"; value = ops_traced /. ops_plain -. 1.; unit = "ratio" }
  in
  let metrics =
    builder @ List.map fst timed @ probed
    @ [ { name = "fault.overhead_frac"; value = fault_overhead; unit = "ratio" }; overhead ]
  in
  (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file =
    Filename.concat trace_dir (Printf.sprintf "trace-%s-seed%d.json" w.Workload.name seed)
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json_out.to_string (Spans.chrome_json spans)));
  header w ~seed ~seconds samples;
  Printf.printf "  %d spans written to %s; per-layer self times:\n" (List.length spans) file;
  let notes = List.map (fun (m, note) -> (m.name, note)) timed in
  List.iter
    (fun m -> print_metric m ~note:(Option.value ~default:"" (List.assoc_opt m.name notes)))
    metrics;
  let attempted, failed = totals samples in
  let correct = failed = 0 && !Probes.repeats_ok in
  if not !Probes.repeats_ok then prerr_endline "perfbench: an exact count did not repeat";
  finish ~correct ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let usage =
    "main.exe --workload (montecarlo|estimate|faults|cli) --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the request stream");
      ("--seconds", Arg.Set_float seconds, "S length of the request loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--cli", Arg.Set_string Cli.exe, "PATH the mbu-cli binary for the cli workload") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun w -> w.Workload.name = !workload) workloads with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  | Some w ->
      if !trace = 1 then traced w ~seed:!seed ~seconds:!seconds
      else end_to_end w ~seed:!seed ~seconds:!seconds
