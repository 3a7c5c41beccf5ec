(* Telemetry-layer tests: jobs-independence of the merged per-domain
   counters, histogram bucket conservation, OpenMetrics round-tripping,
   and the bench-regression comparator.

   The registry is process-global; alcotest runs suites sequentially, so
   each test resets it and owns it for the test's duration. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_telemetry

let qtest = QCheck_alcotest.to_alcotest

let build_modadd ~n ~p =
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" n in
  let y = Builder.fresh_register b "y" n in
  Mbu_core.Mod_add.modadd ~mbu:true Mbu_core.Mod_add.spec_cdkpm b ~p ~x ~y;
  (b, x, y)

(* The deterministic slice of a snapshot: everything except latency
   buckets/sums, GC word counts and the worker pool's spawns, which
   legitimately vary run to run (and per domain layout; the pool spawns
   only when a fold asks for more workers than any before it). Shot
   outcomes are split-RNG deterministic, so these must be exactly equal at
   any [jobs]. *)
let deterministic_counters () =
  List.filter
    (fun (name, _) ->
      let is_prefix p =
        String.length name >= String.length p
        && String.sub name 0 (String.length p) = p
      in
      not
        (is_prefix "mbu_sim_run_seconds"
        || is_prefix "mbu_robustness_run_seconds"
        || is_prefix "mbu_sim_gc_"
        || is_prefix "mbu_parallel_workers_spawned"))
    (Telemetry.counters_alist ())

let workload ~seed ~jobs ~shots c ~init =
  Telemetry.reset ();
  ignore (Sim.run_shots ~seed ~jobs ~shots c ~init);
  deterministic_counters ()

let prop_jobs_independent =
  QCheck.Test.make
    ~name:"merged counters at jobs=4 equal sequential totals at jobs=1"
    ~count:25
    QCheck.(
      make
        Gen.(
          int_range 2 4 >>= fun n ->
          map3
            (fun plow seed shots ->
              (n, max 3 (((1 lsl (n - 1)) lor plow) lor 1), seed, 1 + shots))
            (int_bound ((1 lsl (n - 1)) - 1))
            (int_bound 1000) (int_bound 40))
        ~print:(fun (n, p, seed, shots) ->
          Printf.sprintf "n=%d p=%d seed=%d shots=%d" n p seed shots))
    (fun (n, p, seed, shots) ->
      let b, x, y = build_modadd ~n ~p in
      let c = Builder.to_circuit b in
      let init =
        Sim.init_registers ~num_qubits:(Builder.num_qubits b)
          [ (x, 1 mod p); (y, (p - 1) mod p) ]
      in
      let seq = workload ~seed ~jobs:1 ~shots c ~init in
      let par = workload ~seed ~jobs:4 ~shots c ~init in
      if seq <> par then
        QCheck.Test.fail_reportf "seq=%s@.par=%s"
          (String.concat "; "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) seq))
          (String.concat "; "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) par));
      (* The run counter must also reflect the shot count exactly. *)
      List.assoc "mbu_sim_runs_total" par = float_of_int shots)

let test_campaign_counters_jobs_independent () =
  let b, x, y = build_modadd ~n:3 ~p:5 in
  let spec =
    Mbu_robustness.Engine.spec_of_builder ~name:"modadd" b
      ~inits:[ (x, 2); (y, 3) ] ~keep:[ x; y ] ~expect:[ (x, 2); (y, 0) ]
  in
  let campaign jobs =
    Telemetry.reset ();
    let r =
      Mbu_robustness.Engine.run_campaign ~seed:11 ~jobs
        ~plan:(Mbu_robustness.Engine.Random { runs = 60; faults_per_run = 1 })
        spec
    in
    (r, deterministic_counters ())
  in
  let r1, seq = campaign 1 in
  let r4, par = campaign 4 in
  Alcotest.(check int) "correct jobs-independent" r1.Mbu_robustness.Engine.correct
    r4.Mbu_robustness.Engine.correct;
  Alcotest.(check bool) "telemetry jobs-independent" true (seq = par);
  Alcotest.(check (float 0.)) "runs counter = campaign runs"
    (float_of_int r4.Mbu_robustness.Engine.runs)
    (List.assoc "mbu_robustness_runs_total" par);
  Alcotest.(check (float 0.)) "outcome counters partition the runs"
    (List.assoc "mbu_robustness_runs_total" par)
    (List.assoc "mbu_robustness_correct_total" par
    +. List.assoc "mbu_robustness_detected_total" par
    +. List.assoc "mbu_robustness_silent_total" par)

(* ------------------------------------------------------------------ *)
(* Histograms *)

let prop_histogram_conserves =
  QCheck.Test.make
    ~name:"histogram bucket totals equal observation count" ~count:100
    QCheck.(list_of_size Gen.(int_bound 200) (float_bound_exclusive 10.))
    (fun obs ->
      Telemetry.reset ();
      let h = Telemetry.histogram ~base:1e-3 ~buckets:12 "test_hist_cons" in
      List.iter (Telemetry.observe h) obs;
      let n = List.length obs in
      let cum_last =
        match
          List.find_map
            (function
              | Telemetry.Histogram_sample { name = "test_hist_cons"; buckets; _ }
                ->
                  Some (snd buckets.(Array.length buckets - 1))
              | _ -> None)
            (Telemetry.snapshot ())
        with
        | Some c -> c
        | None -> -1
      in
      Telemetry.histogram_count h = n
      && cum_last = n
      && Float.abs (Telemetry.histogram_sum h -. List.fold_left ( +. ) 0. obs)
         < 1e-6 *. float_of_int (max 1 n))

let test_histogram_buckets_monotone () =
  Telemetry.reset ();
  let h = Telemetry.histogram ~base:1e-6 ~buckets:8 "test_hist_mono" in
  (* Overflow, underflow and exact bucket boundaries all land somewhere. *)
  List.iter (Telemetry.observe h)
    [ 0.; -1.; 1e-6; 2e-6; 3e-6; 1e3; Float.infinity ];
  match
    List.find_map
      (function
        | Telemetry.Histogram_sample { name = "test_hist_mono"; buckets; count; _ }
          ->
            Some (buckets, count)
        | _ -> None)
      (Telemetry.snapshot ())
  with
  | None -> Alcotest.fail "histogram sample missing"
  | Some (buckets, count) ->
      Alcotest.(check int) "count" 7 count;
      let prev = ref 0 in
      Array.iter
        (fun (_, cum) ->
          Alcotest.(check bool) "cumulative monotone" true (cum >= !prev);
          prev := cum)
        buckets;
      Alcotest.(check int) "last bucket is total" 7 !prev;
      (* 1e3 and infinity exceed every finite bound, so exactly those two
         land in the +Inf overflow bucket. *)
      let nb = Array.length buckets in
      let le_last, cum_last = buckets.(nb - 1) in
      let _, cum_prev = buckets.(nb - 2) in
      Alcotest.(check bool) "last le is +Inf" true (le_last = Float.infinity);
      Alcotest.(check int) "overflow bucket count" 2 (cum_last - cum_prev)

(* ------------------------------------------------------------------ *)
(* OpenMetrics round-trip *)

let test_openmetrics_roundtrip () =
  Telemetry.reset ();
  let c = Telemetry.counter ~help:"a counter" "test_om_counter" in
  let g = Telemetry.gauge ~help:"a gauge" "test_om_gauge" in
  let h = Telemetry.histogram ~base:1e-3 ~buckets:4 "test_om_hist" in
  Telemetry.add c 42;
  Telemetry.set_gauge g 7;
  Telemetry.set_gauge g 3;
  List.iter (Telemetry.observe h) [ 5e-4; 2e-3; 100. ];
  let text = Telemetry.to_openmetrics () in
  let samples = Telemetry.parse_openmetrics text in
  let get name =
    match List.assoc_opt name samples with
    | Some v -> v
    | None -> Alcotest.failf "sample %s missing from exposition" name
  in
  Alcotest.(check (float 0.)) "counter" 42. (get "test_om_counter_total");
  Alcotest.(check (float 0.)) "gauge current" 3. (get "test_om_gauge");
  Alcotest.(check (float 0.)) "gauge highwater" 7.
    (get "test_om_gauge_highwater");
  Alcotest.(check (float 0.)) "hist count" 3. (get "test_om_hist_count");
  Alcotest.(check (float 0.)) "hist first bucket" 1.
    (get "test_om_hist_bucket{le=\"0.001\"}");
  Alcotest.(check (float 0.)) "hist +Inf bucket" 3.
    (get "test_om_hist_bucket{le=\"+Inf\"}");
  Alcotest.(check bool) "terminated by EOF" true
    (let l = String.length text in
     l >= 6 && String.sub text (l - 6) 6 = "# EOF\n")

let test_registry_kind_mismatch () =
  Telemetry.reset ();
  let c1 = Telemetry.counter "test_reg_dup" in
  let c2 = Telemetry.counter "test_reg_dup" in
  Telemetry.incr c1;
  Telemetry.incr c2;
  (* Same name resolves to the same instrument, not a shadow copy. *)
  Alcotest.(check int) "idempotent registration" 2 (Telemetry.counter_value c1);
  Alcotest.check_raises "kind mismatch raises"
    (Invalid_argument
       "Telemetry: \"test_reg_dup\" is already registered as another kind")
    (fun () -> ignore (Telemetry.gauge "test_reg_dup"))

(* Both JSON writers print through [Json]: a label carrying a quote, a
   backslash, a newline, a tab and a raw control byte must come back byte
   for byte through the parser, end to end. [prop_json_roundtrip] covers
   the escaper itself. *)
let test_json_escape_roundtrip () =
  let label = "q\"b\\n\nt\tc\001." in
  let strings_at key j =
    match Json.member key j with
    | Some (Json.Arr items) ->
        List.filter_map
          (fun item ->
            match Json.member "name" item, Json.member "help" item with
            | Some (Json.Str name), Some (Json.Str help) ->
                Some (name ^ "|" ^ help)
            | Some (Json.Str name), _ -> Some name
            | _ -> None)
          items
    | _ -> Alcotest.failf "no %s array" key
  in
  let root =
    Trace.profile
      [ Instr.Span { label; peak_ancillas = 0; body = [ Instr.Gate (Gate.X 0) ] } ]
  in
  Alcotest.(check bool) "span label survives Trace.to_json" true
    (List.mem label
       (strings_at "traceEvents" (Json.parse (Trace.to_json root))));
  Telemetry.reset ();
  ignore (Telemetry.counter ~help:label "test_json_escape");
  Alcotest.(check bool) "help text survives Telemetry.to_json" true
    (List.mem ("test_json_escape|" ^ label)
       (strings_at "metrics" (Json.parse (Telemetry.to_json ()))));
  Alcotest.(check bool) "help text keeps OpenMetrics one sample per line"
    true
    (List.mem_assoc "test_json_escape_total"
       (Telemetry.parse_openmetrics (Telemetry.to_openmetrics ())))

(* A histogram sum prints exactly in both expositions: 0.1 + 0.2 is not
   0.3, and neither output may round it to 0.3. *)
let test_histogram_sum_exact () =
  Telemetry.reset ();
  let h = Telemetry.histogram "test_sum_exact" in
  Telemetry.observe h 0.1;
  Telemetry.observe h 0.2;
  let sum = Telemetry.histogram_sum h in
  Alcotest.(check (float 0.)) "histogram_sum" 0.30000000000000004 sum;
  let json_sum =
    match Json.member "metrics" (Json.parse (Telemetry.to_json ())) with
    | Some (Json.Arr ms) ->
        List.find_map
          (fun m ->
            match (Json.member "name" m, Json.member "sum" m) with
            | Some (Json.Str "test_sum_exact"), Some (Json.Num v) -> Some v
            | _ -> None)
          ms
    | _ -> None
  in
  Alcotest.(check (option (float 0.))) "to_json sum" (Some sum) json_sum;
  Alcotest.(check (option (float 0.))) "openmetrics _sum" (Some sum)
    (List.assoc_opt "test_sum_exact_sum"
       (Telemetry.parse_openmetrics (Telemetry.to_openmetrics ())))

(* ------------------------------------------------------------------ *)
(* Json *)

let gen_json_string =
  let open QCheck.Gen in
  let piece =
    oneof
      [ oneofl [ "\""; "\\"; "\x7f"; "\xc3\xa9"; "\xe2\x86\x92"; "\xf0\x9f\x98\x80" ];
        map (fun i -> String.make 1 (Char.chr i)) (int_range 0 0x1f);
        string_size ~gen:printable (int_range 0 6) ]
  in
  map (String.concat "") (list_size (int_range 0 6) piece)

(* Finite floats only: JSON has no NaN or infinity, and [Json] prints them
   as [null]. *)
let gen_json_float =
  let open QCheck.Gen in
  let finite f = if Float.is_finite f then f else 0. in
  oneof
    [ map float_of_int (int_range (-1_000_000) 1_000_000);
      (* integers at and above 1e15 leave the integer path *)
      map (fun (i, e) -> Float.ldexp (float_of_int i) e)
        (pair (int_range (-(1 lsl 30)) (1 lsl 30)) (int_range 20 80));
      (* subnormals of either sign *)
      map (fun b -> Int64.float_of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL)) ui64;
      map (fun b -> finite (Int64.float_of_bits b)) ui64;
      map finite float ]

let gen_json =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) gen_json_float;
        map (fun s -> Json.Str s) gen_json_string ]
  in
  let value =
    sized
    @@ fix (fun self n ->
           if n <= 1 then leaf
           else
             let items = list_size (int_range 0 4) (self (n / 3)) in
             frequency
               [ (2, leaf); (1, map (fun l -> Json.Arr l) items);
                 ( 1,
                   map (fun l -> Json.Obj l)
                     (list_size (int_range 0 4)
                        (pair gen_json_string (self (n / 3)))) ) ])
  in
  (* top-level objects with arrays inside take the multi-line layout *)
  oneof
    [ value;
      map (fun l -> Json.Obj l) (list_size (int_range 0 5) (pair gen_json_string value)) ]

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json: parse (to_string v) = v" ~count:500
    (QCheck.make gen_json ~print:Json.to_string)
    (fun v ->
      let s = Json.to_string v in
      let v' = Json.parse s in
      v' = v && Json.to_string v' = s)

(* Path of a committed baseline: [dune runtest] runs in [test/], with the
   baselines copied one level up; [dune exec] runs from the root. *)
let bench_file name =
  if Sys.file_exists (Filename.concat ".." name) then Filename.concat ".." name
  else name

(* The committed baselines are exactly what the bench writers print, so a
   fresh run diffs only where a number changed. *)
let test_bench_files_are_printer_output () =
  List.iter
    (fun name ->
      let text = In_channel.with_open_bin (bench_file name) In_channel.input_all in
      Alcotest.(check string) name text (Json.to_string (Json.parse text)))
    [ "BENCH_sim.json"; "BENCH_build.json"; "BENCH_faults.json" ]

(* The BENCH files are gated by regenerating them and diffing, so they
   may hold only what a rerun reproduces: no wall-clock, no wall-clock
   ratio and nothing that depends on the machine. *)
let test_bench_files_reproducible () =
  let contains sub s =
    let ls = String.length s and lb = String.length sub in
    let rec at i = i + lb <= ls && (String.sub s i lb = sub || at (i + 1)) in
    at 0
  in
  let banned key =
    List.exists
      (fun suffix -> String.ends_with ~suffix key)
      [ "_ms"; "_per_sec"; "_s" ]
    || contains "speedup" key
    || List.mem key [ "jobs"; "parallel_backend"; "live_words" ]
  in
  let rec keys = function
    | Json.Obj kvs -> List.concat_map (fun (k, v) -> k :: keys v) kvs
    | Json.Arr vs -> List.concat_map keys vs
    | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ -> []
  in
  let files = [ "BENCH_sim.json"; "BENCH_build.json"; "BENCH_faults.json" ] in
  let found name =
    let text = In_channel.with_open_bin (bench_file name) In_channel.input_all in
    (name, List.sort_uniq compare (List.filter banned (keys (Json.parse text))))
  in
  Alcotest.(check (list (pair string (list string))))
    "wall-clock or machine-dependent keys"
    (List.map (fun name -> (name, [])) files)
    (List.map found files)

let suite =
  ( "telemetry",
    [ qtest prop_jobs_independent;
      Alcotest.test_case "campaign counters jobs-independent" `Quick
        test_campaign_counters_jobs_independent;
      qtest prop_histogram_conserves;
      Alcotest.test_case "histogram buckets monotone" `Quick
        test_histogram_buckets_monotone;
      Alcotest.test_case "openmetrics round-trip" `Quick
        test_openmetrics_roundtrip;
      Alcotest.test_case "registry kind mismatch" `Quick
        test_registry_kind_mismatch;
      Alcotest.test_case "json escape round-trip" `Quick
        test_json_escape_roundtrip;
      Alcotest.test_case "histogram sum exact in both expositions" `Quick
        test_histogram_sum_exact;
      qtest prop_json_roundtrip;
      Alcotest.test_case "json: BENCH files are printer output" `Quick
        test_bench_files_are_printer_output;
      Alcotest.test_case "BENCH files hold only reproducible fields" `Quick
        test_bench_files_reproducible ] )
