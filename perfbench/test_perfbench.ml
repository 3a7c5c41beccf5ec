(* The benchmark's own test: its JSON output round-trips through the
   repository's parser, its statistics are the ones it documents, and its
   request streams are seeded (same seed, same requests; another seed,
   other requests). Nothing here runs a workload. *)

open Perfbench
module J = Mbu_telemetry.Bench_compare

let check name cond = if not cond then failwith ("perfbench test failed: " ^ name)

let roundtrip () =
  let doc =
    J.Obj
      [ ("correct", J.Bool true); ("attempted", Json_out.int 1000);
        ("failed", Json_out.int 0);
        ( "metrics",
          J.Obj
            [ ("latency_ms", J.Obj [ ("value", J.Num 1.2034); ("unit", J.Str "ms") ]);
              ("tiny", J.Obj [ ("value", J.Num 1e-7); ("unit", J.Str "s") ]);
              ("third", J.Obj [ ("value", J.Num (1. /. 3.)); ("unit", J.Str "1/s") ]) ] );
        ("text", J.Str "quote \" slash \\ newline \n tab \t");
        ("list", J.Arr [ J.Null; J.Num (-2.); J.Arr [] ]) ]
  in
  check "round trip" (J.parse (Json_out.to_string doc) = doc);
  check "one line" (not (String.contains (Json_out.to_string doc) '\n'));
  check "non-finite as null" (Json_out.number infinity = "null");
  let spans =
    [ { Spans.id = 0; name = "bench.request"; parent = -1; req = 0; start = 1.; stop = 1.5 };
      { Spans.id = 1; name = "ir.counts"; parent = 0; req = 0; start = 1.1; stop = 1.2 } ]
  in
  check "chrome trace parses"
    (match J.member "traceEvents" (J.parse (Json_out.to_string (Spans.chrome_json spans))) with
    | Some (J.Arr [ _; _ ]) -> true
    | _ -> false);
  let selfs = Spans.self_times spans in
  check "self time"
    (match Spans.mean_self selfs "bench.request" with
    | Some (1, t) -> Float.abs (t -. 0.4) < 1e-9
    | _ -> false)

let statistics () =
  let xs = List.init 1000 (fun i -> float_of_int (i + 1)) in
  check "median" (Util.median xs = 500.5 && Util.median [ 3.; 1.; 2. ] = 2.);
  let pct, beyond, v = Util.tail ~pct:99. xs in
  check "tail p99 at 1000 samples" (pct = 99. && beyond = 10 && v = 990.);
  let pct, beyond, _ = Util.tail ~pct:99. (List.init 100 float_of_int) in
  check "tail falls back to p90 at 100 samples" (pct = 90. && beyond = 10)

let seeding () =
  List.iter
    (fun (w : Workload.t) ->
      let requests seed = w.Workload.describe ~seed (3 * w.Workload.cycle) in
      check (w.Workload.name ^ " same seed") (requests 7 = requests 7);
      check (w.Workload.name ^ " other seed") (requests 7 <> requests 8))
    [ Montecarlo.workload; Estimate.workload; Faults.workload; Cli.workload ]

let () =
  roundtrip ();
  statistics ();
  seeding ();
  print_endline "perfbench: json round trip, statistics and seeding ok"
