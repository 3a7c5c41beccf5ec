(* faults: the simulator driven by fault plans. Each request takes one
   [Catalogue.all] family at n = 5 with a seeded odd modulus in [17, 31]
   (specs built in set-up) and runs [Catalogue.lint], then
   [Engine.check_forced_branches], then a 300-run random campaign with one
   fault per run on two domains, with a per-request campaign seed.
   Oracle: the lint is clean, both arms of every conditional were driven
   correctly ([Engine.covered]), the classes sum to the run count and no
   exception escapes. *)

open Mbu_robustness

let n = 5
let moduli = [| 17; 19; 21; 23; 25; 27; 29; 31 |]
let runs = 300
let jobs = 2
let families = Array.of_list Catalogue.all
let plan = Engine.Random { runs; faults_per_run = 1 }

let build_spec family ~p =
  Spans.span "builder.emit" (fun () -> families.(family).Catalogue.make ~n ~p)

type request = { family : int; p_ix : int; campaign_seed : int }

let draw rng family ~p_ix = { family; p_ix; campaign_seed = Random.State.bits rng }

(* Each family takes every modulus once per eight of its requests, so that
   every run has the same mix of specs. *)
let stream ~seed =
  let rng = Util.rng ~seed ~stream:"faults" in
  let next_family = Util.rotation rng (Array.length families) in
  let next_modulus = Array.map (fun _ -> Util.rotation rng (Array.length moduli)) families in
  fun () ->
    let family = next_family () in
    draw rng family ~p_ix:(next_modulus.(family) ())

let describe ~seed k =
  List.map
    (fun r ->
      Printf.sprintf "%s n=%d p=%d campaign-seed=%d" families.(r.family).Catalogue.name
        n moduli.(r.p_ix) r.campaign_seed)
    (Workload.take k (stream ~seed))

(* Set-up: build the specs of every family and modulus, then one warm-up
   request per family. *)
let setup ~seed =
  let next = stream ~seed in
  let specs =
    Array.init (Array.length families) (fun family ->
        Array.map (fun p -> build_spec family ~p) moduli)
  in
  let exec r =
    let spec = specs.(r.family).(r.p_ix) in
    Workload.guard ~kind:r.family ~units:runs (fun () ->
        let (lint, coverage, result), seconds =
          Util.timed (fun () ->
              let lint = Spans.span "lint.check" (fun () -> Catalogue.lint spec) in
              let coverage =
                Spans.span "engine.forced" (fun () -> Engine.check_forced_branches spec)
              in
              let result =
                Spans.span "engine.campaign" (fun () ->
                    Engine.run_campaign ~seed:r.campaign_seed ~jobs ~plan spec)
              in
              (lint, coverage, result))
        in
        let ok =
          Mbu_circuit.Lint.is_clean lint && Engine.covered coverage
          && result.Engine.runs = runs
          && result.Engine.correct + result.Engine.detected + result.Engine.silent = runs
        in
        { Workload.kind = r.family; units = runs; failed = (if ok then 0 else runs); seconds })
  in
  let warm = Util.rng ~seed ~stream:"faults-warm-up" in
  Workload.warm_up exec
    (List.init (Array.length families) (fun family ->
         draw warm family ~p_ix:(Random.State.int warm (Array.length moduli))));
  fun () -> exec (next ())

let workload =
  { Workload.name = "faults"; cycle = Array.length families; tail_pct = 95.;
    unit_name = "campaign runs";
    setup; describe }
