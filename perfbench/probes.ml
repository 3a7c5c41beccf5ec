(* Per-layer probes for the traced run. Each measures one layer from outside,
   through its public functions, on fixed seeded inputs, so that every
   per-layer metric exists on every workload. Exact counts (gates,
   measurements, allocated words, sites, instructions, nodes) repeat
   bit-for-bit for a given seed; [repeats_ok] is cleared when a count read
   twice in one run differs. *)

open Mbu_circuit
open Mbu_core
open Mbu_simulator
open Mbu_robustness
module Telemetry = Mbu_telemetry.Telemetry

type metric = { name : string; value : float; unit : string }

let repeats_ok = ref true

let counter name =
  List.fold_left
    (fun acc -> function
      | Telemetry.Counter_sample { name = n; value; _ } when n = name -> value
      | _ -> acc)
    0 (Telemetry.snapshot ())

let gauge_highwater name =
  List.fold_left
    (fun acc -> function
      | Telemetry.Gauge_sample { name = n; highwater; _ } when n = name -> highwater
      | _ -> acc)
    0 (Telemetry.snapshot ())

let minor_words () = int_of_float (Gc.minor_words ())

(* {1 Builder: exact counts, measured first in a fresh process} *)

(* The five Monte-Carlo rows, a CDKPM+Gidney [modadd_big] at n = 256 and a
   [cmult_add] at n = 32, all with MBU and seeded moduli. *)
let builder_counts ~seed =
  let rng = Util.rng ~seed ~stream:"probe-builder" in
  let builds =
    Array.to_list
      (Array.map
         (fun (row : Montecarlo.row) ->
           let p = Util.draw_modulus rng row.Montecarlo.n in
           fun b ->
             let x = Builder.fresh_register b "x" row.n in
             let y = Builder.fresh_register b "y" row.n in
             row.build b ~p ~x ~y)
         Montecarlo.rows)
    @ [ (let p =
           Mbu_bitstring.Bitstring.init 256 (fun i ->
               i = 0 || i = 255 || Random.State.bool rng)
         in
         fun b ->
           let x = Builder.fresh_register b "x" 256 in
           let y = Builder.fresh_register b "y" 256 in
           Mod_add.modadd_big ~mbu:true Mod_add.spec_mixed b ~p ~x ~y);
        (let p = Util.draw_modulus rng 32 in
         let a = 1 + Util.draw_below rng (p - 1) in
         fun b ->
           let c = Builder.fresh_register b "c" 1 in
           let x = Builder.fresh_register b "x" 32 in
           let t = Builder.fresh_register b "t" 32 in
           Mod_mul.cmult_add Estimate.cmult_engine b ~ctrl:(Register.get c 0) ~a ~p
             ~x ~target:t) ]
  in
  let interned0 = counter "mbu_builder_nodes_interned"
  and allocated0 = counter "mbu_builder_nodes_allocated"
  and nodes0 = Instr.shared_nodes () in
  let words = ref 0 and instrs = ref 0 in
  List.iter
    (fun emit ->
      let b = Builder.create () in
      let w0 = minor_words () in
      emit b;
      let c = Builder.to_circuit b in
      words := !words + (minor_words () - w0);
      instrs := !instrs + Instr.count_instrs c.Circuit.instrs)
    builds;
  let interned = counter "mbu_builder_nodes_interned" - interned0
  and allocated = counter "mbu_builder_nodes_allocated" - allocated0 in
  [ { name = "builder.alloc_words"; value = float_of_int !words; unit = "words" };
    { name = "builder.intern_hit_frac";
      value = float_of_int interned /. float_of_int (max 1 (interned + allocated));
      unit = "ratio" };
    { name = "builder.shared_nodes_delta";
      value = float_of_int (Instr.shared_nodes () - nodes0); unit = "count" };
    { name = "builder.instrs"; value = float_of_int !instrs; unit = "count" } ]

(* {1 Builder and IR timings, for workloads that do not call them} *)

let ir_requests ~seed =
  let next = Estimate.stream ~seed in
  (* The first cycle of the estimate stream, narrowed to n <= 256. *)
  List.iter
    (fun req ->
      match req with
      | Estimate.Big { n; _ } | Estimate.Mul { n; _ } when n <= 256 ->
          ignore (Estimate.estimate req)
      | _ -> ())
    (Workload.take (Array.length Estimate.kinds) next)

(* {1 Simulator, one domain} *)

let sim_shots = 2000

let sim ~seed =
  let rng = Util.rng ~seed ~stream:"probe-sim" in
  let prepared =
    Array.map
      (fun (row : Montecarlo.row) ->
        Montecarlo.build row ~p:(Util.draw_modulus rng row.n))
      Montecarlo.rows
  in
  let t_fast = ref 0. and t_empty = ref 0. and t_sparse = ref 0. and t_ref = ref 0. in
  let gates = ref 0. and measures = ref 0. and words = ref 0 in
  let taken = ref 0. and peak = ref 0 in
  let shot_seed = Random.State.bits rng in
  Array.iter
    (fun (pr : Montecarlo.prepared) ->
      let xv = Util.draw_below rng pr.p in
      let yv = Util.draw_below rng pr.p in
      let init = Montecarlo.init pr ~xv ~yv in
      let run ?stats engine shots =
        Sim.run_shots ~seed:shot_seed ~jobs:1 ?stats ~engine ~shots pr.circuit ~init
      in
      ignore (run Sim.Fast 50);
      (* Exact counts, read twice. *)
      let counted () =
        let w0 = minor_words () in
        let runs = run Sim.Fast sim_shots in
        let w = minor_words () - w0 in
        let g, m =
          Array.fold_left
            (fun (g, m) (r : Sim.run) ->
              (g +. Counts.total_gates r.Sim.executed, m +. r.Sim.executed.Counts.measure))
            (0., 0.) runs
        in
        (g, m, w)
      in
      let first = counted () in
      let second = counted () in
      if first <> second then repeats_ok := false;
      let g, m, w = second in
      gates := !gates +. g;
      measures := !measures +. m;
      words := !words + w;
      let stats = Sim.new_stats () in
      Telemetry.reset ();
      ignore (run ~stats Sim.Fast sim_shots);
      taken := !taken +. Option.value ~default:0. (Sim.taken_frequency stats);
      peak := max !peak (gauge_highwater "mbu_sim_peak_terms");
      (* Timings: engines on the same shots, and an empty circuit of the
         same width for the fixed per-shot cost. *)
      let time_per_shot engine shots =
        snd (Util.timed (fun () -> ignore (run engine shots))) /. float_of_int shots
      in
      t_fast := !t_fast +. time_per_shot Sim.Fast sim_shots;
      t_sparse := !t_sparse +. time_per_shot Sim.Sparse (sim_shots / 4);
      t_ref := !t_ref +. time_per_shot Sim.Reference (sim_shots / 20);
      let empty =
        let b = Builder.create () in
        ignore (Builder.fresh_register b "w" pr.num_qubits);
        Builder.to_circuit b
      in
      let empty_init = Sim.init_registers ~num_qubits:pr.num_qubits [] in
      let _, dt =
        Util.timed (fun () ->
            Sim.run_shots ~seed:shot_seed ~jobs:1 ~shots:sim_shots empty ~init:empty_init)
      in
      t_empty := !t_empty +. (dt /. float_of_int sim_shots))
    prepared;
  let rows = float_of_int (Array.length prepared) in
  let total_shots = rows *. float_of_int sim_shots in
  ( prepared,
    [ { name = "sim.shot_us"; value = !t_fast /. rows *. 1e6; unit = "us" };
      { name = "sim.empty_shot_us"; value = !t_empty /. rows *. 1e6; unit = "us" };
      { name = "sim.ns_per_gate";
        value = !t_fast *. float_of_int sim_shots /. !gates *. 1e9; unit = "ns" };
      { name = "sim.gates_per_shot"; value = !gates /. total_shots; unit = "count" };
      { name = "sim.measures_per_shot"; value = !measures /. total_shots; unit = "count" };
      { name = "sim.alloc_words_per_shot";
        value = float_of_int !words /. total_shots; unit = "words" };
      { name = "sim.branch_taken_frac"; value = !taken /. rows; unit = "ratio" };
      { name = "sim.peak_terms"; value = float_of_int !peak; unit = "count" };
      { name = "sim.fast_over_reference"; value = !t_ref /. !t_fast; unit = "ratio" };
      { name = "sim.fast_over_sparse"; value = !t_sparse /. !t_fast; unit = "ratio" } ] )

(* {1 Parallel fan-out: the montecarlo requests at one and two domains} *)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let parallel ~seed (prepared : Montecarlo.prepared array) =
  let rng = Util.rng ~seed ~stream:"probe-parallel" in
  let t1 = ref 0. and t2 = ref 0. and cpu2 = ref 0. and gcs2 = ref 0 in
  let shots = Montecarlo.shots in
  for _ = 1 to 2 do
    Array.iter
      (fun (pr : Montecarlo.prepared) ->
        let xv = Util.draw_below rng pr.p in
        let yv = Util.draw_below rng pr.p in
        let init = Montecarlo.init pr ~xv ~yv in
        let seed = Random.State.bits rng in
        let go jobs = ignore (Sim.run_shots ~seed ~jobs ~shots pr.circuit ~init) in
        t1 := !t1 +. snd (Util.timed (fun () -> go 1));
        let c0 = cpu_seconds () and g0 = (Gc.quick_stat ()).Gc.minor_collections in
        t2 := !t2 +. snd (Util.timed (fun () -> go Montecarlo.jobs));
        cpu2 := !cpu2 +. (cpu_seconds () -. c0);
        gcs2 := !gcs2 + ((Gc.quick_stat ()).Gc.minor_collections - g0))
      prepared
  done;
  let total = float_of_int (2 * Array.length prepared * shots) in
  [ { name = "parallel.speedup"; value = !t1 /. !t2; unit = "ratio" };
    { name = "parallel.cpu_per_shot_us"; value = !cpu2 /. total *. 1e6; unit = "us" };
    { name = "parallel.minor_gcs_per_kshot";
      value = float_of_int !gcs2 /. total *. 1000.; unit = "1/kshot" } ]

(* {1 Fault injection, classification, forced branches and lint} *)

let fault_runs = 100
let campaign_runs = 300

let faults ~seed =
  let rng = Util.rng ~seed ~stream:"probe-faults" in
  let sites = ref 0 and correct = ref 0 and detected = ref 0 and silent = ref 0 in
  Array.iteri
    (fun family _ ->
      let p = Faults.moduli.(Random.State.int rng (Array.length Faults.moduli)) in
      let spec = Faults.build_spec family ~p in
      let instrs = spec.Engine.circuit.Circuit.instrs in
      let n_sites = Fault.num_sites instrs in
      sites := !sites + n_sites;
      ignore (Spans.span "lint.check" (fun () -> Catalogue.lint spec));
      ignore (Spans.span "engine.forced" (fun () -> Engine.check_forced_branches spec));
      for i = 1 to fault_runs do
        let run_rng = Random.State.make [| seed; family; i |] in
        let fault =
          Fault.of_site
            ~pauli:[| Fault.X; Fault.Y; Fault.Z |].(Random.State.int run_rng 3)
            (Fault.site instrs (Random.State.int run_rng n_sites))
        in
        ignore
          (Spans.span "fault.classify" (fun () ->
               Engine.classify ~rng:(Random.State.copy run_rng) ~faults:[ fault ] spec));
        let clean =
          Spans.span "sim.run" (fun () ->
              Sim.run ~rng:run_rng spec.Engine.circuit ~init:spec.Engine.init)
        in
        ignore (Spans.span "engine.classify_run" (fun () -> Engine.classify_run spec clean))
      done;
      let r =
        Engine.run_campaign ~seed ~jobs:1
          ~plan:(Engine.Random { runs = campaign_runs; faults_per_run = 1 })
          spec
      in
      correct := !correct + r.Engine.correct;
      detected := !detected + r.Engine.detected;
      silent := !silent + r.Engine.silent)
    Faults.families;
  let total = float_of_int (!correct + !detected + !silent) in
  [ { name = "fault.sites"; value = float_of_int !sites; unit = "count" };
    { name = "engine.correct_frac"; value = float_of_int !correct /. total; unit = "ratio" };
    { name = "engine.detected_frac"; value = float_of_int !detected /. total; unit = "ratio" };
    { name = "engine.silent_frac"; value = float_of_int !silent /. total; unit = "ratio" } ]

(* {1 CLI: process start, and request latency over library time} *)

let cli_startup () =
  let times =
    Workload.take 10 (fun () -> snd (Util.timed (fun () -> Cli.spawn [ "--version" ])))
  in
  { name = "cli.startup_ms"; value = Util.median times *. 1e3; unit = "ms" }

(* Two requests of each kind, for workloads other than cli. *)
let cli_overheads ~seed =
  let next = Cli.stream ~seed in
  Workload.take (2 * Cli.kinds) (fun () ->
      let req = next () in
      let _, spawn = Util.timed (fun () -> Cli.spawn (Cli.argv req)) in
      let _, lib =
        Util.timed (fun () ->
            Spans.span "cli.library" (fun () -> Cli.library req))
      in
      spawn -. lib)
