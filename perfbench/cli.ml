(* cli: one end-to-end request, from process start to answer. Each request
   spawns the built [mbu-cli] with an argv drawn from a fixed list, with
   seeded values, and waits for it. Oracle: exit status 0 and stdout that
   matches the request ([simulate] prints (x + y) mod p, the [inject]
   tallies sum to the run count, [lint] is clean, [profile --json] parses,
   [counts] agrees with the library's counts for the same circuit). *)

open Mbu_circuit
open Mbu_core
open Mbu_simulator
open Mbu_robustness

let exe = ref "_build/default/bin/mbu_cli.exe"

type request =
  | Counts_cmult of { p : int; a : int }
  | Profile_mixed of { p : int }
  | Simulate_mixed of { x : int; y : int }
  | Inject_gidney of { x : int; y : int; seed : int }
  | Lint_gidney of { p : int }

let kinds = 5
let simulate_p = (1 lsl 16) - 1
let inject_p = 11
let inject_runs = 200

let draw rng = function
  | 0 ->
      let p = Util.draw_modulus rng 32 in
      Counts_cmult { p; a = 1 + Util.draw_below rng (p - 1) }
  | 1 -> Profile_mixed { p = Util.draw_modulus rng 32 }
  | 2 ->
      let x = Util.draw_below rng simulate_p in
      Simulate_mixed { x; y = Util.draw_below rng simulate_p }
  | 3 ->
      let x = Util.draw_below rng inject_p in
      let y = Util.draw_below rng inject_p in
      Inject_gidney { x; y; seed = Random.State.bits rng }
  | _ -> Lint_gidney { p = Util.draw_modulus rng 8 }

let argv = function
  | Counts_cmult { p; a } ->
      [ "counts"; "-c"; "cmult"; "-s"; "cdkpm"; "-n"; "32"; "--mbu"; "-p";
        string_of_int p; "-a"; string_of_int a ]
  | Profile_mixed { p } ->
      [ "profile"; "-c"; "modadd"; "-s"; "mixed"; "-n"; "32"; "--json"; "-p";
        string_of_int p ]
  | Simulate_mixed { x; y } ->
      [ "simulate"; "-c"; "modadd-mixed"; "-n"; "16"; "--mbu"; "-x";
        string_of_int x; "-y"; string_of_int y ]
  | Inject_gidney { x; y; seed } ->
      [ "inject"; "-c"; "modadd"; "-s"; "gidney"; "--mbu"; "-n"; "4"; "-p";
        string_of_int inject_p; "--runs"; string_of_int inject_runs; "--jobs";
        "1"; "-x"; string_of_int x; "-y"; string_of_int y; "--seed";
        string_of_int seed ]
  | Lint_gidney { p } ->
      [ "lint"; "-c"; "modadd"; "-s"; "gidney"; "--mbu"; "-n"; "8"; "-p";
        string_of_int p ]

let stream ~seed =
  let rng = Util.rng ~seed ~stream:"cli" in
  let next_kind = Util.rotation rng kinds in
  fun () -> draw rng (next_kind ())

let describe ~seed k =
  List.map (fun r -> String.concat " " (argv r)) (Workload.take k (stream ~seed))

(* {1 Spawning} *)

(* Run the CLI with [args]; stdout and stderr are collected together. *)
let spawn args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close wr)
      (fun () ->
        Unix.create_process !exe (Array.of_list (!exe :: args)) Unix.stdin wr wr)
  in
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read rd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  Fun.protect ~finally:(fun () -> Unix.close rd) drain;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  (wait (), Buffer.contents buf)

(* {1 The same requests in process} *)

let build f =
  let b = Builder.create () in
  let regs = Spans.span "builder.emit" (fun () -> f b) in
  let circuit = Spans.span "builder.to_circuit" (fun () -> Builder.to_circuit b) in
  (b, regs, circuit)

let modadd_regs b ~n = (Builder.fresh_register b "x" n, Builder.fresh_register b "y" n)

(* What the CLI computes for [req], as library calls; returns the text the
   [counts] oracle compares against. *)
let library = function
  | Counts_cmult { p; a } ->
      let _, _, c =
        build (fun b ->
            let ctrl = Builder.fresh_register b "c" 1 in
            let x = Builder.fresh_register b "x" 32 in
            let t = Builder.fresh_register b "t" 32 in
            Mod_mul.cmult_add
              (Mod_mul.ripple_engine ~mbu:true Mod_add.spec_cdkpm)
              b ~ctrl:(Register.get ctrl 0) ~a ~p ~x ~target:t)
      in
      let counts =
        Spans.span "ir.counts" (fun () -> Circuit.counts ~mode:(Counts.Expected 0.5) c)
      in
      let d = Spans.span "ir.depth" (fun () -> Depth.of_circuit ~mode:(`Expected 0.5) c) in
      [ Format.asprintf "counts      : %a" Counts.pp counts;
        Printf.sprintf "depth       : %.1f (Toffoli depth %.1f)" d.Depth.total
          d.Depth.toffoli ]
  | Profile_mixed { p } ->
      let _, _, c =
        build (fun b ->
            let x, y = modadd_regs b ~n:32 in
            Mod_add.modadd ~mbu:false Mod_add.spec_mixed b ~p ~x ~y)
      in
      let root = Spans.span "ir.profile" (fun () -> Trace.of_circuit c) in
      ignore (Trace.to_json ~counters:(Mbu_telemetry.Telemetry.counters_alist ()) root);
      []
  | Simulate_mixed { x = xv; y = yv } ->
      let b, (x, y), c =
        build (fun b ->
            let x, y = modadd_regs b ~n:16 in
            Mod_add.modadd ~mbu:true Mod_add.spec_mixed b ~p:simulate_p ~x ~y;
            (x, y))
      in
      let init = Sim.init_registers ~num_qubits:(Builder.num_qubits b) [ (x, xv); (y, yv) ] in
      ignore
        (Spans.span "sim.run" (fun () ->
             Sim.run ~rng:(Random.State.make [| 1 |]) c ~init));
      []
  | Inject_gidney { x = xv; y = yv; seed } ->
      let b, (x, y), _ =
        build (fun b ->
            let x, y = modadd_regs b ~n:4 in
            Mod_add.modadd ~mbu:true Mod_add.spec_gidney b ~p:inject_p ~x ~y;
            (x, y))
      in
      let base =
        Engine.spec_of_builder ~name:"modadd" b ~inits:[ (x, xv); (y, yv) ]
          ~keep:[ x; y ] ~expect:[]
      in
      let spec =
        { base with Engine.expect = (x, xv) :: Engine.oracle_outputs base [ y ] }
      in
      ignore
        (Spans.span "engine.campaign" (fun () ->
             Engine.run_campaign ~seed ~jobs:1
               ~plan:(Engine.Random { runs = inject_runs; faults_per_run = 1 })
               spec));
      []
  | Lint_gidney { p } ->
      let b, _, c =
        build (fun b ->
            let x, y = modadd_regs b ~n:8 in
            Mod_add.modadd ~mbu:true Mod_add.spec_gidney b ~p ~x ~y)
      in
      ignore
        (Spans.span "lint.check" (fun () ->
             Lint.check ~input_qubits:(Builder.input_qubits b) c));
      []

(* {1 Oracle} *)

let lines out = String.split_on_char '\n' out

(* The rest of the first line that starts with [prefix]. *)
let field out prefix =
  let k = String.length prefix in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        Some (String.trim (String.sub l k (String.length l - k)))
      else None)
    (lines out)

let int_field out prefix =
  Option.bind (field out prefix) (fun v ->
      int_of_string_opt (List.hd (String.split_on_char ' ' v)))

(* [expect] is the library's text for the request, where the oracle needs
   it. *)
let output_ok req ~expect out =
  match req with
  | Counts_cmult _ ->
      expect <> [] && List.for_all (fun l -> List.mem l (lines out)) expect
  | Profile_mixed _ -> (
      let open Mbu_telemetry.Bench_compare in
      match parse_result out with
      | Error _ -> false
      | Ok doc -> (
          match member "traceEvents" doc with
          | Some (Arr (root :: _)) -> (
              match Option.bind (member "args" root) (member "toffoli") with
              | Some (Num t) -> member "name" root = Some (Str "(root)") && t > 0.
              | _ -> false)
          | _ -> false))
  | Simulate_mixed { x; y } ->
      int_field out "out y    =" = Some ((x + y) mod simulate_p)
      && int_field out "in  x    =" = Some x
  | Inject_gidney _ -> (
      match
        ( int_field out "fault sites :",
          int_field out "correct     :",
          int_field out "detected    :",
          int_field out "silent      :" )
      with
      | Some sites, Some c, Some d, Some s -> sites > 0 && c + d + s = inject_runs
      | _ -> false)
  | Lint_gidney _ -> String.starts_with ~prefix:"0 errors," out

(* Request latency minus the library time of the same request, collected
   in the traced run. *)
let overheads : float list ref = ref []

let kind = function
  | Counts_cmult _ -> 0
  | Profile_mixed _ -> 1
  | Simulate_mixed _ -> 2
  | Inject_gidney _ -> 3
  | Lint_gidney _ -> 4

let exec req =
  Workload.guard ~kind:(kind req) ~units:1 (fun () ->
      let (status, out), seconds =
        Util.timed (fun () -> Spans.span "cli.spawn" (fun () -> spawn (argv req)))
      in
      let needs_library =
        !Spans.enabled || match req with Counts_cmult _ -> true | _ -> false
      in
      let expect =
        if not needs_library then []
        else begin
          let expect, lib =
            Util.timed (fun () -> Spans.span "cli.library" (fun () -> library req))
          in
          if !Spans.enabled then overheads := (seconds -. lib) :: !overheads;
          expect
        end
      in
      let ok = status = Unix.WEXITED 0 && output_ok req ~expect out in
      { Workload.kind = kind req; units = 1; failed = (if ok then 0 else 1); seconds })

(* Set-up: one warm-up request of each kind, which also faults the binary
   into the page cache. *)
let setup ~seed =
  if not (Sys.file_exists !exe) then failwith ("mbu-cli not found at " ^ !exe);
  let next = stream ~seed in
  let warm = Util.rng ~seed ~stream:"cli-warm-up" in
  Workload.warm_up exec (List.init kinds (draw warm));
  fun () -> exec (next ())

let workload =
  { Workload.name = "cli"; cycle = kinds; tail_pct = 95.; unit_name = "CLI processes"; setup; describe }
