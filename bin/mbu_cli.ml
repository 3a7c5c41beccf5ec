(* Command-line front end: build any circuit family from the paper, count
   its resources, draw it, or run it on the simulator.

     mbu-cli counts --circuit modadd --style mixed -n 16 --mbu
     mbu-cli draw --circuit adder --style cdkpm -n 2
     mbu-cli simulate --circuit modadd --style gidney -n 5 -p 29 -x 17 -y 25 *)

open Mbu_circuit
open Mbu_core
open Mbu_robustness
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Circuit selection shared by all subcommands *)

(* [-s]: an adder style, or "mixed" (None), the paper's theorem-3.6
   Gidney+CDKPM spec, which only [modadd] has: it selects [modadd-mixed]. *)
let style_label = Option.fold ~none:"mixed" ~some:Adder.style_name

let style_conv =
  let labels = List.map (fun s -> Some s) Adder.all_styles @ [ None ] in
  let parse s =
    let s = String.lowercase_ascii s in
    match List.find_opt (fun l -> style_label l = s) labels with
    | Some style -> Ok style
    | None -> Error (`Msg "style must be vbe | cdkpm | gidney | draper | mixed")
  in
  Arg.conv (parse, fun fmt l -> Format.pp_print_string fmt (style_label l))

(* A resolved circuit family with every argument but the input values. *)
type request = {
  family : Catalogue.family;
  label : string;  (* the style as given, printed in headers *)
  args : Catalogue.args;
}

let request =
  let names = List.map (fun (f : Catalogue.family) -> f.name) Catalogue.families in
  let circuit_arg =
    Arg.(value
         & opt (enum (List.map (fun s -> (s, s)) names)) "modadd"
         & info [ "c"; "circuit" ] ~docv:"NAME"
             ~doc:("Circuit family: " ^ String.concat " | " names ^ "."))
  in
  let style_arg =
    Arg.(value & opt style_conv (Some Adder.Cdkpm)
         & info [ "s"; "style" ] ~docv:"STYLE"
             ~doc:"Adder family: vbe | cdkpm | gidney | draper, or mixed \
                   (Gidney+CDKPM, for --circuit modadd only).")
  in
  let mbu_arg =
    Arg.(value & flag & info [ "mbu" ] ~doc:"Use measurement-based uncomputation.")
  in
  let n_arg = Arg.(value & opt int 8 & info [ "n" ] ~doc:"Register width in qubits.") in
  let p_arg =
    Arg.(value & opt (some int) None & info [ "p" ] ~doc:"Modulus (default 2^n - 1).")
  in
  let a_arg = Arg.(value & opt (some int) None & info [ "a" ] ~doc:"Classical constant.") in
  let resolve name label mbu n p a =
    let p = Option.value p ~default:((1 lsl n) - 1) in
    let a = Option.value a ~default:(p / 3) in
    let ok name style =
      Ok { family = Catalogue.family name; label = style_label label;
           args = { style; mbu; n; p; a; x = 0; y = 0 } }
    in
    match (name, label) with
    | _, Some style -> ok name style
    | "modadd", None -> ok "modadd-mixed" Adder.Cdkpm
    | _, None -> Error "--style mixed is only defined for --circuit modadd"
  in
  Term.(cli_parse_result'
          (const resolve $ circuit_arg $ style_arg $ mbu_arg $ n_arg $ p_arg
           $ a_arg))

let build ?(x = 0) ?(y = 0) r =
  let b = Builder.create () in
  (b, r.family.build b { r.args with x; y })

let print_header r =
  Format.printf "circuit     : %s (%s%s), n = %d@." r.family.name r.label
    (if r.args.mbu then ", MBU" else "") r.args.n

let print_qubits b =
  Format.printf "qubits      : %d (%d inputs + %d ancillas)@."
    (Builder.num_qubits b) (Builder.input_qubits b) (Builder.ancilla_qubits b)

(* ------------------------------------------------------------------ *)
(* Common arguments *)

let x_arg = Arg.(value & opt int 3 & info [ "x" ] ~doc:"Value of register x.")
let y_arg = Arg.(value & opt int 5 & info [ "y" ] ~doc:"Value of register y.")

let mode_conv =
  Arg.conv
    ( (fun s ->
        match String.lowercase_ascii s with
        | "worst" -> Ok Counts.Worst
        | "best" -> Ok Counts.Best
        | "expected" -> Ok (Counts.Expected 0.5)
        | _ -> Error (`Msg "mode must be worst | best | expected")),
      fun fmt -> function
        | Counts.Worst -> Format.pp_print_string fmt "worst"
        | Counts.Best -> Format.pp_print_string fmt "best"
        | Counts.Expected p -> Format.fprintf fmt "expected(%g)" p )

let mode_arg =
  Arg.(value & opt mode_conv (Counts.Expected 0.5)
       & info [ "mode" ] ~doc:"Counting mode: worst | best | expected.")

(* ------------------------------------------------------------------ *)
(* Subcommands *)

let counts_cmd =
  let run r mode =
    let b, _ = build r in
    let n = r.args.n in
    let c = Builder.to_circuit b in
    let counts = Circuit.counts ~mode c in
    let d = Depth.of_circuit ~mode:(Depth.of_counts_mode mode) c in
    print_header r;
    print_qubits b;
    Format.printf "counts      : %a@." Counts.pp counts;
    Format.printf "CNOT+CZ     : %g@." (Counts.cnot_cz counts);
    Format.printf "QFT units   : %.2f (of QFT_%d)@."
      (Counts.qft_units ~m:(n + 1) counts) (n + 1);
    Format.printf "depth       : %.1f (Toffoli depth %.1f)@." d.Depth.total
      d.Depth.toffoli
  in
  let term = Term.(const run $ request $ mode_arg) in
  Cmd.v (Cmd.info "counts" ~doc:"Print resource counts for a circuit family.") term

let draw_cmd =
  let run r =
    let b, built = build r in
    print_string (Draw.render_registers built.registers (Builder.to_circuit b))
  in
  let term = Term.(const run $ request) in
  Cmd.v
    (Cmd.info "draw" ~doc:"Render a small circuit as ASCII art (keep n <= 4).")
    term

let simulate_cmd =
  let run r x y seed =
    let b, { Catalogue.inits; outputs; _ } = build ~x ~y r in
    let rng = Random.State.make [| seed |] in
    let r = Mbu_simulator.Sim.run_builder ~rng b ~inits in
    List.iter
      (fun (reg, v) -> Format.printf "in  %-4s = %d@." (Register.name reg) v)
      inits;
    List.iter
      (fun reg ->
        match Mbu_simulator.Sim.register_value r.Mbu_simulator.Sim.state reg with
        | Some v -> Format.printf "out %-4s = %d@." (Register.name reg) v
        | None -> Format.printf "out %-4s = (superposed)@." (Register.name reg))
      outputs;
    Format.printf "executed    : %a@." Counts.pp r.Mbu_simulator.Sim.executed
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let term =
    Term.(const run $ request $ x_arg $ y_arg $ seed_arg)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run a circuit on the sparse simulator.") term


let qasm_cmd =
  let run r optimize =
    let b, _ = build r in
    let c = Builder.to_circuit b in
    let c = if optimize then Optimize.circuit c else c in
    print_string (Qasm.to_string c)
  in
  let optimize_arg =
    Arg.(value & flag
         & info [ "O"; "optimize" ] ~doc:"Run the peephole optimizer first.")
  in
  let term =
    Term.(const run $ request $ optimize_arg)
  in
  Cmd.v (Cmd.info "qasm" ~doc:"Export a circuit as OpenQASM 3.") term

let profile_cmd =
  let run r mode json shots jobs max_depth no_merge seed =
    let b, { Catalogue.inits; _ } = build ~x:3 ~y:5 r in
    let c = Builder.to_circuit b in
    let root = Trace.of_circuit ~mode c in
    let run_shots_now () =
      let open Mbu_simulator in
      let st = Sim.new_stats () in
      let init = Sim.init_registers ~num_qubits:(Builder.num_qubits b) inits in
      let jobs = match jobs with Some j -> j | None -> Sim.default_jobs () in
      let t0 = Unix.gettimeofday () in
      ignore (Sim.run_shots ~seed ~jobs ~stats:st ~shots c ~init);
      (st, jobs, Unix.gettimeofday () -. t0)
    in
    if json then begin
      (* Shots run before the document is emitted, so the counter overlay
         reflects this invocation's runtime telemetry. *)
      if shots > 0 then ignore (run_shots_now ());
      print_string
        (Trace.to_json
           ~counters:(Mbu_telemetry.Telemetry.counters_alist ())
           root)
    end
    else begin
      print_header r;
      print_qubits b;
      Format.printf "spans       : %d@." (Instr.count_spans c.Circuit.instrs);
      Format.printf "mode        : %a@.@." (Arg.conv_printer mode_conv) mode;
      print_string (Trace.render ~merge:(not no_merge) ?max_depth root);
      if shots > 0 then begin
        let open Mbu_simulator in
        let st, jobs, dt = run_shots_now () in
        let modelled =
          match mode with
          | Counts.Expected pr -> Printf.sprintf "%g" pr
          | Counts.Worst -> "1, worst"
          | Counts.Best -> "0, best"
        in
        Format.printf "@.";
        Format.printf "simulator   : %s backend, jobs = %d, %.0f shots/sec@."
          Sim.parallel_backend jobs
          (float_of_int shots /. Float.max dt 1e-9);
        (match Sim.taken_frequency st with
        | None ->
            Format.printf "branches    : none reached over %d shots@." shots
        | Some f ->
            Format.printf
              "branches    : empirical taken frequency %.3f over %d shots \
               (modelled %s)@."
              f shots modelled;
            List.iter
              (fun bit ->
                match Sim.bit_taken_frequency st bit with
                | Some f -> Format.printf "  if c[%d]   : taken %.3f@." bit f
                | None -> ())
              (Sim.branch_bits st))
      end
    end
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit Chrome trace-event JSON instead of the rendered tree.")
  in
  let shots_arg =
    Arg.(value & opt int 0
         & info [ "shots" ]
             ~doc:"Also Monte-Carlo the circuit this many times and report \
                   empirical conditional-branch frequencies.")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "jobs" ] ~docv:"JOBS"
             ~doc:"Worker domains for the Monte-Carlo shots (default: the \
                   runtime's recommended count; outcomes are deterministic \
                   and independent of JOBS).")
  in
  let max_depth_arg =
    Arg.(value & opt (some int) None
         & info [ "max-depth" ] ~doc:"Prune the span tree below this depth.")
  in
  let no_merge_arg =
    Arg.(value & flag
         & info [ "no-merge" ]
             ~doc:"Do not merge same-labelled sibling spans into one row.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let term =
    Term.(const run $ request $ mode_arg $ json_arg $ shots_arg $ jobs_arg
          $ max_depth_arg $ no_merge_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Per-span resource attribution (flat/cumulative gate counts, \
             ancilla peaks, depth) as a tree or Chrome trace JSON.")
    term

(* ------------------------------------------------------------------ *)
(* Fault injection and linting *)

let inject_cmd =
  let run req x y runs faults_per_run seed jobs exhaustive progress =
    let b, built = build ~x ~y req in
    let spec = Catalogue.spec ~name:req.family.name b built in
    let plan =
      if exhaustive then Engine.Exhaustive { paulis = [ Fault.X; Fault.Y; Fault.Z ] }
      else Engine.Random { runs; faults_per_run }
    in
    (* Heartbeat on stderr so stdout stays machine-readable; the counter is
       monotone even when runs complete out of order across domains. *)
    let on_progress =
      if progress <= 0 then None
      else
        Some
          (fun ~completed ~total ->
            if completed mod progress = 0 || completed = total then
              Printf.eprintf "  [%d/%d] campaign runs completed\n%!" completed
                total)
    in
    let r = Engine.run_campaign ~seed ?jobs ?on_progress ~plan spec in
    print_header req;
    Format.printf "fault sites : %d (%s campaign, %d runs, seed %d)@." r.Engine.sites
      (if exhaustive then "exhaustive" else
         Printf.sprintf "random, %d fault%s/run" faults_per_run
           (if faults_per_run = 1 then "" else "s"))
      r.Engine.runs seed;
    Format.printf "correct     : %5d (fault absorbed)@." r.Engine.correct;
    Format.printf "detected    : %5d (dirty ancilla or detector)@."
      r.Engine.detected;
    Format.printf "silent      : %5d (wrong output, nothing noticed)@." r.Engine.silent;
    Format.printf "detection   : %.3f of consequential faults; silent rate %.3f@."
      (Engine.detection_rate r) (Engine.silent_rate r);
    List.iter
      (fun plan ->
        Format.printf "  silent example: %s@."
          (String.concat " + " (List.map Fault.to_string plan)))
      r.Engine.silent_examples
  in
  let runs_arg =
    Arg.(value & opt int 200
         & info [ "runs" ] ~doc:"Monte-Carlo fault runs (random campaign).")
  in
  let faults_arg =
    Arg.(value & opt int 1
         & info [ "faults" ] ~doc:"Faults injected per run (random campaign).")
  in
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Campaign seed.") in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "jobs" ] ~doc:"Worker domains (results are JOBS-independent).")
  in
  let exhaustive_arg =
    Arg.(value & flag
         & info [ "exhaustive" ]
             ~doc:"One run per fault site (X, Y and Z on every gate wire, an \
                   outcome flip per measurement, a skip per conditional) \
                   instead of random sampling.")
  in
  let progress_arg =
    Arg.(value & opt int 0
         & info [ "progress" ] ~docv:"N"
             ~doc:"Print a heartbeat line to stderr every N completed runs \
                   (0 disables).")
  in
  let term =
    Term.(const run $ request $ x_arg $ y_arg $ runs_arg $ faults_arg $ seed_arg
          $ jobs_arg $ exhaustive_arg $ progress_arg)
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:"Fault-injection campaign: classify every run as correct, \
             detected, or silently corrupted against the classical oracle.")
    term

let metrics_cmd =
  let run req x y shots runs seed jobs format =
    let open Mbu_telemetry in
    (* Fresh slate so the exposition covers exactly this invocation's
       build + simulate + campaign, not other module-init noise. *)
    Telemetry.reset ();
    let b, built = build ~x ~y req in
    let open Mbu_simulator in
    let c = Builder.to_circuit b in
    let init =
      Sim.init_registers ~num_qubits:(Builder.num_qubits b) built.Catalogue.inits
    in
    if shots > 0 then ignore (Sim.run_shots ~seed ?jobs ~shots c ~init);
    if runs > 0 then
      ignore
        (Engine.run_campaign ~seed ?jobs
           ~plan:(Engine.Random { runs; faults_per_run = 1 })
           (Catalogue.spec ~name:req.family.name b built));
    print_string
      (match format with
      | "json" -> Telemetry.to_json ()
      | _ -> Telemetry.to_openmetrics ())
  in
  let shots_arg =
    Arg.(value & opt int 200
         & info [ "shots" ]
             ~doc:"Monte-Carlo shots feeding the simulator instruments (0 \
                   skips).")
  in
  let runs_arg =
    Arg.(value & opt int 50
         & info [ "runs" ]
             ~doc:"Fault-campaign runs feeding the robustness instruments (0 \
                   skips).")
  in
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"RNG seed.") in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "jobs" ] ~doc:"Worker domains (metrics are JOBS-independent \
                                 apart from latency buckets, GC words and \
                                 workers spawned).")
  in
  let format_arg =
    let fmt_conv =
      Arg.conv
        ( (fun s ->
            match String.lowercase_ascii s with
            | ("openmetrics" | "json") as s -> Ok s
            | _ -> Error (`Msg "format must be openmetrics | json")),
          Format.pp_print_string )
    in
    Arg.(value & opt fmt_conv "openmetrics"
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Exposition format: openmetrics | json.")
  in
  let term =
    Term.(const run $ request $ x_arg $ y_arg $ shots_arg $ runs_arg $ seed_arg
          $ jobs_arg $ format_arg)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Exercise a circuit (build, Monte-Carlo shots, a small fault \
             campaign) and print the process telemetry as OpenMetrics text \
             or JSON.")
    term

let lint_cmd =
  let run req =
    let b, _ = build req in
    let report =
      Lint.check ~input_qubits:(Builder.input_qubits b) (Builder.to_circuit b)
    in
    print_string (Lint.to_string report);
    if not (Lint.is_clean report) then exit 1
  in
  let term =
    Term.(const run $ request)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static invariant checks: ancilla leaks, conditionals on \
             unwritten bits, use-after-measure, index escapes. Exits 1 on \
             any error finding.")
    term

let () =
  let doc = "quantum modular arithmetic with measurement-based uncomputation" in
  let info = Cmd.info "mbu-cli" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ counts_cmd; draw_cmd; simulate_cmd; qasm_cmd; profile_cmd; inject_cmd;
        metrics_cmd; lint_cmd ]
  in
  (* Structured errors print as one clean line, not a backtrace. *)
  match Cmd.eval_value ~catch:false group with
  | Ok (`Ok () | `Help | `Version) -> exit 0
  | Error `Parse -> exit Cmd.Exit.cli_error
  | Error (`Term | `Exn) -> exit Cmd.Exit.internal_error
  | exception Mbu_error.Error e ->
      prerr_endline ("mbu-cli: " ^ Mbu_error.to_string e);
      exit 2
