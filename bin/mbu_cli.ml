(* Command-line front end: build any circuit family from the paper, count
   its resources, draw it, or run it on the simulator.

     mbu-cli counts --circuit modadd --style mixed -n 16 --mbu
     mbu-cli draw --circuit adder --style cdkpm -n 2
     mbu-cli simulate --circuit modadd --style gidney -n 5 -p 29 -x 17 -y 25 *)

open Mbu_circuit
open Mbu_core
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Circuit construction shared by all subcommands *)

type built = {
  builder : Builder.t;
  registers : Register.t list;  (* for drawing labels / initialization *)
  inits : (Register.t * int) list;
  outputs : Register.t list;  (* registers to print after simulation *)
}

let style_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "vbe" -> Ok Adder.Vbe
    | "cdkpm" -> Ok Adder.Cdkpm
    | "gidney" -> Ok Adder.Gidney
    | "draper" -> Ok Adder.Draper
    | _ -> Error (`Msg "style must be vbe | cdkpm | gidney | draper")
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Adder.style_name s))

let spec_of_style = function
  | Adder.Cdkpm -> Mod_add.spec_cdkpm
  | Adder.Gidney -> Mod_add.spec_gidney
  | Adder.Vbe ->
      Mod_add.{ q_add = Adder.Vbe; q_comp_const = Adder.Vbe;
                c_q_sub_const = Adder.Vbe; q_comp = Adder.Vbe }
  | Adder.Draper ->
      Mod_add.{ q_add = Adder.Draper; q_comp_const = Adder.Draper;
                c_q_sub_const = Adder.Draper; q_comp = Adder.Draper }

let default_p n = (1 lsl n) - 1

let build_circuit ~circuit ~style ~mbu ~n ~p ~a ~x_val ~y_val =
  let b = Builder.create () in
  let p = match p with Some p -> p | None -> default_p n in
  let a = match a with Some a -> a | None -> p / 3 in
  let reg name len = Builder.fresh_register b name len in
  match circuit with
  | "adder" ->
      let x = reg "x" n and y = reg "y" (n + 1) in
      Adder.add style b ~x ~y;
      { builder = b; registers = [ x; y ]; inits = [ (x, x_val); (y, y_val) ];
        outputs = [ y ] }
  | "sub" ->
      let x = reg "x" n and y = reg "y" (n + 1) in
      Adder.sub style b ~x ~y;
      { builder = b; registers = [ x; y ]; inits = [ (x, x_val); (y, y_val) ];
        outputs = [ y ] }
  | "cadder" ->
      let c = reg "c" 1 and x = reg "x" n and y = reg "y" (n + 1) in
      Adder.add_controlled style b ~ctrl:(Register.get c 0) ~x ~y;
      { builder = b; registers = [ c; x; y ];
        inits = [ (c, 1); (x, x_val); (y, y_val) ]; outputs = [ y ] }
  | "adder-const" ->
      let y = reg "y" (n + 1) in
      Adder.add_const style b ~a ~y;
      { builder = b; registers = [ y ]; inits = [ (y, y_val) ]; outputs = [ y ] }
  | "compare" ->
      let x = reg "x" n and y = reg "y" n and t = reg "t" 1 in
      Adder.compare style b ~x ~y ~target:(Register.get t 0);
      { builder = b; registers = [ x; y; t ];
        inits = [ (x, x_val); (y, y_val); (t, 0) ]; outputs = [ t ] }
  | "compare-const" ->
      let x = reg "x" n and t = reg "t" 1 in
      Adder.compare_const style b ~a ~x ~target:(Register.get t 0);
      { builder = b; registers = [ x; t ]; inits = [ (x, x_val); (t, 0) ];
        outputs = [ t ] }
  | "modadd" ->
      let x = reg "x" n and y = reg "y" n in
      (if style = Adder.Draper then Mod_add.modadd_draper ~mbu b ~p ~x ~y
       else Mod_add.modadd ~mbu (spec_of_style style) b ~p ~x ~y);
      { builder = b; registers = [ x; y ];
        inits = [ (x, x_val mod p); (y, y_val mod p) ]; outputs = [ y ] }
  | "modadd-mixed" ->
      let x = reg "x" n and y = reg "y" n in
      Mod_add.modadd ~mbu Mod_add.spec_mixed b ~p ~x ~y;
      { builder = b; registers = [ x; y ];
        inits = [ (x, x_val mod p); (y, y_val mod p) ]; outputs = [ y ] }
  | "cmodadd" ->
      let c = reg "c" 1 and x = reg "x" n and y = reg "y" n in
      Mod_add.modadd_controlled ~mbu (spec_of_style style) b
        ~ctrl:(Register.get c 0) ~p ~x ~y;
      { builder = b; registers = [ c; x; y ];
        inits = [ (c, 1); (x, x_val mod p); (y, y_val mod p) ]; outputs = [ y ] }
  | "modadd-const" ->
      let x = reg "x" n in
      (if style = Adder.Draper then
         Mod_add.modadd_const_draper ~mbu b ~p ~a:(a mod p) ~x
       else Mod_add.modadd_const ~mbu (spec_of_style style) b ~p ~a:(a mod p) ~x);
      { builder = b; registers = [ x ]; inits = [ (x, x_val mod p) ]; outputs = [ x ] }
  | "takahashi" ->
      let x = reg "x" n in
      Mod_add.modadd_const_takahashi ~mbu (spec_of_style style) b ~p ~a:(a mod p) ~x;
      { builder = b; registers = [ x ]; inits = [ (x, x_val mod p) ]; outputs = [ x ] }
  | "in-range" ->
      let x = reg "x" n and y = reg "y" n and z = reg "z" n and t = reg "t" 1 in
      Mbu.in_range ~mbu style b ~x ~y ~z ~target:(Register.get t 0);
      { builder = b; registers = [ x; y; z; t ];
        inits = [ (x, x_val); (y, y_val); (z, a); (t, 0) ]; outputs = [ t ] }
  | "cmult" ->
      let c = reg "c" 1 and x = reg "x" n and t = reg "t" n in
      let engine =
        if style = Adder.Draper then Mod_mul.draper_engine ~mbu ()
        else Mod_mul.ripple_engine ~mbu (spec_of_style style)
      in
      Mod_mul.cmult_add engine b ~ctrl:(Register.get c 0) ~a ~p ~x ~target:t;
      { builder = b; registers = [ c; x; t ];
        inits = [ (c, 1); (x, x_val mod p); (t, y_val mod p) ]; outputs = [ t ] }
  | "adder-cla" ->
      let x = reg "x" n and y = reg "y" (n + 1) in
      Adder_cla.add ~mbu b ~x ~y;
      { builder = b; registers = [ x; y ]; inits = [ (x, x_val); (y, y_val) ];
        outputs = [ y ] }
  | "increment" ->
      let y = reg "y" n in
      Increment.apply b y;
      { builder = b; registers = [ y ]; inits = [ (y, y_val) ]; outputs = [ y ] }
  | "modsub" ->
      let x = reg "x" n and y = reg "y" n in
      Mod_add.modsub ~mbu (spec_of_style style) b ~p ~x ~y;
      { builder = b; registers = [ x; y ];
        inits = [ (x, x_val mod p); (y, y_val mod p) ]; outputs = [ y ] }
  | "lookup" ->
      let k = min n 10 in
      let address = reg "a" k and target = reg "t" (max 1 (min n 8)) in
      let data =
        Array.init (1 lsl k) (fun i -> (i * 37 + 5) land ((1 lsl Register.length target) - 1))
      in
      Qrom.lookup b ~address ~target ~data;
      if mbu then Qrom.unlookup b ~address ~target ~data;
      { builder = b; registers = [ address; target ];
        inits = [ (address, x_val land ((1 lsl k) - 1)) ]; outputs = [ target ] }
  | "cmult-windowed" ->
      let c = reg "c" 1 and x = reg "x" n and t = reg "t" n in
      Mod_mul.cmult_add_windowed ~mbu (spec_of_style style) b
        ~ctrl:(Register.get c 0) ~a ~p ~x ~target:t;
      { builder = b; registers = [ c; x; t ];
        inits = [ (c, 1); (x, x_val mod p); (t, y_val mod p) ]; outputs = [ t ] }
  | other -> failwith (Printf.sprintf "unknown circuit %S" other)

let circuits =
  [ "adder"; "sub"; "cadder"; "adder-const"; "compare"; "compare-const";
    "modadd"; "modadd-mixed"; "cmodadd"; "modadd-const"; "takahashi";
    "in-range"; "cmult"; "adder-cla"; "increment"; "modsub"; "lookup";
    "cmult-windowed" ]

(* ------------------------------------------------------------------ *)
(* Common arguments *)

let circuit_arg =
  let doc =
    Printf.sprintf "Circuit family: %s." (String.concat " | " circuits)
  in
  Arg.(value & opt string "modadd" & info [ "c"; "circuit" ] ~docv:"NAME" ~doc)

let style_arg =
  Arg.(value & opt style_conv Adder.Cdkpm
       & info [ "s"; "style" ] ~docv:"STYLE" ~doc:"Adder family.")

let n_arg = Arg.(value & opt int 8 & info [ "n" ] ~doc:"Register width in qubits.")
let p_arg = Arg.(value & opt (some int) None & info [ "p" ] ~doc:"Modulus (default 2^n - 1).")
let a_arg = Arg.(value & opt (some int) None & info [ "a" ] ~doc:"Classical constant.")
let mbu_arg = Arg.(value & flag & info [ "mbu" ] ~doc:"Use measurement-based uncomputation.")
let x_arg = Arg.(value & opt int 3 & info [ "x" ] ~doc:"Value of register x.")
let y_arg = Arg.(value & opt int 5 & info [ "y" ] ~doc:"Value of register y.")

let mode_arg =
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
  in
  Arg.(value & opt mode_conv (Counts.Expected 0.5)
       & info [ "mode" ] ~doc:"Counting mode: worst | best | expected.")

(* ------------------------------------------------------------------ *)
(* Subcommands *)

let counts_cmd =
  let run circuit style mbu n p a mode =
    let { builder; _ } =
      build_circuit ~circuit ~style ~mbu ~n ~p ~a ~x_val:0 ~y_val:0
    in
    let c = Builder.to_circuit builder in
    let counts = Circuit.counts ~mode c in
    let d = Depth.of_circuit ~mode:(Depth.of_counts_mode mode) c in
    Format.printf "circuit     : %s (%s%s), n = %d@." circuit
      (Adder.style_name style) (if mbu then ", MBU" else "") n;
    Format.printf "qubits      : %d (%d inputs + %d ancillas)@."
      (Builder.num_qubits builder) (Builder.input_qubits builder)
      (Builder.ancilla_qubits builder);
    Format.printf "counts      : %a@." Counts.pp counts;
    Format.printf "CNOT+CZ     : %g@." (Counts.cnot_cz counts);
    Format.printf "QFT units   : %.2f (of QFT_%d)@."
      (Counts.qft_units ~m:(n + 1) counts) (n + 1);
    Format.printf "depth       : %.1f (Toffoli depth %.1f)@." d.Depth.total
      d.Depth.toffoli
  in
  let term = Term.(const run $ circuit_arg $ style_arg $ mbu_arg $ n_arg $ p_arg $ a_arg $ mode_arg) in
  Cmd.v (Cmd.info "counts" ~doc:"Print resource counts for a circuit family.") term

let draw_cmd =
  let run circuit style mbu n p a =
    let { builder; registers; _ } =
      build_circuit ~circuit ~style ~mbu ~n ~p ~a ~x_val:0 ~y_val:0
    in
    print_string (Draw.render_registers registers (Builder.to_circuit builder))
  in
  let term = Term.(const run $ circuit_arg $ style_arg $ mbu_arg $ n_arg $ p_arg $ a_arg) in
  Cmd.v
    (Cmd.info "draw" ~doc:"Render a small circuit as ASCII art (keep n <= 4).")
    term

let simulate_cmd =
  let run circuit style mbu n p a x_val y_val seed =
    let { builder; inits; outputs; _ } =
      build_circuit ~circuit ~style ~mbu ~n ~p ~a ~x_val ~y_val
    in
    let rng = Random.State.make [| seed |] in
    let r = Mbu_simulator.Sim.run_builder ~rng builder ~inits in
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
    Term.(const run $ circuit_arg $ style_arg $ mbu_arg $ n_arg $ p_arg $ a_arg
          $ x_arg $ y_arg $ seed_arg)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run a circuit on the sparse simulator.") term


let qasm_cmd =
  let run circuit style mbu n p a optimize =
    let { builder; _ } =
      build_circuit ~circuit ~style ~mbu ~n ~p ~a ~x_val:0 ~y_val:0
    in
    let c = Builder.to_circuit builder in
    let c = if optimize then Optimize.circuit c else c in
    print_string (Qasm.to_string c)
  in
  let optimize_arg =
    Arg.(value & flag
         & info [ "O"; "optimize" ] ~doc:"Run the peephole optimizer first.")
  in
  let term =
    Term.(const run $ circuit_arg $ style_arg $ mbu_arg $ n_arg $ p_arg $ a_arg
          $ optimize_arg)
  in
  Cmd.v (Cmd.info "qasm" ~doc:"Export a circuit as OpenQASM 3.") term

let profile_cmd =
  let run circuit style_s mbu n p a mode json shots jobs max_depth no_merge seed
      =
    (* The profile subcommand also accepts the paper's mixed Gidney+CDKPM
       spec (theorem 3.6) as a pseudo-style. *)
    let circuit, style =
      match style_s with
      | "mixed" ->
          if circuit <> "modadd" then
            failwith "--style mixed is only defined for --circuit modadd";
          ("modadd-mixed", Adder.Cdkpm)
      | "vbe" -> (circuit, Adder.Vbe)
      | "gidney" -> (circuit, Adder.Gidney)
      | "draper" -> (circuit, Adder.Draper)
      | _ -> (circuit, Adder.Cdkpm)
    in
    let { builder; inits; _ } =
      build_circuit ~circuit ~style ~mbu ~n ~p ~a ~x_val:3 ~y_val:5
    in
    let c = Builder.to_circuit builder in
    let root = Trace.of_circuit ~mode c in
    let run_shots_now () =
      let open Mbu_simulator in
      let st = Sim.new_stats () in
      let init =
        Sim.init_registers ~num_qubits:(Builder.num_qubits builder) inits
      in
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
      Format.printf "circuit     : %s (%s%s), n = %d@." circuit style_s
        (if mbu then ", MBU" else "") n;
      Format.printf "qubits      : %d (%d inputs + %d ancillas)@."
        (Builder.num_qubits builder) (Builder.input_qubits builder)
        (Builder.ancilla_qubits builder);
      Format.printf "spans       : %d@." (Instr.count_spans c.Circuit.instrs);
      Format.printf "mode        : %a@.@."
        (fun fmt -> function
          | Counts.Worst -> Format.pp_print_string fmt "worst"
          | Counts.Best -> Format.pp_print_string fmt "best"
          | Counts.Expected pr -> Format.fprintf fmt "expected(%g)" pr)
        mode;
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
  let style_arg =
    let pstyle_conv =
      let parse s =
        match String.lowercase_ascii s with
        | ("vbe" | "cdkpm" | "gidney" | "draper" | "mixed") as s -> Ok s
        | _ -> Error (`Msg "style must be vbe | cdkpm | gidney | draper | mixed")
      in
      Arg.conv (parse, Format.pp_print_string)
    in
    Arg.(value & opt pstyle_conv "cdkpm"
         & info [ "s"; "style" ] ~docv:"STYLE"
             ~doc:"Adder family: vbe | cdkpm | gidney | draper | mixed.")
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
    Term.(const run $ circuit_arg $ style_arg $ mbu_arg $ n_arg $ p_arg $ a_arg
          $ mode_arg $ json_arg $ shots_arg $ jobs_arg $ max_depth_arg
          $ no_merge_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Per-span resource attribution (flat/cumulative gate counts, \
             ancilla peaks, depth) as a tree or Chrome trace JSON.")
    term

(* ------------------------------------------------------------------ *)
(* Fault injection and linting *)

(* Inputs and oracle for a robustness spec of any CLI circuit family: the
   declared output registers of a fault-free run are the reference (valid
   because healthy outputs are outcome-independent), and every input
   register must come back unchanged unless it is also an output. *)
let spec_of_built ~name (built : built) =
  let open Mbu_robustness in
  let base =
    Engine.spec_of_builder ~name built.builder ~inits:built.inits
      ~keep:built.registers ~expect:[]
  in
  let unchanged =
    List.filter
      (fun (reg, _) -> not (List.memq reg built.outputs))
      built.inits
  in
  let expect = unchanged @ Engine.oracle_outputs base built.outputs in
  { base with Engine.expect }

let inject_cmd =
  let run circuit style mbu n p a x_val y_val runs faults_per_run seed jobs
      exhaustive progress =
    let built = build_circuit ~circuit ~style ~mbu ~n ~p ~a ~x_val ~y_val in
    let spec = spec_of_built ~name:circuit built in
    let open Mbu_robustness in
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
    Format.printf "circuit     : %s (%s%s), n = %d@." circuit
      (Adder.style_name style) (if mbu then ", MBU" else "") n;
    Format.printf "fault sites : %d (%s campaign, %d runs, seed %d)@." r.Engine.sites
      (if exhaustive then "exhaustive" else
         Printf.sprintf "random, %d fault%s/run" faults_per_run
           (if faults_per_run = 1 then "" else "s"))
      r.Engine.runs seed;
    Format.printf "correct     : %5d (fault absorbed)@." r.Engine.correct;
    Format.printf "detected    : %5d (error raised, dirty ancilla or detector)@."
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
    Term.(const run $ circuit_arg $ style_arg $ mbu_arg $ n_arg $ p_arg $ a_arg
          $ x_arg $ y_arg $ runs_arg $ faults_arg $ seed_arg $ jobs_arg
          $ exhaustive_arg $ progress_arg)
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:"Fault-injection campaign: classify every run as correct, \
             detected, or silently corrupted against the classical oracle.")
    term

let metrics_cmd =
  let run circuit style mbu n p a x_val y_val shots runs seed jobs format =
    let open Mbu_telemetry in
    (* Fresh slate so the exposition covers exactly this invocation's
       build + simulate + campaign, not other module-init noise. *)
    Telemetry.reset ();
    let built = build_circuit ~circuit ~style ~mbu ~n ~p ~a ~x_val ~y_val in
    let open Mbu_simulator in
    let c = Builder.to_circuit built.builder in
    let init =
      Sim.init_registers ~num_qubits:(Builder.num_qubits built.builder)
        built.inits
    in
    if shots > 0 then ignore (Sim.run_shots ~seed ?jobs ~shots c ~init);
    if runs > 0 then begin
      let spec = spec_of_built ~name:circuit built in
      ignore
        (Mbu_robustness.Engine.run_campaign ~seed ?jobs
           ~plan:(Mbu_robustness.Engine.Random { runs; faults_per_run = 1 })
           spec)
    end;
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
                                 apart from latency buckets).")
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
    Term.(const run $ circuit_arg $ style_arg $ mbu_arg $ n_arg $ p_arg $ a_arg
          $ x_arg $ y_arg $ shots_arg $ runs_arg $ seed_arg $ jobs_arg
          $ format_arg)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Exercise a circuit (build, Monte-Carlo shots, a small fault \
             campaign) and print the process telemetry as OpenMetrics text \
             or JSON.")
    term

let lint_cmd =
  let run circuit style mbu n p a =
    let { builder; _ } =
      build_circuit ~circuit ~style ~mbu ~n ~p ~a ~x_val:0 ~y_val:0
    in
    let report =
      Lint.check ~input_qubits:(Builder.input_qubits builder)
        (Builder.to_circuit builder)
    in
    print_string (Lint.to_string report);
    if not (Lint.is_clean report) then exit 1
  in
  let term =
    Term.(const run $ circuit_arg $ style_arg $ mbu_arg $ n_arg $ p_arg $ a_arg)
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
