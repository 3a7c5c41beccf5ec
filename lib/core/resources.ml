open Mbu_circuit

type t = {
  toffoli : float;
  cnot : float;
  cz : float;
  cnot_cz : float;
  x : float;
  h : float;
  phase : float;
  cphase : float;
  measure : float;
  qft_units : float;
  qubits : int;
  ancillas : int;
  total_depth : float;
  toffoli_depth : float;
}

let measure ?(mode = Counts.Expected 0.5) ~n ~build () =
  let b = Builder.create () in
  build b;
  let circuit = Builder.to_circuit b in
  let c = Circuit.counts ~mode circuit in
  let d = Depth.of_circuit ~mode:(Depth.of_counts_mode mode) circuit in
  { toffoli = c.Counts.toffoli;
    cnot = c.Counts.cnot;
    cz = c.Counts.cz;
    cnot_cz = Counts.cnot_cz c;
    x = c.Counts.x;
    h = c.Counts.h;
    phase = c.Counts.phase;
    cphase = c.Counts.cphase;
    measure = c.Counts.measure;
    qft_units = Counts.qft_units ~m:(n + 1) c;
    qubits = Builder.num_qubits b;
    ancillas = Builder.ancilla_qubits b;
    total_depth = d.Depth.total;
    toffoli_depth = d.Depth.toffoli }

let monte_carlo_toffoli ?(shots = 400) ?rng ?(seed = 0xbca) ?jobs ~build () =
  let b = Builder.create () in
  let inits = build b in
  let circuit = Builder.to_circuit b in
  let init =
    Mbu_simulator.Sim.init_registers ~num_qubits:(Builder.num_qubits b) inits
  in
  match rng with
  | Some rng ->
      (* Legacy path: one caller-owned generator shared across shots. *)
      let prog = Mbu_simulator.Sim.compile circuit in
      let total = ref 0. in
      for _ = 1 to shots do
        let r = Mbu_simulator.Sim.run_program ~rng prog ~init in
        total := !total +. r.Mbu_simulator.Sim.executed.Counts.toffoli
      done;
      !total /. float_of_int shots
  | None ->
      let runs = Mbu_simulator.Sim.run_shots ~seed ?jobs ~shots circuit ~init in
      Array.fold_left
        (fun acc (r : Mbu_simulator.Sim.run) ->
          acc +. r.Mbu_simulator.Sim.executed.Counts.toffoli)
        0. runs
      /. float_of_int shots
