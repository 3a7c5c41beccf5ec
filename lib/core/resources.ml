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

let monte_carlo_toffoli ?(shots = 400) ?(seed = 0xbca) ?jobs ~build () =
  if shots < 1 then
    Mbu_error.invalid ~subsystem:"Resources.monte_carlo_toffoli"
      (Printf.sprintf "%d shots: the mean needs at least one" shots);
  let b = Builder.create () in
  let inits = build b in
  let open Mbu_simulator in
  let init = Sim.init_registers ~num_qubits:(Builder.num_qubits b) inits in
  Sim.fold_shots ~seed ?jobs ~shots (Builder.to_circuit b) ~init
    ~empty:(fun () -> 0.)
    ~step:(fun total _ _ r -> total +. r.Sim.executed.Counts.toffoli)
    ~merge:( +. )
  /. float_of_int shots
