(* End-to-end Shor factoring on the simulator.

   Everything the paper's circuits exist for, assembled: Hadamards on the
   exponent register, the modular-exponentiation ladder built from MBU-
   optimized controlled constant modular adders, the inverse QFT readout,
   and the classical continued-fraction post-processing. Runs the complete
   algorithm for N = 15 and N = 21 on the sparse simulator.

     dune exec examples/shor.exe *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core

(* continued-fraction expansion of m / 2^t; returns the convergent
   denominators k_i (k_i = a_i k_{i-1} + k_{i-2}) *)
let convergent_denominators m t_bits =
  let rec go num den k_prev k_curr acc =
    if den = 0 || List.length acc > 12 then List.rev acc
    else
      let q = num / den in
      let k_next = (q * k_curr) + k_prev in
      go den (num mod den) k_curr k_next (k_next :: acc)
  in
  if m = 0 then [] else go m (1 lsl t_bits) 1 0 [] |> List.filter (fun d -> d > 0)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let pow_mod a e n =
  let rec go acc a e =
    if e = 0 then acc
    else go (if e land 1 = 1 then acc * a mod n else acc) (a * a mod n) (e lsr 1)
  in
  go 1 (a mod n) e

let order a n =
  let rec go r v = if v = 1 then r else go (r + 1) (v * a mod n) in
  go 1 (a mod n)

(* One Shor shot: returns the measured value of the exponent register. *)
let shor_circuit ~a ~n_val ~n_bits ~t_bits =
  let b = Builder.create () in
  let e = Builder.fresh_register b "e" t_bits in
  let x = Builder.fresh_register b "x" n_bits in
  Array.iter (fun q -> Builder.h b q) (Register.qubits e);
  let engine = Mod_mul.ripple_engine ~mbu:true Mod_add.spec_mixed in
  Mod_mul.modexp engine b ~a ~p:n_val ~e ~x;
  Qft.apply_inverse b e;
  let bits = Array.map (fun q -> Builder.measure b q) (Register.qubits e) in
  (b, e, x, bits)

let run_shor ~a ~n_val ~n_bits ~t_bits ~shots =
  Printf.printf "Factoring N = %d with a = %d (%d exponent qubits)\n" n_val a
    t_bits;
  let b, _, x, bits = shor_circuit ~a ~n_val ~n_bits ~t_bits in
  let circuit = Builder.to_circuit b in
  let init = Sim.init_registers ~num_qubits:(Builder.num_qubits b) [ (x, 1) ] in
  Printf.printf "  circuit: %d qubits, %d instructions\n"
    circuit.Circuit.num_qubits (Circuit.num_gates circuit);
  let prog = Sim.compile circuit in
  let found = Hashtbl.create 8 in
  let successes = ref 0 in
  for shot = 1 to shots do
    let r = Sim.run_program ~rng:(Rng.make ~stream:0x5407 ~seed:0 shot) prog ~init in
    (* the library QFT is the DFT composed with a bit reversal, so the
       standard Fourier outcome is read MSB-at-wire-0 *)
    let m =
      let v = ref 0 in
      for i = 0 to Array.length bits - 1 do
        v := (!v lsl 1) lor (if r.Sim.bits.(bits.(i)) then 1 else 0)
      done;
      !v
    in
    (* try every convergent denominator (and its double) as the period *)
    let candidates =
      List.concat_map (fun d -> [ d; 2 * d ]) (convergent_denominators m t_bits)
    in
    let hit =
      List.find_opt
        (fun r -> r > 0 && r <= n_val && pow_mod a r n_val = 1)
        candidates
    in
    match hit with
    | Some r when r mod 2 = 0 && pow_mod a (r / 2) n_val <> n_val - 1 ->
        let h = pow_mod a (r / 2) n_val in
        let f1 = gcd (h - 1) n_val and f2 = gcd (h + 1) n_val in
        if f1 > 1 && f1 < n_val then begin
          incr successes;
          Hashtbl.replace found (min f1 f2, max f1 f2) ()
        end
    | _ -> ()
  done;
  Printf.printf "  true order of %d mod %d: %d\n" a n_val (order a n_val);
  Printf.printf "  %d / %d shots produced a nontrivial factorization:\n"
    !successes shots;
  Hashtbl.iter
    (fun (f1, f2) () -> Printf.printf "    %d = %d x %d\n" n_val f1 f2)
    found;
  print_newline ()

let () =
  print_endline "=== Shor's algorithm, end to end on the sparse simulator ===\n";
  run_shor ~a:7 ~n_val:15 ~n_bits:4 ~t_bits:5 ~shots:20;
  run_shor ~a:2 ~n_val:21 ~n_bits:5 ~t_bits:6 ~shots:20;
  print_endline
    "Every modular multiplication above ran through the paper's controlled\n\
     constant modular adders with measurement-based uncomputation: the\n\
     comparator that erases each reduction flag executed, in expectation,\n\
     half the time."
