(* Grover search over a modular-arithmetic predicate.

   The paper's introduction lists "oracles for Grover's search" among the
   applications of efficient arithmetic circuits. This example builds such
   an oracle from the library's pieces — an in-place modular multiplication
   and the two-sided comparator of theorem 4.13, both MBU-optimized — and
   runs full Grover iterations on the simulator:

       find x in [0, p) such that (a.x mod p) is in (lo, hi).

     dune exec examples/grover.exe *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core

let n = 4
let search_bits = 3 (* superpose x over [0, 8) so x < p always holds *)
let p = 13
let a = 5
let lo = 8
let hi = 12

let engine = Mod_mul.ripple_engine ~mbu:true Mod_add.spec_cdkpm

(* phase oracle: |x> -> (-1)^{a.x mod p in (lo,hi)} |x> *)
let oracle b ~x ~lo_reg ~hi_reg ~flag =
  Mod_mul.mult_inplace engine b ~a ~p ~x;
  Mbu.in_range ~mbu:true Adder.Cdkpm b ~x ~y:lo_reg ~z:hi_reg ~target:flag;
  Builder.z b flag;
  Mbu.in_range ~mbu:true Adder.Cdkpm b ~x ~y:lo_reg ~z:hi_reg ~target:flag;
  Mod_mul.mult_inplace engine b ~a:(Mod_mul.modinv ~a ~p) ~p ~x

(* diffusion about the uniform superposition over the search subspace *)
let diffusion b ~x =
  let qs = Register.to_list (Register.sub x ~pos:0 ~len:search_bits) in
  List.iter (fun q -> Builder.h b q) qs;
  List.iter (fun q -> Builder.x b q) qs;
  (match List.rev qs with
  | target :: controls -> Mcx.apply_z b ~controls ~target
  | [] -> ());
  List.iter (fun q -> Builder.x b q) qs;
  List.iter (fun q -> Builder.h b q) qs

let marked x = a * x mod p > lo && a * x mod p < hi

let () =
  let domain = 1 lsl search_bits in
  let marked_list =
    List.filter_map
      (fun x -> if marked x then Some (string_of_int x) else None)
      (List.init domain Fun.id)
  in
  Printf.printf
    "Searching x < %d with %d.x mod %d in (%d, %d); marked values: {%s}\n\n"
    domain a p lo hi
    (String.concat ", " marked_list);
  let iterations = [ 0; 1; 2 ] in
  List.iter
    (fun iters ->
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let lo_reg = Builder.fresh_register b "lo" n in
      let hi_reg = Builder.fresh_register b "hi" n in
      let flag = Builder.fresh_register b "flag" 1 in
      for i = 0 to search_bits - 1 do
        Builder.h b (Register.get x i)
      done;
      for _ = 1 to iters do
        oracle b ~x ~lo_reg ~hi_reg ~flag:(Register.get flag 0);
        diffusion b ~x
      done;
      let c = Builder.to_circuit b in
      let init =
        Sim.init_registers ~num_qubits:(Builder.num_qubits b)
          [ (lo_reg, lo); (hi_reg, hi) ]
      in
      let shots = 400 in
      let counts =
        Sim.sample_register ~seed:iters ~shots c ~init x
      in
      let hit =
        List.fold_left
          (fun acc (v, k) -> if marked v then acc + k else acc)
          0 counts
      in
      Printf.printf "  %d Grover iteration(s): marked probability %5.1f%%" iters
        (100. *. float_of_int hit /. float_of_int shots);
      let top =
        match counts with
        | (v, k) :: _ -> Printf.sprintf " (most frequent: x=%d, %d/%d)" v k shots
        | [] -> ""
      in
      print_endline top)
    iterations;
  let m = List.length marked_list in
  let theta = asin (sqrt (float_of_int m /. float_of_int domain)) in
  Printf.printf
    "\n(%d marked of %d: the sin^2((2k+1) theta) law predicts %.1f%% after 1\n\
    \ iteration and %.1f%% after 2)\n" m domain
    (100. *. (sin (3. *. theta) ** 2.))
    (100. *. (sin (5. *. theta) ** 2.))
