(* Correctness of the four plain adder families (section 2) against the
   classical semantics, on exhaustive small inputs, random larger inputs and
   uniform superpositions. *)

open Mbu_circuit
open Mbu_core

let vbe b ~x ~y = Adder_vbe.add b ~x ~y
let cdkpm b ~x ~y = Adder_cdkpm.add b ~x ~y
let gidney b ~x ~y = Adder_gidney.add b ~x ~y
let draper b ~x ~y = Adder_draper.add b ~x ~y

(* ------------------------------------------------------------------ *)
(* Plain adders (propositions 2.2, 2.3, 2.4, corollary 2.7) *)

let test_vbe_exhaustive () =
  List.iter (Helpers.check_adder_exhaustive ~name:"vbe" vbe) [ 1; 2; 3; 4 ]

let test_cdkpm_exhaustive () =
  List.iter (Helpers.check_adder_exhaustive ~name:"cdkpm" cdkpm) [ 1; 2; 3; 4 ]

let test_gidney_exhaustive () =
  (* reps > 1: different measurement outcomes in the AND erasures *)
  List.iter (Helpers.check_adder_exhaustive ~reps:3 ~name:"gidney" gidney) [ 1; 2; 3; 4 ]

let test_draper_exhaustive () =
  List.iter (Helpers.check_adder_exhaustive ~name:"draper" draper) [ 1; 2; 3 ]

let test_adders_random_wide () =
  Helpers.check_adder_random ~name:"vbe" vbe 9;
  Helpers.check_adder_random ~name:"cdkpm" cdkpm 11;
  Helpers.check_adder_random ~reps:2 ~name:"gidney" gidney 10;
  Helpers.check_adder_random ~cases:10 ~name:"draper" draper 6

let test_adders_superposition () =
  Helpers.check_adder_superposition ~name:"vbe" vbe 3 5;
  Helpers.check_adder_superposition ~name:"cdkpm" cdkpm 3 2;
  Helpers.check_adder_superposition ~name:"gidney" gidney 3 6;
  Helpers.check_adder_superposition ~name:"draper" draper 3 3

(* ------------------------------------------------------------------ *)
(* MAJ/UMA algebra (figures 6, 7, 9) *)

let run3 gates init =
  let b = Builder.create () in
  let r = Mbu_circuit.Builder.fresh_register b "r" 3 in
  gates b r;
  let res = Mbu_simulator.Sim.run_builder ~rng:Helpers.rng b ~inits:[ (r, init) ] in
  Mbu_simulator.Sim.register_value_exn res.Mbu_simulator.Sim.state r

let test_maj_mapping () =
  (* wires (c, y, x) at indices (0, 1, 2):
     |c,y,x> -> |c XOR x, y XOR x, maj(x,y,c)> *)
  for v = 0 to 7 do
    let c = v land 1 and y = (v lsr 1) land 1 and x = (v lsr 2) land 1 in
    let out =
      run3
        (fun b r ->
          Adder_cdkpm.maj b ~c:(Register.get r 0) ~y:(Register.get r 1)
            ~x:(Register.get r 2))
        v
    in
    let maj = if x + y + c >= 2 then 1 else 0 in
    let expect = (c lxor x) lor ((y lxor x) lsl 1) lor (maj lsl 2) in
    Alcotest.(check int) (Printf.sprintf "maj on %d" v) expect out
  done

let test_maj_uma_identity () =
  (* figure 9: MAJ then UMA maps |c, y, x> to |c, y XOR x XOR c, x>. *)
  let variants =
    [ ("uma", Adder_cdkpm.uma); ("uma3", Adder_cdkpm.uma_3cnot) ]
  in
  List.iter
    (fun (name, uma) ->
      for v = 0 to 7 do
        let c = v land 1 and y = (v lsr 1) land 1 and x = (v lsr 2) land 1 in
        let out =
          run3
            (fun b r ->
              let cq = Register.get r 0
              and yq = Register.get r 1
              and xq = Register.get r 2 in
              Adder_cdkpm.maj b ~c:cq ~y:yq ~x:xq;
              uma b ~c:cq ~y:yq ~x:xq)
            v
        in
        let expect = c lor ((y lxor x lxor c) lsl 1) lor (x lsl 2) in
        Alcotest.(check int) (Printf.sprintf "%s maj+uma on %d" name v) expect out
      done)
    variants

let test_vbe_carry_mapping () =
  (* CARRY: |c, x, y, c'> -> |c, x, y XOR x, c' XOR maj(x,y,c)> *)
  for v = 0 to 15 do
    let c = v land 1 and x = (v lsr 1) land 1 in
    let y = (v lsr 2) land 1 and c' = (v lsr 3) land 1 in
    let b = Builder.create () in
    let r = Builder.fresh_register b "r" 4 in
    Adder_vbe.carry b ~c_in:(Register.get r 0) ~x:(Register.get r 1)
      ~y:(Register.get r 2) ~c_out:(Register.get r 3);
    let res = Mbu_simulator.Sim.run_builder ~rng:Helpers.rng b ~inits:[ (r, v) ] in
    let out = Mbu_simulator.Sim.register_value_exn res.Mbu_simulator.Sim.state r in
    let maj = if x + y + c >= 2 then 1 else 0 in
    let expect = c lor (x lsl 1) lor ((y lxor x) lsl 2) lor ((c' lxor maj) lsl 3) in
    Alcotest.(check int) (Printf.sprintf "carry on %d" v) expect out
  done

(* ------------------------------------------------------------------ *)
(* Controlled adders (theorem 2.12, proposition 2.11, theorems 2.13/2.14) *)

let test_cdkpm_controlled () =
  List.iter
    (Helpers.check_controlled_adder_exhaustive ~name:"c-cdkpm"
       (fun b ~ctrl ~x ~y -> Adder_cdkpm.add_controlled b ~ctrl ~x ~y))
    [ 1; 2; 3 ]

let test_gidney_controlled () =
  List.iter
    (Helpers.check_controlled_adder_exhaustive ~reps:2 ~name:"c-gidney"
       (fun b ~ctrl ~x ~y -> Adder_gidney.add_controlled b ~ctrl ~x ~y))
    [ 1; 2; 3 ]

let test_draper_controlled () =
  List.iter
    (Helpers.check_controlled_adder_exhaustive ~reps:2 ~name:"c-draper"
       (fun b ~ctrl ~x ~y -> Adder_draper.add_controlled b ~ctrl ~x ~y))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Comparators (propositions 2.26, 2.27, 2.28) *)

let test_cdkpm_comparator () =
  List.iter
    (Helpers.check_comparator_exhaustive ~name:"cmp-cdkpm"
       (fun b ~x ~y ~target -> Adder_cdkpm.compare b ~x ~y ~target))
    [ 1; 2; 3 ]

let test_gidney_comparator () =
  List.iter
    (Helpers.check_comparator_exhaustive ~reps:2 ~name:"cmp-gidney"
       (fun b ~x ~y ~target -> Adder_gidney.compare b ~x ~y ~target))
    [ 1; 2; 3 ]

let test_vbe_comparator () =
  List.iter
    (Helpers.check_comparator_exhaustive ~name:"cmp-vbe"
       (fun b ~x ~y ~target -> Adder_vbe.compare b ~x ~y ~target))
    [ 1; 2; 3 ]

let test_draper_comparator () =
  List.iter
    (Helpers.check_comparator_exhaustive ~name:"cmp-draper"
       (fun b ~x ~y ~target -> Adder_draper.compare b ~x ~y ~target))
    [ 1; 2 ]

let test_controlled_comparators () =
  List.iter
    (Helpers.check_controlled_comparator_exhaustive ~name:"ccmp-cdkpm"
       (fun b ~ctrl ~x ~y ~target ->
         Adder_cdkpm.compare_controlled b ~ctrl ~x ~y ~target))
    [ 1; 2; 3 ];
  List.iter
    (Helpers.check_controlled_comparator_exhaustive ~reps:2 ~name:"ccmp-gidney"
       (fun b ~ctrl ~x ~y ~target ->
         Adder_gidney.compare_controlled b ~ctrl ~x ~y ~target))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Draper building blocks *)

let test_phi_add_const_roundtrip () =
  (* QFT; Phi_ADD(a); IQFT adds a (proposition 2.17). *)
  for n = 1 to 3 do
    for a = 0 to (1 lsl n) - 1 do
      for v = 0 to (1 lsl n) - 1 do
        let b = Builder.create () in
        let y = Builder.fresh_register b "y" (n + 1) in
        Adder_draper.add_const b ~a:(Mbu_bitstring.Bitstring.of_int ~width:n a) ~y;
        let r = Mbu_simulator.Sim.run_builder ~rng:Helpers.rng b ~inits:[ (y, v) ] in
        Alcotest.(check int)
          (Printf.sprintf "add_const n=%d a=%d v=%d" n a v)
          (a + v)
          (Mbu_simulator.Sim.register_value_exn r.Mbu_simulator.Sim.state y)
      done
    done
  done

let test_const_comparator_draper () =
  for n = 1 to 3 do
    for a = 0 to (1 lsl n) - 1 do
      for v = 0 to (1 lsl n) - 1 do
        let b = Builder.create () in
        let x = Builder.fresh_register b "x" n in
        let t = Builder.fresh_register b "t" 1 in
        Adder_draper.compare_const b ~a:(Mbu_bitstring.Bitstring.of_int ~width:n a) ~x
          ~target:(Register.get t 0);
        let r =
          Mbu_simulator.Sim.run_builder ~rng:Helpers.rng b
            ~inits:[ (x, v); (t, 0) ]
        in
        let expect = if v < a then 1 else 0 in
        Alcotest.(check int)
          (Printf.sprintf "cmp_const n=%d a=%d v=%d" n a v)
          expect
          (Mbu_simulator.Sim.register_value_exn r.Mbu_simulator.Sim.state t);
        Alcotest.(check int)
          (Printf.sprintf "cmp_const x kept n=%d a=%d v=%d" n a v)
          v
          (Mbu_simulator.Sim.register_value_exn r.Mbu_simulator.Sim.state x)
      done
    done
  done

let test_add_const_controlled_draper () =
  let n = 3 in
  for ctrl_val = 0 to 1 do
    for a = 0 to (1 lsl n) - 1 do
      let v = (a * 3 + 1) land ((1 lsl n) - 1) in
      let b = Builder.create () in
      let c = Builder.fresh_register b "c" 1 in
      let y = Builder.fresh_register b "y" (n + 1) in
      Adder_draper.add_const_controlled b ~ctrl:(Register.get c 0)
        ~a:(Mbu_bitstring.Bitstring.of_int ~width:n a) ~y;
      let r =
        Mbu_simulator.Sim.run_builder ~rng:Helpers.rng b
          ~inits:[ (c, ctrl_val); (y, v) ]
      in
      Alcotest.(check int)
        (Printf.sprintf "c-add_const c=%d a=%d v=%d" ctrl_val a v)
        (v + (ctrl_val * a))
        (Mbu_simulator.Sim.register_value_exn r.Mbu_simulator.Sim.state y)
    done
  done

(* Gate-count spot checks against table 2's leading terms. *)

let counts_of_adder build n =
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" n in
  let y = Builder.fresh_register b "y" (n + 1) in
  build b ~x ~y;
  (Circuit.counts ~mode:Counts.Worst (Builder.to_circuit b), Builder.ancilla_qubits b)

let test_table2_counts () =
  let n = 16 in
  let fn = float_of_int n in
  let vbe_c, vbe_a = counts_of_adder vbe n in
  Alcotest.(check (float 0.))
    "vbe toffoli 4n-2" ((4. *. fn) -. 2.) vbe_c.Counts.toffoli;
  Alcotest.(check int) "vbe ancillas n" n vbe_a;
  let cdkpm_c, cdkpm_a = counts_of_adder cdkpm n in
  Alcotest.(check (float 0.)) "cdkpm toffoli 2n" (2. *. fn) cdkpm_c.Counts.toffoli;
  Alcotest.(check (float 0.))
    "cdkpm cnot 4n+1" ((4. *. fn) +. 1.) cdkpm_c.Counts.cnot;
  Alcotest.(check int) "cdkpm ancillas 1" 1 cdkpm_a;
  let gid_c, gid_a = counts_of_adder gidney n in
  Alcotest.(check (float 0.)) "gidney toffoli n" fn gid_c.Counts.toffoli;
  Alcotest.(check int) "gidney ancillas n-1" (n - 1) gid_a;
  let dra_c, dra_a = counts_of_adder draper n in
  Alcotest.(check int) "draper ancillas 0" 0 dra_a;
  (* cost bounded by 3 QFT_{n+1} (corollary 2.7) *)
  let units = Counts.qft_units ~m:(n + 1) dra_c in
  Alcotest.(check bool) "draper <= 3 QFT units" true (units <= 3.000001)

let suite =
  ( "adders",
    [ Alcotest.test_case "vbe exhaustive" `Quick test_vbe_exhaustive;
      Alcotest.test_case "cdkpm exhaustive" `Quick test_cdkpm_exhaustive;
      Alcotest.test_case "gidney exhaustive" `Quick test_gidney_exhaustive;
      Alcotest.test_case "draper exhaustive" `Quick test_draper_exhaustive;
      Alcotest.test_case "random wide" `Quick test_adders_random_wide;
      Alcotest.test_case "superposition inputs" `Quick test_adders_superposition;
      Alcotest.test_case "maj truth table" `Quick test_maj_mapping;
      Alcotest.test_case "maj+uma identity" `Quick test_maj_uma_identity;
      Alcotest.test_case "vbe carry gate" `Quick test_vbe_carry_mapping;
      Alcotest.test_case "cdkpm controlled" `Quick test_cdkpm_controlled;
      Alcotest.test_case "gidney controlled" `Quick test_gidney_controlled;
      Alcotest.test_case "draper controlled" `Quick test_draper_controlled;
      Alcotest.test_case "cdkpm comparator" `Quick test_cdkpm_comparator;
      Alcotest.test_case "gidney comparator" `Quick test_gidney_comparator;
      Alcotest.test_case "vbe comparator" `Quick test_vbe_comparator;
      Alcotest.test_case "draper comparator" `Quick test_draper_comparator;
      Alcotest.test_case "controlled comparators" `Quick test_controlled_comparators;
      Alcotest.test_case "draper constant add" `Quick test_phi_add_const_roundtrip;
      Alcotest.test_case "draper constant comparator" `Quick
        test_const_comparator_draper;
      Alcotest.test_case "draper controlled constant add" `Quick
        test_add_const_controlled_draper;
      Alcotest.test_case "table 2 gate counts" `Quick test_table2_counts ] )
