(* Increment gates and theorem 2.22's 2's-complement subtractor. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core

let rng = Helpers.rng
let value = Sim.register_value_exn

let run_on m build v =
  let b = Builder.create () in
  let y = Builder.fresh_register b "y" m in
  build b y;
  let r = Sim.run_builder ~rng b ~inits:[ (y, v) ] in
  Alcotest.(check bool) "ancillas clean" true
    (Sim.wires_zero r.Sim.state ~except:[ y ]);
  value r.Sim.state y

let test_increment_exhaustive () =
  List.iter
    (fun m ->
      for v = 0 to (1 lsl m) - 1 do
        for _ = 1 to 2 do
          Alcotest.(check int)
            (Printf.sprintf "inc m=%d v=%d" m v)
            ((v + 1) mod (1 lsl m))
            (run_on m (fun b y -> Increment.apply b y) v)
        done
      done)
    [ 1; 2; 3; 4; 5 ]

let test_decrement_exhaustive () =
  let m = 4 in
  for v = 0 to (1 lsl m) - 1 do
    Alcotest.(check int)
      (Printf.sprintf "dec v=%d" v)
      ((v - 1 + (1 lsl m)) mod (1 lsl m))
      (run_on m (fun b y -> Increment.apply_decrement b y) v)
  done

let test_controlled_increment () =
  let m = 4 in
  for ctrl_val = 0 to 1 do
    for v = 0 to (1 lsl m) - 1 do
      let b = Builder.create () in
      let c = Builder.fresh_register b "c" 1 in
      let y = Builder.fresh_register b "y" m in
      Increment.apply_controlled b ~ctrl:(Register.get c 0) y;
      let r = Sim.run_builder ~rng b ~inits:[ (c, ctrl_val); (y, v) ] in
      Alcotest.(check int)
        (Printf.sprintf "cinc c=%d v=%d" ctrl_val v)
        ((v + ctrl_val) mod (1 lsl m))
        (value r.Sim.state y);
      Alcotest.(check bool) "clean" true
        (Sim.wires_zero r.Sim.state ~except:[ c; y ])
    done
  done;
  for ctrl_val = 0 to 1 do
    let v = 0 in
    let b = Builder.create () in
    let c = Builder.fresh_register b "c" 1 in
    let y = Builder.fresh_register b "y" m in
    Increment.apply_decrement_controlled b ~ctrl:(Register.get c 0) y;
    let r = Sim.run_builder ~rng b ~inits:[ (c, ctrl_val); (y, v) ] in
    Alcotest.(check int)
      (Printf.sprintf "cdec c=%d" ctrl_val)
      ((v - ctrl_val + (1 lsl m)) mod (1 lsl m))
      (value r.Sim.state y)
  done

let test_increment_superposition () =
  (* phase correctness of the MBU ladder: uniform superposition must map to
     uniform superposition of incremented values with flat phases *)
  let m = 3 in
  let b = Builder.create () in
  let y = Builder.fresh_register b "y" m in
  Array.iter (fun q -> Builder.h b q) (Register.qubits y);
  Increment.apply b y;
  let r = Sim.run_builder ~rng b ~inits:[] in
  let amp : Complex.t = { re = 1.0 /. sqrt 8.0; im = 0.0 } in
  let expected =
    State.of_alist ~num_qubits:(State.num_qubits r.Sim.state)
      (List.init 8 (fun v ->
           let idx = ref 0 in
           for k = 0 to m - 1 do
             if (v lsr k) land 1 = 1 then idx := !idx lor (1 lsl Register.get y k)
           done;
           (!idx, amp)))
  in
  (* increment permutes the uniform superposition onto itself *)
  Alcotest.(check bool) "flat phases" true
    (State.fidelity r.Sim.state expected > 1. -. 1e-9)

let test_increment_toffoli_count () =
  let m = 20 in
  let b = Builder.create () in
  let y = Builder.fresh_register b "y" m in
  Increment.apply b y;
  let c = Circuit.counts ~mode:Counts.Worst (Builder.to_circuit b) in
  Alcotest.(check (float 0.)) "m-2 toffoli" (float_of_int (m - 2)) c.Counts.toffoli;
  (* against the generic constant adder: 2m *)
  let b2 = Builder.create () in
  let y2 = Builder.fresh_register b2 "y" (m + 1) in
  Adder.add_const Adder.Cdkpm b2 ~a:(Mbu_bitstring.Bitstring.of_int ~width:m 1) ~y:y2;
  let c2 = Circuit.counts ~mode:Counts.Worst (Builder.to_circuit b2) in
  Alcotest.(check bool) "cheaper than generic add_const 1" true
    (c.Counts.toffoli < c2.Counts.toffoli /. 2.)

let test_sub_via_twos_complement () =
  let n = 3 in
  List.iter
    (fun style ->
      for x_val = 0 to (1 lsl n) - 1 do
        for y_val = 0 to (1 lsl n) - 1 do
          let b = Builder.create () in
          let x = Builder.fresh_register b "x" n in
          let y = Builder.fresh_register b "y" (n + 1) in
          Adder.sub_via_twos_complement style b ~x ~y;
          let r = Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val) ] in
          let msg = Printf.sprintf "%s x=%d y=%d" (Adder.style_name style) x_val y_val in
          Alcotest.(check int) msg
            ((y_val - x_val) land ((1 lsl (n + 1)) - 1))
            (value r.Sim.state y);
          Alcotest.(check int) (msg ^ " x kept") x_val (value r.Sim.state x);
          Alcotest.(check bool) (msg ^ " clean") true
            (Sim.wires_zero r.Sim.state ~except:[ x; y ])
        done
      done)
    Adder.all_styles

let suite =
  ( "increment",
    [ Alcotest.test_case "increment exhaustive" `Quick test_increment_exhaustive;
      Alcotest.test_case "decrement exhaustive" `Quick test_decrement_exhaustive;
      Alcotest.test_case "controlled increment/decrement" `Quick
        test_controlled_increment;
      Alcotest.test_case "superposition phases" `Quick test_increment_superposition;
      Alcotest.test_case "toffoli count m-2" `Quick test_increment_toffoli_count;
      Alcotest.test_case "sub via 2's complement (thm 2.22 circ 9)" `Quick
        test_sub_via_twos_complement ] )
