(* Remark 2.32 (unequal-width comparator), remark 3.3 (modular reduction
   with explicit flag), and modular subtraction. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core

let rng = Helpers.rng
let value = Sim.register_value_exn

let test_compare_unequal () =
  let n = 3 in
  List.iter
    (fun style ->
      for x_val = 0 to (1 lsl n) - 1 do
        for y_val = 0 to (1 lsl (n + 1)) - 1 do
          let b = Builder.create () in
          let x = Builder.fresh_register b "x" n in
          let y = Builder.fresh_register b "y" (n + 1) in
          let t = Builder.fresh_register b "t" 1 in
          Adder.compare_unequal style b ~x ~y ~target:(Register.get t 0);
          let r = Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val); (t, 0) ] in
          let msg =
            Printf.sprintf "%s x=%d y=%d" (Adder.style_name style) x_val y_val
          in
          Alcotest.(check int) msg
            (if x_val > y_val then 1 else 0)
            (value r.Sim.state t);
          Alcotest.(check int) (msg ^ " y kept") y_val (value r.Sim.state y);
          Alcotest.(check bool) (msg ^ " clean") true
            (Sim.wires_zero r.Sim.state ~except:[ x; y; t ])
        done
      done)
    [ Adder.Cdkpm; Adder.Gidney ]

let test_compare_unequal_single_extra_toffoli () =
  (* remark 2.32's cost claim: one Toffoli more than the controlled
     comparator baseline which itself is one more than the plain one *)
  let n = 16 in
  let tof build =
    let b = Builder.create () in
    build b;
    (Circuit.counts ~mode:Counts.Worst (Builder.to_circuit b)).Counts.toffoli
  in
  let plain =
    tof (fun b ->
        let x = Builder.fresh_register b "x" n in
        let y = Builder.fresh_register b "y" n in
        let t = Builder.fresh_register b "t" 1 in
        Adder.compare Adder.Cdkpm b ~x ~y ~target:(Register.get t 0))
  in
  let unequal =
    tof (fun b ->
        let x = Builder.fresh_register b "x" n in
        let y = Builder.fresh_register b "y" (n + 1) in
        let t = Builder.fresh_register b "t" 1 in
        Adder.compare_unequal Adder.Cdkpm b ~x ~y ~target:(Register.get t 0))
  in
  Alcotest.(check (float 0.)) "exactly one extra toffoli" (plain +. 1.) unequal

let test_reduce () =
  let n = 3 in
  List.iter
    (fun (sname, spec) ->
      List.iter
        (fun p ->
          for x_val = 0 to (2 * p) - 1 do
            let b = Builder.create () in
            let x = Builder.fresh_register b "x" (n + 1) in
            let f = Builder.fresh_register b "f" 1 in
            Mod_add.reduce spec b ~p ~x ~flag:(Register.get f 0);
            let r = Sim.run_builder ~rng b ~inits:[ (x, x_val); (f, 0) ] in
            let msg = Printf.sprintf "%s p=%d x=%d" sname p x_val in
            Alcotest.(check int) msg (x_val mod p) (value r.Sim.state x);
            Alcotest.(check int) (msg ^ " flag")
              (if x_val >= p then 1 else 0)
              (value r.Sim.state f);
            Alcotest.(check bool) (msg ^ " clean") true
              (Sim.wires_zero r.Sim.state ~except:[ x; f ])
          done)
        [ 5; 7 ])
    [ ("cdkpm", Mod_add.spec_cdkpm); ("gidney", Mod_add.spec_gidney) ]

let test_modsub () =
  let n = 3 in
  List.iter
    (fun (sname, spec) ->
      List.iter
        (fun mbu ->
          List.iter
            (fun p ->
              for x_val = 0 to p - 1 do
                for y_val = 0 to p - 1 do
                  let b = Builder.create () in
                  let x = Builder.fresh_register b "x" n in
                  let y = Builder.fresh_register b "y" n in
                  Mod_add.modsub ~mbu spec b ~p ~x ~y;
                  let r =
                    Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val) ]
                  in
                  let msg =
                    Printf.sprintf "%s%s p=%d x=%d y=%d" sname
                      (if mbu then "+mbu" else "") p x_val y_val
                  in
                  Alcotest.(check int) msg
                    (((y_val - x_val) mod p + p) mod p)
                    (value r.Sim.state y);
                  Alcotest.(check int) (msg ^ " x kept") x_val (value r.Sim.state x);
                  Alcotest.(check bool) (msg ^ " clean") true
                    (Sim.wires_zero r.Sim.state ~except:[ x; y ])
                done
              done)
            [ 5; 7 ])
        [ false; true ])
    [ ("cdkpm", Mod_add.spec_cdkpm); ("mixed", Mod_add.spec_mixed) ]

let test_modadd_modsub_roundtrip () =
  let n = 4 and p = 13 in
  for trial = 1 to 15 do
    let x_val = Random.State.int rng p and y_val = Random.State.int rng p in
    let b = Builder.create () in
    let x = Builder.fresh_register b "x" n in
    let y = Builder.fresh_register b "y" n in
    Mod_add.modadd ~mbu:true Mod_add.spec_mixed b ~p ~x ~y;
    Mod_add.modsub ~mbu:true Mod_add.spec_mixed b ~p ~x ~y;
    let r = Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val) ] in
    Alcotest.(check int)
      (Printf.sprintf "trial %d" trial)
      y_val (value r.Sim.state y)
  done

let test_modsub_const () =
  let n = 3 and p = 7 in
  for a = 0 to p - 1 do
    for x_val = 0 to p - 1 do
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      Mod_add.modsub_const ~mbu:true Mod_add.spec_cdkpm b ~p ~a ~x;
      let r = Sim.run_builder ~rng b ~inits:[ (x, x_val) ] in
      Alcotest.(check int)
        (Printf.sprintf "a=%d x=%d" a x_val)
        (((x_val - a) mod p + p) mod p)
        (value r.Sim.state x)
    done
  done;
  (* A zero modulus is the modulus check's structured error, raised before
     the addend is compared with it. *)
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" n in
  match Mod_add.modsub_const Mod_add.spec_cdkpm b ~p:0 ~a:0 ~x with
  | () -> Alcotest.fail "p = 0: expected Mbu_error"
  | exception Mbu_error.Error { kind = Mbu_error.Invalid; subsystem; _ } ->
      Alcotest.(check string) "p = 0: subsystem" "Mod_add.modsub_const" subsystem

let suite =
  ( "mod-extras",
    [ Alcotest.test_case "unequal comparator (remark 2.32)" `Quick
        test_compare_unequal;
      Alcotest.test_case "unequal comparator cost" `Quick
        test_compare_unequal_single_extra_toffoli;
      Alcotest.test_case "reduction with flag (remark 3.3)" `Quick test_reduce;
      Alcotest.test_case "modular subtraction" `Quick test_modsub;
      Alcotest.test_case "modadd/modsub roundtrip" `Quick
        test_modadd_modsub_roundtrip;
      Alcotest.test_case "constant modular subtraction" `Quick test_modsub_const ] )
