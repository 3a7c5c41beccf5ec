(* Modular multiplication / exponentiation extension, built from the paper's
   controlled constant modular adders. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core

let rng = Helpers.rng
let value = Sim.register_value_exn

let test_modinv () =
  Alcotest.(check int) "3^-1 mod 7" 5 (Mod_mul.modinv ~a:3 ~p:7);
  Alcotest.(check int) "1^-1 mod 5" 1 (Mod_mul.modinv ~a:1 ~p:5);
  Alcotest.(check int) "4^-1 mod 7" 2 (Mod_mul.modinv ~a:4 ~p:7);
  for a = 1 to 28 do
    if a mod 29 <> 0 then
      Alcotest.(check int)
        (Printf.sprintf "inv %d mod 29" a)
        1
        (a * Mod_mul.modinv ~a ~p:29 mod 29)
  done;
  Alcotest.check_raises "non-coprime"
    (Invalid_argument "Mod_mul.modinv: not coprime") (fun () ->
      ignore (Mod_mul.modinv ~a:6 ~p:9))

let engines =
  [ ("ripple-cdkpm+mbu", Mod_mul.ripple_engine ~mbu:true Mod_add.spec_cdkpm);
    ("ripple-mixed", Mod_mul.ripple_engine ~mbu:false Mod_add.spec_mixed);
    ("draper+mbu", Mod_mul.draper_engine ~mbu:true ()) ]

let test_cmult_add () =
  let n = 3 and p = 7 in
  List.iter
    (fun (name, engine) ->
      for ctrl_val = 0 to 1 do
        List.iter
          (fun a ->
            for x_val = 0 to p - 1 do
              let t_val = (x_val * 3 + 1) mod p in
              let b = Builder.create () in
              let c = Builder.fresh_register b "c" 1 in
              let x = Builder.fresh_register b "x" n in
              let t = Builder.fresh_register b "t" n in
              Mod_mul.cmult_add engine b ~ctrl:(Register.get c 0) ~a ~p ~x ~target:t;
              let r =
                Sim.run_builder ~rng b
                  ~inits:[ (c, ctrl_val); (x, x_val); (t, t_val) ]
              in
              let msg = Printf.sprintf "%s c=%d a=%d x=%d t=%d" name ctrl_val a x_val t_val in
              Alcotest.(check int) msg
                ((t_val + (ctrl_val * a * x_val)) mod p)
                (value r.Sim.state t);
              Alcotest.(check int) (msg ^ " x kept") x_val (value r.Sim.state x);
              Alcotest.(check bool) (msg ^ " clean") true
                (Sim.wires_zero r.Sim.state ~except:[ c; x; t ])
            done)
          [ 1; 3; 5 ]
      done)
    engines

(* target <- (target - c.a.x) mod p on every input, x kept, ancillas
   clean. *)
let test_cmult_sub () =
  let n = 3 in
  List.iter
    (fun (name, engine) ->
      List.iter
        (fun (p, a) ->
          let b = Builder.create () in
          let c = Builder.fresh_register b "c" 1 in
          let x = Builder.fresh_register b "x" n in
          let t = Builder.fresh_register b "t" n in
          Mod_mul.cmult_sub engine b ~ctrl:(Register.get c 0) ~a ~p ~x ~target:t;
          for ctrl_val = 0 to 1 do
            for x_val = 0 to p - 1 do
              for t_val = 0 to p - 1 do
                let r =
                  Sim.run_builder ~rng b
                    ~inits:[ (c, ctrl_val); (x, x_val); (t, t_val) ]
                in
                let msg =
                  Printf.sprintf "%s p=%d c=%d a=%d x=%d t=%d" name p ctrl_val a
                    x_val t_val
                in
                Alcotest.(check int) msg
                  ((((t_val - (ctrl_val * a * x_val)) mod p) + p) mod p)
                  (value r.Sim.state t);
                Alcotest.(check int) (msg ^ " x kept") x_val (value r.Sim.state x);
                Alcotest.(check bool) (msg ^ " clean") true
                  (Sim.wires_zero r.Sim.state ~except:[ c; x; t ])
              done
            done
          done)
        [ (5, 2); (5, 4); (7, 3); (7, 6) ])
    engines

let test_cmult_inplace () =
  let n = 3 and p = 7 in
  List.iter
    (fun (name, engine) ->
      for ctrl_val = 0 to 1 do
        List.iter
          (fun a ->
            for x_val = 0 to p - 1 do
              let b = Builder.create () in
              let c = Builder.fresh_register b "c" 1 in
              let x = Builder.fresh_register b "x" n in
              Mod_mul.cmult_inplace engine b ~ctrl:(Register.get c 0) ~a ~p ~x;
              let r = Sim.run_builder ~rng b ~inits:[ (c, ctrl_val); (x, x_val) ] in
              let msg = Printf.sprintf "%s c=%d a=%d x=%d" name ctrl_val a x_val in
              let expect = if ctrl_val = 1 then a * x_val mod p else x_val in
              Alcotest.(check int) msg expect (value r.Sim.state x);
              Alcotest.(check bool) (msg ^ " clean") true
                (Sim.wires_zero r.Sim.state ~except:[ c; x ])
            done)
          [ 2; 3 ]
      done)
    engines

let test_modexp () =
  let n = 3 and p = 7 and a = 3 in
  let engine = Mod_mul.ripple_engine ~mbu:true Mod_add.spec_mixed in
  for e_val = 0 to 3 do
    for x_val = 1 to p - 1 do
      let b = Builder.create () in
      let e = Builder.fresh_register b "e" 2 in
      let x = Builder.fresh_register b "x" n in
      Mod_mul.modexp engine b ~a ~p ~e ~x;
      let r = Sim.run_builder ~rng b ~inits:[ (e, e_val); (x, x_val) ] in
      let rec pow acc k = if k = 0 then acc else pow (acc * a mod p) (k - 1) in
      let msg = Printf.sprintf "modexp e=%d x=%d" e_val x_val in
      Alcotest.(check int) msg (pow x_val e_val) (value r.Sim.state x);
      Alcotest.(check int) (msg ^ " e kept") e_val (value r.Sim.state e);
      Alcotest.(check bool) (msg ^ " clean") true
        (Sim.wires_zero r.Sim.state ~except:[ e; x ])
    done
  done

(* Shor-flavoured check: modexp on a superposed exponent register gives the
   entangled sum_e |e>|a^e mod p>. *)
let test_modexp_superposition () =
  let n = 3 and p = 7 and a = 2 in
  let engine = Mod_mul.ripple_engine ~mbu:true Mod_add.spec_cdkpm in
  let b = Builder.create () in
  let e = Builder.fresh_register b "e" 2 in
  let x = Builder.fresh_register b "x" n in
  Array.iter (fun q -> Builder.h b q) (Register.qubits e);
  Mod_mul.modexp engine b ~a ~p ~e ~x;
  let r = Sim.run_builder ~rng b ~inits:[ (x, 1) ] in
  let amp : Complex.t = { re = 0.5; im = 0.0 } in
  let idx e_val x_val =
    let i = ref 0 in
    for k = 0 to 1 do
      if (e_val lsr k) land 1 = 1 then i := !i lor (1 lsl Register.get e k)
    done;
    for k = 0 to n - 1 do
      if (x_val lsr k) land 1 = 1 then i := !i lor (1 lsl Register.get x k)
    done;
    !i
  in
  let rec pow acc k = if k = 0 then acc else pow (acc * a mod p) (k - 1) in
  let expected =
    State.of_alist ~num_qubits:(State.num_qubits r.Sim.state)
      (List.init 4 (fun e_val -> (idx e_val (pow 1 e_val), amp)))
  in
  let f = State.fidelity r.Sim.state expected in
  Alcotest.(check bool)
    (Printf.sprintf "shor-style entangled state, fidelity %.6f" f)
    true (f > 1. -. 1e-9)

(* MBU should strictly reduce the expected Toffoli count of a multiplier. *)
let test_cmult_mbu_saves () =
  let n = 6 and p = 53 and a = 29 in
  let count mbu =
    let b = Builder.create () in
    let c = Builder.fresh_register b "c" 1 in
    let x = Builder.fresh_register b "x" n in
    let t = Builder.fresh_register b "t" n in
    let engine = Mod_mul.ripple_engine ~mbu Mod_add.spec_cdkpm in
    Mod_mul.cmult_add engine b ~ctrl:(Register.get c 0) ~a ~p ~x ~target:t;
    (Circuit.counts ~mode:(Counts.Expected 0.5) (Builder.to_circuit b)).Counts.toffoli
  in
  let without = count false and with_mbu = count true in
  Alcotest.(check bool)
    (Printf.sprintf "mbu multiplier cheaper (%.1f < %.1f)" with_mbu without)
    true
    (with_mbu < without)


(* Windowed multiply-accumulate (Gidney's windowed arithmetic on top of the
   paper's modular adders + QROM unlookup). *)
let test_cmult_windowed () =
  let n = 4 and p = 13 in
  List.iter
    (fun window ->
      for ctrl_val = 0 to 1 do
        List.iter
          (fun a ->
            List.iter
              (fun (x_val, t_val) ->
                let b = Builder.create () in
                let c = Builder.fresh_register b "c" 1 in
                let x = Builder.fresh_register b "x" n in
                let t = Builder.fresh_register b "t" n in
                Mod_mul.cmult_add_windowed ~window ~mbu:true Mod_add.spec_cdkpm
                  b ~ctrl:(Register.get c 0) ~a ~p ~x ~target:t;
                let r =
                  Sim.run_builder ~rng b
                    ~inits:[ (c, ctrl_val); (x, x_val); (t, t_val) ]
                in
                let msg =
                  Printf.sprintf "w=%d c=%d a=%d x=%d t=%d" window ctrl_val a
                    x_val t_val
                in
                Alcotest.(check int) msg
                  ((t_val + (ctrl_val * a * x_val)) mod p)
                  (value r.Sim.state t);
                Alcotest.(check int) (msg ^ " x kept") x_val (value r.Sim.state x);
                Alcotest.(check bool) (msg ^ " clean") true
                  (Sim.wires_zero r.Sim.state ~except:[ c; x; t ]))
              [ (0, 0); (5, 7); (12, 12); (9, 1); (11, 6) ])
          [ 1; 5; 12 ]
      done)
    [ 1; 2; 3 ]

let test_windowed_beats_bitwise () =
  (* at moderate width the windowed ladder needs fewer Toffoli than the
     bit-at-a-time ladder *)
  let n = 16 and p = 54613 and a = 12345 in
  let tof build =
    let b = Builder.create () in
    let c = Builder.fresh_register b "c" 1 in
    let x = Builder.fresh_register b "x" n in
    let t = Builder.fresh_register b "t" n in
    build b ~ctrl:(Register.get c 0) ~x ~t;
    (Circuit.counts ~mode:(Counts.Expected 0.5) (Builder.to_circuit b)).Counts.toffoli
  in
  let bitwise =
    tof (fun b ~ctrl ~x ~t ->
        Mod_mul.cmult_add (Mod_mul.ripple_engine ~mbu:true Mod_add.spec_cdkpm) b
          ~ctrl ~a ~p ~x ~target:t)
  in
  let windowed =
    tof (fun b ~ctrl ~x ~t ->
        Mod_mul.cmult_add_windowed ~window:4 ~mbu:true Mod_add.spec_cdkpm b
          ~ctrl ~a ~p ~x ~target:t)
  in
  Alcotest.(check bool)
    (Printf.sprintf "windowed %.0f < bitwise %.0f" windowed bitwise)
    true
    (windowed < bitwise)


(* Uncontrolled multiplication and fully quantum multiply-accumulate. *)
let test_mult_inplace () =
  let n = 3 and p = 7 in
  let engine = Mod_mul.ripple_engine ~mbu:true Mod_add.spec_cdkpm in
  List.iter
    (fun a ->
      for x_val = 0 to p - 1 do
        let b = Builder.create () in
        let x = Builder.fresh_register b "x" n in
        Mod_mul.mult_inplace engine b ~a ~p ~x;
        let r = Sim.run_builder ~rng b ~inits:[ (x, x_val) ] in
        let msg = Printf.sprintf "a=%d x=%d" a x_val in
        Alcotest.(check int) msg (a * x_val mod p) (value r.Sim.state x);
        Alcotest.(check bool) (msg ^ " clean") true
          (Sim.wires_zero r.Sim.state ~except:[ x ])
      done)
    [ 1; 2; 3; 4; 5; 6 ]

let test_mul_register () =
  let n = 3 and p = 7 in
  let engine = Mod_mul.ripple_engine ~mbu:true Mod_add.spec_cdkpm in
  for x_val = 0 to p - 1 do
    for y_val = 0 to p - 1 do
      let t_val = (x_val + (2 * y_val)) mod p in
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" n in
      let t = Builder.fresh_register b "t" n in
      Mod_mul.mul_register engine b ~x ~y ~p ~target:t;
      let r =
        Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val); (t, t_val) ]
      in
      let msg = Printf.sprintf "x=%d y=%d t=%d" x_val y_val t_val in
      Alcotest.(check int) msg
        ((t_val + (x_val * y_val)) mod p)
        (value r.Sim.state t);
      Alcotest.(check int) (msg ^ " x kept") x_val (value r.Sim.state x);
      Alcotest.(check int) (msg ^ " y kept") y_val (value r.Sim.state y);
      Alcotest.(check bool) (msg ^ " clean") true
        (Sim.wires_zero r.Sim.state ~except:[ x; y; t ])
    done
  done

(* p = 1: every weight is 0 mod p, so nothing is added and every input
   is left as it was. *)
let test_mul_register_unit_modulus () =
  let n = 2 and p = 1 in
  List.iter
    (fun (name, engine) ->
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" n in
      let t = Builder.fresh_register b "t" n in
      Mod_mul.mul_register engine b ~x ~y ~p ~target:t;
      for x_val = 0 to (1 lsl n) - 1 do
        for y_val = 0 to (1 lsl n) - 1 do
          let r = Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val) ] in
          let msg = Printf.sprintf "%s x=%d y=%d" name x_val y_val in
          Alcotest.(check int) msg 0 (value r.Sim.state t);
          Alcotest.(check int) (msg ^ " x kept") x_val (value r.Sim.state x);
          Alcotest.(check int) (msg ^ " y kept") y_val (value r.Sim.state y);
          Alcotest.(check bool) (msg ^ " clean") true
            (Sim.wires_zero r.Sim.state ~except:[ x; y; t ])
        done
      done)
    engines

let test_mul_register_superposition () =
  (* quantum-quantum product on superposed operands stays entangled and
     phase-flat *)
  let n = 2 and p = 3 in
  let engine = Mod_mul.ripple_engine ~mbu:true Mod_add.spec_cdkpm in
  (* superpose x over {1, 3}: H on bit 1 with bit 0 set *)
  let b2 = Builder.create () in
  let x = Builder.fresh_register b2 "x" n in
  let y = Builder.fresh_register b2 "y" n in
  let t = Builder.fresh_register b2 "t" n in
  Builder.x b2 (Register.get x 0);
  Builder.h b2 (Register.get x 1);
  Mod_mul.mul_register engine b2 ~x ~y ~p ~target:t;
  let res = Sim.run_builder ~rng b2 ~inits:[ (y, 2); (t, 0) ] in
  let amp : Complex.t = { re = 1.0 /. sqrt 2.0; im = 0.0 } in
  let idx x_val t_val =
    let i = ref 0 in
    for k = 0 to n - 1 do
      if (x_val lsr k) land 1 = 1 then i := !i lor (1 lsl Register.get x k);
      if (2 lsr k) land 1 = 1 then i := !i lor (1 lsl Register.get y k);
      if (t_val lsr k) land 1 = 1 then i := !i lor (1 lsl Register.get t k)
    done;
    !i
  in
  let expected =
    State.of_alist ~num_qubits:(State.num_qubits res.Sim.state)
      [ (idx 1 (1 * 2 mod p), amp); (idx 3 (3 * 2 mod p), amp) ]
  in
  Alcotest.(check bool) "entangled product" true
    (State.fidelity res.Sim.state expected > 1. -. 1e-9)

(* A modulus or width out of range is a structured [Invalid] error, which
   mbu-cli prints as one line, for the bitwise and windowed multipliers. *)
let test_out_of_range () =
  let raises what subsystem ~n ~p ~a f =
    let b = Builder.create () in
    let c = Builder.fresh_register b "c" 1 in
    let x = Builder.fresh_register b "x" n in
    let t = Builder.fresh_register b "t" n in
    match f b ~ctrl:(Register.get c 0) ~a ~p ~x ~target:t with
    | () -> Alcotest.failf "%s: expected Mbu_error" what
    | exception Mbu_error.Error { kind = Mbu_error.Invalid; subsystem = s; _ } ->
        Alcotest.(check string) (what ^ ": subsystem") subsystem s
  in
  let engine = Mod_mul.ripple_engine ~mbu:true Mod_add.spec_cdkpm in
  let spec = Mod_add.spec_cdkpm in
  let exponent ctrl = Register.make ~name:"e" [| ctrl |] in
  let in_place =
    [ ( "cmult_inplace", "Mod_mul.cmult_inplace",
        fun b ~ctrl ~a ~p ~x ~target:_ ->
          Mod_mul.cmult_inplace engine b ~ctrl ~a ~p ~x );
      ( "mult_inplace", "Mod_mul.mult_inplace",
        fun b ~ctrl:_ ~a ~p ~x ~target:_ -> Mod_mul.mult_inplace engine b ~a ~p ~x ) ]
  and ladders =
    [ ( "modexp", "Mod_mul.modexp",
        fun b ~ctrl ~a ~p ~x ~target:_ ->
          Mod_mul.modexp engine b ~a ~p ~e:(exponent ctrl) ~x );
      ( "modexp_windowed", "Mod_mul.modexp_windowed",
        fun b ~ctrl ~a ~p ~x ~target:_ ->
          Mod_mul.modexp_windowed spec b ~a ~p ~e:(exponent ctrl) ~x ) ]
  in
  List.iter
    (fun (name, subsystem, f) ->
      raises (name ^ " n = 62") subsystem ~n:62 ~p:5 ~a:3 f;
      raises (name ^ " p = 2^n") subsystem ~n:4 ~p:16 ~a:3 f;
      raises (name ^ " p = 0") subsystem ~n:4 ~p:0 ~a:3 f)
    ([ ( "cmult", "Mod_mul.cmult_add",
         fun b ~ctrl ~a ~p ~x ~target ->
           Mod_mul.cmult_add engine b ~ctrl ~a ~p ~x ~target );
       ( "windowed", "Mod_mul.cmult_add_windowed",
         fun b ~ctrl ~a ~p ~x ~target ->
           Mod_mul.cmult_add_windowed ~mbu:true spec b ~ctrl ~a ~p ~x ~target );
       ( "cmult_sub", "Mod_mul.cmult_sub",
         fun b ~ctrl ~a ~p ~x ~target ->
           Mod_mul.cmult_sub engine b ~ctrl ~a ~p ~x ~target ) ]
    @ in_place @ ladders);
  (* An in-place multiplier needs a unit a, and a ladder squares exactly
     only below 2^31. *)
  List.iter
    (fun (name, subsystem, f) ->
      raises (name ^ " a = 6, p = 9") subsystem ~n:4 ~p:9 ~a:6 f)
    (in_place @ ladders);
  List.iter
    (fun (name, subsystem, f) ->
      raises (name ^ " p = 2^31 + 1") subsystem ~n:40 ~p:((1 lsl 31) + 1) ~a:2 f)
    ladders;
  (* A multiplier register [y] of another length than [x]. *)
  List.iter
    (fun d ->
      raises
        (Printf.sprintf "mul_register |y| = n %+d" d)
        "Mod_mul.mul_register" ~n:4 ~p:11 ~a:3
        (fun b ~ctrl:_ ~a:_ ~p ~x ~target ->
          let y = Builder.fresh_register b "y" (Register.length x + d) in
          Mod_mul.mul_register engine b ~x ~y ~p ~target))
    [ -1; 1 ]

let suite =
  ( "mod-mul",
    [ Alcotest.test_case "modular inverse" `Quick test_modinv;
      Alcotest.test_case "controlled multiply-accumulate" `Quick test_cmult_add;
      Alcotest.test_case "controlled multiply-subtract" `Quick test_cmult_sub;
      Alcotest.test_case "in-place controlled multiplication" `Quick
        test_cmult_inplace;
      Alcotest.test_case "modular exponentiation" `Quick test_modexp;
      Alcotest.test_case "modexp on superposed exponent" `Quick
        test_modexp_superposition;
      Alcotest.test_case "mbu reduces multiplier cost" `Quick test_cmult_mbu_saves;
      Alcotest.test_case "windowed multiply (Gid19c)" `Quick test_cmult_windowed;
      Alcotest.test_case "windowed beats bitwise" `Quick test_windowed_beats_bitwise;
      Alcotest.test_case "uncontrolled in-place multiply" `Quick test_mult_inplace;
      Alcotest.test_case "register-register multiply" `Quick test_mul_register;
      Alcotest.test_case "register multiply, p = 1" `Quick
        test_mul_register_unit_modulus;
      Alcotest.test_case "register multiply superposition" `Quick
        test_mul_register_superposition;
      Alcotest.test_case "out-of-range modulus is an Mbu_error" `Quick
        test_out_of_range ] )
