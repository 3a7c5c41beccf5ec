(* Modular adders (section 3) and their MBU variants (section 4), validated
   exhaustively against integer arithmetic for several moduli, with and
   without measurement-based uncomputation, including on superposed inputs
   (which is where a wrong MBU phase correction would show up). *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core

let rng = Helpers.rng
let value = Sim.register_value_exn

let specs =
  [ ("cdkpm", Mod_add.spec_cdkpm); ("gidney", Mod_add.spec_gidney);
    ("mixed", Mod_add.spec_mixed) ]

(* Exhaustive check of y <- (x+y) mod p over all 0 <= x, y < p. *)
let check_modadd ~name build n p ~reps =
  for x_val = 0 to p - 1 do
    for y_val = 0 to p - 1 do
      for _ = 1 to reps do
        let b = Builder.create () in
        let x = Builder.fresh_register b "x" n in
        let y = Builder.fresh_register b "y" n in
        build b ~p ~x ~y;
        let r = Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val) ] in
        let msg tag =
          Printf.sprintf "%s n=%d p=%d %s (x=%d y=%d)" name n p tag x_val y_val
        in
        Alcotest.(check int) (msg "sum") ((x_val + y_val) mod p)
          (value r.Sim.state y);
        Alcotest.(check int) (msg "x kept") x_val (value r.Sim.state x);
        Alcotest.(check bool) (msg "clean") true
          (Sim.wires_zero r.Sim.state ~except:[ x; y ])
      done
    done
  done

let moduli n = [ (1 lsl n) - 1; (1 lsl n) - 3; (1 lsl (n - 1)) + 1 ]

let test_modadd_specs () =
  List.iter
    (fun (sname, spec) ->
      List.iter
        (fun mbu ->
          let name = Printf.sprintf "modadd-%s%s" sname (if mbu then "+mbu" else "") in
          List.iter
            (fun p -> check_modadd ~name (Mod_add.modadd ~mbu spec) 3 p ~reps:2)
            (moduli 3))
        [ false; true ])
    specs

let test_modadd_vbe_variants () =
  List.iter
    (fun (name, build) ->
      List.iter
        (fun mbu ->
          let nm = Printf.sprintf "%s%s" name (if mbu then "+mbu" else "") in
          List.iter (fun p -> check_modadd ~name:nm (build ~mbu) 3 p ~reps:2) (moduli 3))
        [ false; true ])
    [ ("vbe5", fun ~mbu -> Mod_add.modadd_vbe_5adder ~mbu);
      ("vbe4", fun ~mbu -> Mod_add.modadd_vbe_4adder ~mbu) ]

let test_modadd_draper () =
  List.iter
    (fun mbu ->
      let nm = Printf.sprintf "modadd-draper%s" (if mbu then "+mbu" else "") in
      List.iter
        (fun p -> check_modadd ~name:nm (Mod_add.modadd_draper ~mbu) 3 p ~reps:2)
        (moduli 3))
    [ false; true ]

(* Superposition: x uniform over [0, 2^n) is not valid modular input (needs
   x < p), so superpose y over [0, p) by hand instead... simpler: prepare a
   two-term superposition of valid inputs with an H on a low qubit when
   p > 2, and check exact final state. *)
let test_modadd_superposition () =
  let n = 3 and p = 7 in
  List.iter
    (fun (sname, build) ->
      (* input: x = 5, y in (|2> + |3>)/sqrt2 -> output y in (|0> + |1>)/sqrt2 *)
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" n in
      build b ~p ~x ~y;
      let init =
        let base = Sim.init_registers ~num_qubits:(Builder.num_qubits b) [ (x, 5) ] in
        ignore base;
        (* y = 2 (010) and y = 3 (011): superpose the lowest y qubit with
           y_1 = 1 *)
        let idx_of y_val =
          let i = ref 0 in
          for k = 0 to n - 1 do
            if (5 lsr k) land 1 = 1 then i := !i lor (1 lsl Register.get x k);
            if (y_val lsr k) land 1 = 1 then i := !i lor (1 lsl Register.get y k)
          done;
          !i
        in
        let a : Complex.t = { re = 1.0 /. sqrt 2.0; im = 0.0 } in
        State.of_alist ~num_qubits:(Builder.num_qubits b)
          [ (idx_of 2, a); (idx_of 3, a) ]
      in
      let c = Builder.to_circuit b in
      let r = Sim.run ~rng c ~init in
      let idx_out y_val =
        let i = ref 0 in
        for k = 0 to n - 1 do
          if (5 lsr k) land 1 = 1 then i := !i lor (1 lsl Register.get x k);
          if (y_val lsr k) land 1 = 1 then i := !i lor (1 lsl Register.get y k)
        done;
        !i
      in
      let a : Complex.t = { re = 1.0 /. sqrt 2.0; im = 0.0 } in
      let expected =
        State.of_alist ~num_qubits:(State.num_qubits r.Sim.state)
          [ (idx_out 0, a); (idx_out 1, a) ]
      in
      let f = State.fidelity r.Sim.state expected in
      Alcotest.(check bool)
        (Printf.sprintf "%s superposition fidelity %.6f" sname f)
        true (f > 1. -. 1e-9))
    [ ("cdkpm+mbu", Mod_add.modadd ~mbu:true Mod_add.spec_cdkpm);
      ("gidney+mbu", Mod_add.modadd ~mbu:true Mod_add.spec_gidney);
      ("mixed+mbu", Mod_add.modadd ~mbu:true Mod_add.spec_mixed);
      ("draper+mbu", Mod_add.modadd_draper ~mbu:true);
      ("vbe5+mbu", Mod_add.modadd_vbe_5adder ~mbu:true) ]

(* Controlled modular addition. *)
let test_modadd_controlled () =
  let n = 3 in
  List.iter
    (fun (sname, spec) ->
      List.iter
        (fun mbu ->
          let p = 7 in
          for ctrl_val = 0 to 1 do
            for x_val = 0 to p - 1 do
              for y_val = 0 to p - 1 do
                let b = Builder.create () in
                let c = Builder.fresh_register b "c" 1 in
                let x = Builder.fresh_register b "x" n in
                let y = Builder.fresh_register b "y" n in
                Mod_add.modadd_controlled ~mbu spec b ~ctrl:(Register.get c 0) ~p ~x ~y;
                let r =
                  Sim.run_builder ~rng b
                    ~inits:[ (c, ctrl_val); (x, x_val); (y, y_val) ]
                in
                let msg =
                  Printf.sprintf "cmodadd-%s%s c=%d x=%d y=%d" sname
                    (if mbu then "+mbu" else "") ctrl_val x_val y_val
                in
                Alcotest.(check int) msg
                  ((y_val + (ctrl_val * x_val)) mod p)
                  (value r.Sim.state y);
                Alcotest.(check int) (msg ^ " x kept") x_val (value r.Sim.state x);
                Alcotest.(check bool) (msg ^ " clean") true
                  (Sim.wires_zero r.Sim.state ~except:[ c; x; y ])
              done
            done
          done)
        [ false; true ])
    specs

(* Constant modular addition: VBE architecture, Takahashi, via-load, Draper. *)
let check_modadd_const ~name build n p ~reps =
  for a = 0 to p - 1 do
    for x_val = 0 to p - 1 do
      for _ = 1 to reps do
        let b = Builder.create () in
        let x = Builder.fresh_register b "x" n in
        build b ~p ~a ~x;
        let r = Sim.run_builder ~rng b ~inits:[ (x, x_val) ] in
        let msg = Printf.sprintf "%s p=%d a=%d x=%d" name p a x_val in
        Alcotest.(check int) msg ((x_val + a) mod p) (value r.Sim.state x);
        Alcotest.(check bool) (msg ^ " clean") true
          (Sim.wires_zero r.Sim.state ~except:[ x ])
      done
    done
  done

let test_modadd_const_architectures () =
  let spec = Mod_add.spec_cdkpm in
  List.iter
    (fun mbu ->
      let sfx = if mbu then "+mbu" else "" in
      List.iter
        (fun p ->
          check_modadd_const ~name:("constVBE" ^ sfx)
            (Mod_add.modadd_const ~mbu spec) 3 p ~reps:2;
          check_modadd_const ~name:("takahashi" ^ sfx)
            (Mod_add.modadd_const_takahashi ~mbu spec) 3 p ~reps:2;
          check_modadd_const ~name:("via-load" ^ sfx)
            (Mod_add.modadd_const_via_load ~mbu spec) 3 p ~reps:2;
          check_modadd_const ~name:("draper-const" ^ sfx)
            (Mod_add.modadd_const_draper ~mbu) 3 p ~reps:2)
        (moduli 3))
    [ false; true ]

let test_modadd_const_other_specs () =
  (* Takahashi with Gidney and mixed subroutines, plus a Draper-subroutine
     VBE architecture. *)
  List.iter
    (fun (sname, spec) ->
      check_modadd_const
        ~name:("takahashi-" ^ sname)
        (Mod_add.modadd_const_takahashi ~mbu:true spec)
        3 5 ~reps:2)
    specs;
  let spec_draper =
    Mod_add.{ q_add = Adder.Draper; q_comp_const = Adder.Draper;
              c_q_sub_const = Adder.Draper; q_comp = Adder.Draper }
  in
  check_modadd_const ~name:"constVBE-draper-sub"
    (Mod_add.modadd_const ~mbu:false spec_draper) 3 5 ~reps:1

let test_modadd_const_controlled () =
  let n = 3 and p = 7 in
  List.iter
    (fun (name, build) ->
      for ctrl_val = 0 to 1 do
        for a = 0 to p - 1 do
          for x_val = 0 to p - 1 do
            let b = Builder.create () in
            let c = Builder.fresh_register b "c" 1 in
            let x = Builder.fresh_register b "x" n in
            build b ~ctrl:(Register.get c 0) ~p ~a ~x;
            let r = Sim.run_builder ~rng b ~inits:[ (c, ctrl_val); (x, x_val) ] in
            let msg = Printf.sprintf "%s c=%d a=%d x=%d" name ctrl_val a x_val in
            Alcotest.(check int) msg
              ((x_val + (ctrl_val * a)) mod p)
              (value r.Sim.state x);
            Alcotest.(check bool) (msg ^ " clean") true
              (Sim.wires_zero r.Sim.state ~except:[ c; x ])
          done
        done
      done)
    [ ("c-const-cdkpm", Mod_add.modadd_const_controlled ~mbu:false Mod_add.spec_cdkpm);
      ("c-const-cdkpm+mbu", Mod_add.modadd_const_controlled ~mbu:true Mod_add.spec_cdkpm);
      ("c-const-draper", Mod_add.modadd_const_controlled_draper ~mbu:false);
      ("c-const-draper+mbu", Mod_add.modadd_const_controlled_draper ~mbu:true) ]

(* Two-sided comparator (theorem 4.13). *)
let test_in_range () =
  let n = 2 in
  List.iter
    (fun (name, mbu, style) ->
      for x_val = 0 to 3 do
        for y_val = 0 to 3 do
          for z_val = 0 to 3 do
            let b = Builder.create () in
            let x = Builder.fresh_register b "x" n in
            let y = Builder.fresh_register b "y" n in
            let z = Builder.fresh_register b "z" n in
            let t = Builder.fresh_register b "t" 1 in
            Mbu.in_range ~mbu style b ~x ~y ~z ~target:(Register.get t 0);
            let r =
              Sim.run_builder ~rng b
                ~inits:[ (x, x_val); (y, y_val); (z, z_val); (t, 0) ]
            in
            let expect = if y_val < x_val && x_val < z_val then 1 else 0 in
            let msg = Printf.sprintf "%s x=%d y=%d z=%d" name x_val y_val z_val in
            Alcotest.(check int) msg expect (value r.Sim.state t);
            Alcotest.(check bool) (msg ^ " clean") true
              (Sim.wires_zero r.Sim.state ~except:[ x; y; z; t ])
          done
        done
      done)
    [ ("in-range-cdkpm", false, Adder.Cdkpm);
      ("in-range-cdkpm+mbu", true, Adder.Cdkpm);
      ("in-range-gidney+mbu", true, Adder.Gidney) ]

(* Wider randomized runs: n = 6, sparse sampling. *)
let test_modadd_wide () =
  let n = 6 and p = 61 in
  List.iter
    (fun (sname, spec) ->
      for _ = 1 to 8 do
        let x_val = Random.State.int rng p and y_val = Random.State.int rng p in
        let b = Builder.create () in
        let x = Builder.fresh_register b "x" n in
        let y = Builder.fresh_register b "y" n in
        Mod_add.modadd ~mbu:true spec b ~p ~x ~y;
        let r = Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val) ] in
        Alcotest.(check int)
          (Printf.sprintf "wide %s x=%d y=%d" sname x_val y_val)
          ((x_val + y_val) mod p)
          (value r.Sim.state y)
      done)
    specs

(* Builder scalability: wide circuits must build quickly with the exact
   slope-predicted Toffoli count (no simulation). Classical constants are
   OCaml ints, so moduli cap at 61 bits; the plain adder has no constant
   and scales to kilobit registers. *)
let test_builder_scales_wide () =
  List.iter
    (fun n ->
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" n in
      Mod_add.modadd ~mbu:true Mod_add.spec_cdkpm b ~p:((1 lsl n) - 1) ~x ~y;
      let c = Circuit.counts ~mode:(Counts.Expected 0.5) (Builder.to_circuit b) in
      Alcotest.(check (float 0.))
        (Printf.sprintf "7n+2 at n=%d" n)
        ((7. *. float_of_int n) +. 2.)
        c.Counts.toffoli)
    [ 24; 48 ];
  List.iter
    (fun n ->
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" (n + 1) in
      Adder_cdkpm.add b ~x ~y;
      let c = Circuit.counts ~mode:Counts.Worst (Builder.to_circuit b) in
      Alcotest.(check (float 0.))
        (Printf.sprintf "2n at n=%d" n)
        (2. *. float_of_int n) c.Counts.toffoli)
    [ 512; 2048 ]

(* The VBE-subroutine spec (not in the paper's table 1 but expressible). *)
let test_modadd_exhaustive_n4 () =
  (* one deeper exhaustive sweep: n = 4, prime modulus, MBU on *)
  check_modadd ~name:"modadd-cdkpm-n4" (Mod_add.modadd ~mbu:true Mod_add.spec_cdkpm)
    4 13 ~reps:1;
  check_modadd ~name:"modadd-mixed-n4" (Mod_add.modadd ~mbu:true Mod_add.spec_mixed)
    4 11 ~reps:1

let test_spec_names () =
  Alcotest.(check string) "cdkpm" "cdkpm" (Mod_add.spec_name Mod_add.spec_cdkpm);
  Alcotest.(check string) "gidney" "gidney" (Mod_add.spec_name Mod_add.spec_gidney);
  Alcotest.(check string) "mixed" "gidney+cdkpm" (Mod_add.spec_name Mod_add.spec_mixed);
  let custom =
    Mod_add.{ q_add = Adder.Vbe; q_comp_const = Adder.Draper;
              c_q_sub_const = Adder.Cdkpm; q_comp = Adder.Gidney }
  in
  Alcotest.(check string) "custom" "vbe/draper/cdkpm/gidney"
    (Mod_add.spec_name custom)

let test_modadd_all_vbe_spec () =
  let spec_vbe =
    Mod_add.{ q_add = Adder.Vbe; q_comp_const = Adder.Vbe;
              c_q_sub_const = Adder.Vbe; q_comp = Adder.Vbe }
  in
  List.iter
    (fun mbu -> check_modadd ~name:"modadd-vbe-spec" (Mod_add.modadd ~mbu spec_vbe) 3 7 ~reps:1)
    [ false; true ]

(* Stress: the sparse simulator tracks a 58-wire modular adder without
   blowing up, because computational-basis inputs stay nearly classical. *)
let test_modadd_near_simulator_limit () =
  let n = 18 in
  let p = (1 lsl n) - 5 in
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" n in
  let y = Builder.fresh_register b "y" n in
  Mod_add.modadd ~mbu:true Mod_add.spec_cdkpm b ~p ~x ~y;
  Alcotest.(check bool) "close to the 62-wire cap" true
    (Builder.num_qubits b > 50 && Builder.num_qubits b <= 62);
  let x_val = p - 3 and y_val = p - 9 in
  let r = Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val) ] in
  Alcotest.(check int) "wide modadd" ((x_val + y_val) mod p)
    (value r.Sim.state y)

(* An out-of-range width or modulus is a structured [Invalid] error (what
   mbu-cli prints as one line), not a bare [Invalid_argument]. *)
let test_modulus_out_of_range () =
  let raises_invalid what ~n ~p =
    let b = Builder.create () in
    let x = Builder.fresh_register b "x" n in
    let y = Builder.fresh_register b "y" n in
    match Mod_add.modadd Mod_add.spec_cdkpm b ~p ~x ~y with
    | () -> Alcotest.failf "%s: expected Mbu_error" what
    | exception Mbu_error.Error { kind = Mbu_error.Invalid; subsystem; _ } ->
        Alcotest.(check string) (what ^ ": subsystem") "Mod_add.modadd" subsystem
  in
  raises_invalid "n = 0" ~n:0 ~p:1;
  raises_invalid "p = 2^n" ~n:4 ~p:16;
  raises_invalid "p > 2^n" ~n:4 ~p:40

(* [f b] raises [Mbu_error] [Invalid] under [subsystem] before it
   allocates any ancilla. *)
let check_rejects what subsystem f =
  let b = Builder.create () in
  (match f b with
  | () -> Alcotest.failf "%s: expected Mbu_error" what
  | exception Mbu_error.Error { kind = Mbu_error.Invalid; subsystem = s; _ } ->
      Alcotest.(check string) (what ^ ": subsystem") subsystem s);
  Alcotest.(check int) (what ^ ": no ancilla") 0 (Builder.ancilla_qubits b)

(* The doubly controlled Draper adder checks its modulus and addend first,
   under its own name. *)
let test_double_controlled_draper_checks () =
  let n = 3 in
  let build ~p ~a b =
    let c1 = Builder.fresh_qubit b and c2 = Builder.fresh_qubit b in
    let x = Builder.fresh_register b "x" n in
    Mod_add.modadd_const_double_controlled_draper ~mbu:true b ~ctrl1:c1
      ~ctrl2:c2 ~p ~a ~x
  in
  List.iter
    (fun (what, p, a) ->
      check_rejects what "Mod_add.modadd_const_double_controlled_draper"
        (build ~p ~a))
    [ ("p = 0", 0, 0); ("p = 2^n", 1 lsl n, 1); ("a = p", 5, 5); ("a > p", 5, 7) ]

(* Operand registers of unequal lengths are an [Mbu_error] under the
   entry's own name, and so is an addend not below the modulus. *)
let test_unequal_lengths () =
  let pair b = (Builder.fresh_register b "x" 4, Builder.fresh_register b "y" 3) in
  let spec = Mod_add.spec_cdkpm and pb = Mbu_bitstring.Bitstring.of_int ~width:4 11 in
  List.iter
    (fun (name, f) -> check_rejects name ("Mod_add." ^ name) f)
    [ ( "modadd",
        fun b ->
          let x, y = pair b in
          Mod_add.modadd spec b ~p:11 ~x ~y );
      ( "modadd_big",
        fun b ->
          let x, y = pair b in
          Mod_add.modadd_big spec b ~p:pb ~x ~y );
      ( "modadd_controlled_big",
        fun b ->
          let c = Builder.fresh_qubit b in
          let x, y = pair b in
          Mod_add.modadd_controlled_big spec b ~ctrl:c ~p:pb ~x ~y );
      ( "modsub",
        fun b ->
          let x, y = pair b in
          Mod_add.modsub spec b ~p:11 ~x ~y );
      ( "modadd_draper",
        fun b ->
          let x, y = pair b in
          Mod_add.modadd_draper b ~p:11 ~x ~y );
      ( "modadd_vbe_5adder",
        fun b ->
          let x, y = pair b in
          Mod_add.modadd_vbe_5adder b ~p:11 ~x ~y );
      ( "modadd_const",
        fun b -> Mod_add.modadd_const spec b ~p:11 ~a:11 ~x:(fst (pair b)) );
      ( "modadd_const_big",
        fun b -> Mod_add.modadd_const_big spec b ~p:pb ~a:pb ~x:(fst (pair b)) ) ]

let suite =
  ( "mod-add",
    [ Alcotest.test_case "modadd all specs (props 3.4-3.6, thms 4.3-4.5)" `Quick
        test_modadd_specs;
      Alcotest.test_case "vbe 5/4-adder variants (table 1)" `Quick
        test_modadd_vbe_variants;
      Alcotest.test_case "draper modular adder (prop 3.7, thm 4.6)" `Quick
        test_modadd_draper;
      Alcotest.test_case "mbu preserves superpositions" `Quick
        test_modadd_superposition;
      Alcotest.test_case "controlled modadd (props 3.9-3.11)" `Quick
        test_modadd_controlled;
      Alcotest.test_case "constant modadd architectures (thm 3.14, prop 3.15)"
        `Quick test_modadd_const_architectures;
      Alcotest.test_case "constant modadd other specs" `Quick
        test_modadd_const_other_specs;
      Alcotest.test_case "controlled constant modadd (props 3.18/3.19)" `Quick
        test_modadd_const_controlled;
      Alcotest.test_case "two-sided comparator (thm 4.13)" `Quick test_in_range;
      Alcotest.test_case "wide randomized modadd" `Quick test_modadd_wide;
      Alcotest.test_case "near simulator limit (58 wires)" `Quick
        test_modadd_near_simulator_limit;
      Alcotest.test_case "builder scales wide" `Quick test_builder_scales_wide;
      Alcotest.test_case "all-VBE subroutine spec" `Quick
        test_modadd_all_vbe_spec;
      Alcotest.test_case "exhaustive n=4 sweep" `Quick test_modadd_exhaustive_n4;
      Alcotest.test_case "spec names" `Quick test_spec_names;
      Alcotest.test_case "out-of-range modulus is an Mbu_error" `Quick
        test_modulus_out_of_range;
      Alcotest.test_case "doubly controlled Draper checks first" `Quick
        test_double_controlled_draper_checks;
      Alcotest.test_case "unequal lengths are an Mbu_error" `Quick
        test_unequal_lengths ] )
