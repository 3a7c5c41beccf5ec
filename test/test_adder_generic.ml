(* The uniform Adder interface: subtraction (theorem 2.22), generic
   controlled addition (theorem 2.9 / corollary 2.10), arithmetic by
   constants (propositions 2.16--2.20), and the comparator family
   (propositions 2.25, 2.34--2.38). Each construction is validated for every
   adder style it supports. *)

open Mbu_bitstring
open Mbu_circuit
open Mbu_simulator
open Mbu_core

let rng = Helpers.rng

let value st reg = Sim.register_value_exn st reg

let name_of style tag = Printf.sprintf "%s-%s" (Adder.style_name style) tag

let bits n a = Bitstring.of_int ~width:n a

(* ------------------------------------------------------------------ *)
(* Subtraction: y <- y - x in (n+1)-bit 2's complement (definition 2.21). *)

let check_sub ~name sub n =
  for x_val = 0 to (1 lsl n) - 1 do
    for y_val = 0 to (1 lsl n) - 1 do
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" (n + 1) in
      sub b ~x ~y;
      let r = Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val) ] in
      let expect = (y_val - x_val) land ((1 lsl (n + 1)) - 1) in
      Alcotest.(check int)
        (Printf.sprintf "%s n=%d y-x (x=%d y=%d)" name n x_val y_val)
        expect (value r.Sim.state y);
      Alcotest.(check int) (name ^ " x kept") x_val (value r.Sim.state x);
      Alcotest.(check bool) (name ^ " clean") true
        (Sim.wires_zero r.Sim.state ~except:[ x; y ])
    done
  done

let test_sub_all_styles () =
  List.iter
    (fun style ->
      check_sub ~name:(name_of style "sub") (fun b ~x ~y -> Adder.sub style b ~x ~y) 3)
    Adder.all_styles

let test_sub_via_complement () =
  List.iter
    (fun style ->
      check_sub
        ~name:(name_of style "sub-complement")
        (fun b ~x ~y -> Adder.sub_via_complement style b ~x ~y)
        2)
    Adder.all_styles

let test_sub_msb_is_comparison () =
  (* Proposition A.3 realized in-circuit: MSB of y - x is 1[x > y]. *)
  let n = 3 in
  for x_val = 0 to (1 lsl n) - 1 do
    for y_val = 0 to (1 lsl n) - 1 do
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" (n + 1) in
      Adder.sub Cdkpm b ~x ~y;
      let r = Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val) ] in
      let msb = (value r.Sim.state y lsr n) land 1 in
      Alcotest.(check int)
        (Printf.sprintf "msb(y-x)=1[x>y] (x=%d y=%d)" x_val y_val)
        (if x_val > y_val then 1 else 0)
        msb
    done
  done

(* ------------------------------------------------------------------ *)
(* Controlled addition: all three implementations, every style. *)

let test_controlled_impls () =
  let impls =
    [ ("native", Adder.Native); ("load-tof", Adder.Load_toffoli);
      ("load-and", Adder.Load_and_mbu) ]
  in
  List.iter
    (fun style ->
      List.iter
        (fun (iname, impl) ->
          Helpers.check_controlled_adder_exhaustive ~reps:2
            ~name:(name_of style ("cadd-" ^ iname))
            (fun b ~ctrl ~x ~y -> Adder.add_controlled ~impl style b ~ctrl ~x ~y)
            2)
        impls)
    Adder.all_styles

let test_sub_controlled () =
  let n = 2 in
  List.iter
    (fun style ->
      for ctrl_val = 0 to 1 do
        for x_val = 0 to (1 lsl n) - 1 do
          for y_val = 0 to (1 lsl n) - 1 do
            let b = Builder.create () in
            let c = Builder.fresh_register b "c" 1 in
            let x = Builder.fresh_register b "x" n in
            let y = Builder.fresh_register b "y" (n + 1) in
            Adder.sub_controlled style b ~ctrl:(Register.get c 0) ~x ~y;
            let r =
              Sim.run_builder ~rng b
                ~inits:[ (c, ctrl_val); (x, x_val); (y, y_val) ]
            in
            let expect = (y_val - (ctrl_val * x_val)) land ((1 lsl (n + 1)) - 1) in
            Alcotest.(check int)
              (Printf.sprintf "%s c=%d x=%d y=%d" (name_of style "csub") ctrl_val
                 x_val y_val)
              expect (value r.Sim.state y)
          done
        done
      done)
    Adder.all_styles

(* ------------------------------------------------------------------ *)
(* Constants *)

let test_add_const () =
  let n = 3 in
  List.iter
    (fun style ->
      for a = 0 to (1 lsl n) - 1 do
        for v = 0 to (1 lsl n) - 1 do
          let b = Builder.create () in
          let y = Builder.fresh_register b "y" (n + 1) in
          Adder.add_const style b ~a:(bits n a) ~y;
          let r = Sim.run_builder ~rng b ~inits:[ (y, v) ] in
          Alcotest.(check int)
            (Printf.sprintf "%s a=%d v=%d" (name_of style "addc") a v)
            (a + v) (value r.Sim.state y);
          Alcotest.(check bool)
            (name_of style "addc clean")
            true
            (Sim.wires_zero r.Sim.state ~except:[ y ])
        done
      done)
    Adder.all_styles

let test_sub_const () =
  let n = 3 in
  List.iter
    (fun style ->
      for a = 0 to (1 lsl n) - 1 do
        (* include values with a dirty MSB: the modular adder subtracts p
           from an (n+1)-bit register holding up to 2p - 2 *)
        for v = 0 to (1 lsl (n + 1)) - 1 do
          let b = Builder.create () in
          let y = Builder.fresh_register b "y" (n + 1) in
          Adder.sub_const style b ~a:(bits n a) ~y;
          let r = Sim.run_builder ~rng b ~inits:[ (y, v) ] in
          Alcotest.(check int)
            (Printf.sprintf "%s a=%d v=%d" (name_of style "subc") a v)
            ((v - a) land ((1 lsl (n + 1)) - 1))
            (value r.Sim.state y)
        done
      done)
    Adder.all_styles

let test_const_controlled () =
  let n = 2 in
  List.iter
    (fun style ->
      for ctrl_val = 0 to 1 do
        for a = 0 to (1 lsl n) - 1 do
          for v = 0 to (1 lsl n) - 1 do
            let badd = Builder.create () in
            let c = Builder.fresh_register badd "c" 1 in
            let y = Builder.fresh_register badd "y" (n + 1) in
            Adder.add_const_controlled style badd ~ctrl:(Register.get c 0)
              ~a:(bits n a) ~y;
            let r = Sim.run_builder ~rng badd ~inits:[ (c, ctrl_val); (y, v) ] in
            Alcotest.(check int)
              (Printf.sprintf "%s c=%d a=%d v=%d" (name_of style "caddc")
                 ctrl_val a v)
              (v + (ctrl_val * a))
              (value r.Sim.state y);
            let bsub = Builder.create () in
            let c = Builder.fresh_register bsub "c" 1 in
            let y = Builder.fresh_register bsub "y" (n + 1) in
            Adder.sub_const_controlled style bsub ~ctrl:(Register.get c 0)
              ~a:(bits n a) ~y;
            let r = Sim.run_builder ~rng bsub ~inits:[ (c, ctrl_val); (y, v) ] in
            Alcotest.(check int)
              (Printf.sprintf "%s c=%d a=%d v=%d" (name_of style "csubc")
                 ctrl_val a v)
              ((v - (ctrl_val * a)) land ((1 lsl (n + 1)) - 1))
              (value r.Sim.state y)
          done
        done
      done)
    Adder.all_styles

(* ------------------------------------------------------------------ *)
(* Comparators *)

let test_compare_generic () =
  List.iter
    (fun style ->
      Helpers.check_comparator_exhaustive ~reps:2
        ~name:(name_of style "cmp-generic")
        (fun b ~x ~y ~target -> Adder.compare_generic style b ~x ~y ~target)
        2)
    Adder.all_styles

let check_compare_const ~name cmp n =
  for a = 0 to (1 lsl n) - 1 do
    for v = 0 to (1 lsl n) - 1 do
      for t_val = 0 to 1 do
        let b = Builder.create () in
        let x = Builder.fresh_register b "x" n in
        let t = Builder.fresh_register b "t" 1 in
        cmp b ~a:(bits n a) ~x ~target:(Register.get t 0);
        let r = Sim.run_builder ~rng b ~inits:[ (x, v); (t, t_val) ] in
        Alcotest.(check int)
          (Printf.sprintf "%s a=%d v=%d t=%d" name a v t_val)
          (t_val lxor (if v < a then 1 else 0))
          (value r.Sim.state t);
        Alcotest.(check int) (name ^ " x kept") v (value r.Sim.state x);
        Alcotest.(check bool) (name ^ " clean") true
          (Sim.wires_zero r.Sim.state ~except:[ x; t ])
      done
    done
  done

let test_compare_const () =
  List.iter
    (fun style ->
      check_compare_const
        ~name:(name_of style "cmpc")
        (fun b ~a ~x ~target -> Adder.compare_const style b ~a ~x ~target)
        3)
    Adder.all_styles

let test_compare_const_via_sub () =
  List.iter
    (fun style ->
      check_compare_const
        ~name:(name_of style "cmpc-sub")
        (fun b ~a ~x ~target -> Adder.compare_const_via_sub style b ~a ~x ~target)
        2)
    Adder.all_styles

let test_compare_const_controlled () =
  let n = 2 in
  List.iter
    (fun style ->
      for ctrl_val = 0 to 1 do
        for a = 0 to (1 lsl n) - 1 do
          for v = 0 to (1 lsl n) - 1 do
            let b = Builder.create () in
            let c = Builder.fresh_register b "c" 1 in
            let x = Builder.fresh_register b "x" n in
            let t = Builder.fresh_register b "t" 1 in
            Adder.compare_const_controlled style b ~ctrl:(Register.get c 0)
              ~a:(bits n a) ~x
              ~target:(Register.get t 0);
            let r =
              Sim.run_builder ~rng b ~inits:[ (c, ctrl_val); (x, v); (t, 0) ]
            in
            (* definition 2.37: t XOR= 1[x < c.a] *)
            let expect = if v < ctrl_val * a then 1 else 0 in
            Alcotest.(check int)
              (Printf.sprintf "%s c=%d a=%d v=%d" (name_of style "ccmpc")
                 ctrl_val a v)
              expect (value r.Sim.state t)
          done
        done
      done)
    Adder.all_styles

let test_compare_ge_const () =
  let n = 3 in
  for a = 0 to (1 lsl n) - 1 do
    let v = (a * 5 + 2) land ((1 lsl n) - 1) in
    let b = Builder.create () in
    let x = Builder.fresh_register b "x" n in
    let t = Builder.fresh_register b "t" 1 in
    Adder.compare_ge_const Cdkpm b ~a:(bits n a) ~x ~target:(Register.get t 0);
    let r = Sim.run_builder ~rng b ~inits:[ (x, v); (t, 0) ] in
    Alcotest.(check int)
      (Printf.sprintf "ge a=%d v=%d" a v)
      (if v >= a then 1 else 0)
      (value r.Sim.state t)
  done

(* ------------------------------------------------------------------ *)
(* Equal-length addition modulo 2^m, which no other test calls directly
   and every ripple family special-cases at m = 1: every input at
   m in {1, 2, 3}, on the Fast and the Reference engine, against integer
   arithmetic. *)

(* Build with [build] on fresh registers of the given widths, run from
   [values] on both engines, and check every register against [expect]
   and the ancillas clean. *)
let check_both_engines ~what widths build values expect =
  List.iter
    (fun (engine_name, engine) ->
      let b = Builder.create () in
      let regs = List.map (fun (name, w) -> Builder.fresh_register b name w) widths in
      build b regs;
      let r = Sim.run_builder ~rng ~engine b ~inits:(List.combine regs values) in
      List.iter2
        (fun reg v ->
          Alcotest.(check int)
            (Printf.sprintf "%s %s: %s" what engine_name (Register.name reg))
            v (value r.Sim.state reg))
        regs expect;
      Alcotest.(check bool) (what ^ " " ^ engine_name ^ ": clean") true
        (Sim.wires_zero r.Sim.state ~except:regs))
    [ ("fast", Sim.Fast); ("reference", Sim.Reference) ]

let test_add_mod_all_styles () =
  List.iter
    (fun style ->
      for m = 1 to 3 do
        let mask = (1 lsl m) - 1 in
        for x = 0 to mask do
          for y = 0 to mask do
            let what = Printf.sprintf "%s m=%d x=%d y=%d" (name_of style "add_mod") m x y in
            check_both_engines ~what [ ("x", m); ("y", m) ]
              (fun b regs ->
                match regs with
                | [ x; y ] -> Adder.add_mod style b ~x ~y
                | _ -> assert false)
              [ x; y ] [ x; (x + y) land mask ]
          done
        done
      done)
    Adder.all_styles

let test_add_const_mod_all_styles () =
  List.iter
    (fun style ->
      for m = 1 to 3 do
        let mask = (1 lsl m) - 1 in
        for a = 0 to mask do
          for y = 0 to mask do
            let what = Printf.sprintf "%s m=%d a=%d y=%d" (name_of style "add_const_mod") m a y in
            check_both_engines ~what [ ("y", m) ]
              (fun b regs -> Adder.add_const_mod style b ~a:(bits m a) ~y:(List.hd regs))
              [ y ] [ (y + a) land mask ];
            for c = 0 to 1 do
              check_both_engines ~what:(Printf.sprintf "%s ctrl=%d" what c)
                [ ("c", 1); ("y", m) ]
                (fun b regs ->
                  match regs with
                  | [ c; y ] ->
                      Adder.add_const_mod_controlled style b ~ctrl:(Register.get c 0)
                        ~a:(bits m a) ~y
                  | _ -> assert false)
                [ c; y ] [ c; (y + (c * a)) land mask ]
            done
          done
        done
      done)
    Adder.all_styles

(* The register's own top wire is the sign of x - a only while
   |x - a| < 2^(m-1) (at m = 1, only x = a). *)
let test_compare_const_msb () =
  for m = 1 to 3 do
    let half = 1 lsl (m - 1) in
    for a = 0 to (1 lsl m) - 1 do
      for x = 0 to (1 lsl m) - 1 do
        if abs (x - a) < half then
          check_both_engines
            ~what:(Printf.sprintf "compare_const_msb m=%d a=%d x=%d" m a x)
            [ ("x", m); ("t", 1) ]
            (fun b regs ->
              match regs with
              | [ x; t ] ->
                  Adder_draper.compare_const_msb b ~a:(bits m a) ~x ~target:(Register.get t 0)
              | _ -> assert false)
            [ x; 0 ] [ x; (if x < a then 1 else 0) ]
      done
    done
  done

(* Cost sanity: corollary 2.10 beats theorem 2.9 by n Toffoli. *)
let test_controlled_impl_costs () =
  let n = 8 in
  let count impl =
    let b = Builder.create () in
    let c = Builder.fresh_register b "c" 1 in
    let x = Builder.fresh_register b "x" n in
    let y = Builder.fresh_register b "y" (n + 1) in
    Adder.add_controlled ~impl Cdkpm b ~ctrl:(Register.get c 0) ~x ~y;
    (Circuit.counts ~mode:Counts.Worst (Builder.to_circuit b)).Counts.toffoli
  in
  let tof_load = count Adder.Load_toffoli and tof_and = count Adder.Load_and_mbu in
  Alcotest.(check (float 0.)) "thm 2.9: r + 2n" (float_of_int ((2 * n) + (2 * n))) tof_load;
  Alcotest.(check (float 0.)) "cor 2.10: r + n" (float_of_int ((2 * n) + n)) tof_and

let suite =
  ( "adder-generic",
    [ Alcotest.test_case "sub all styles" `Quick test_sub_all_styles;
      Alcotest.test_case "sub via complement (thm 2.22)" `Quick test_sub_via_complement;
      Alcotest.test_case "sub msb = comparison (prop A.3)" `Quick
        test_sub_msb_is_comparison;
      Alcotest.test_case "controlled impls (thm 2.9/cor 2.10)" `Quick
        test_controlled_impls;
      Alcotest.test_case "controlled subtraction" `Quick test_sub_controlled;
      Alcotest.test_case "add const (prop 2.16/2.17)" `Quick test_add_const;
      Alcotest.test_case "sub const" `Quick test_sub_const;
      Alcotest.test_case "controlled const (props 2.19/2.20)" `Quick
        test_const_controlled;
      Alcotest.test_case "compare generic (prop 2.25)" `Quick test_compare_generic;
      Alcotest.test_case "compare const (props 2.34/2.36)" `Quick test_compare_const;
      Alcotest.test_case "compare const via sub (thm 2.35)" `Quick
        test_compare_const_via_sub;
      Alcotest.test_case "controlled compare const (thm 2.38)" `Quick
        test_compare_const_controlled;
      Alcotest.test_case "ge comparison (remark 2.39)" `Quick test_compare_ge_const;
      Alcotest.test_case "controlled impl costs" `Quick test_controlled_impl_costs;
      Alcotest.test_case "add mod 2^m, m <= 3, fast and reference" `Quick
        test_add_mod_all_styles;
      Alcotest.test_case "add const mod 2^m (controlled too), m <= 3" `Quick
        test_add_const_mod_all_styles;
      Alcotest.test_case "draper compare const msb, valid domain" `Quick
        test_compare_const_msb ] )
