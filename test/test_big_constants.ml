(* Arbitrary-width constants: agreement with the int API at small widths,
   and cryptographic-width resource generation (the regime the int API
   cannot reach). *)

open Mbu_bitstring
open Mbu_circuit
open Mbu_simulator
open Mbu_core

let rng = Helpers.rng
let value = Sim.register_value_exn

let test_matches_int_api_semantics () =
  let n = 3 and p = 7 in
  let pb = Bitstring.of_int ~width:n p in
  List.iter
    (fun mbu ->
      for x_val = 0 to p - 1 do
        for y_val = 0 to p - 1 do
          let b = Builder.create () in
          let x = Builder.fresh_register b "x" n in
          let y = Builder.fresh_register b "y" n in
          Mod_add.modadd_big ~mbu Mod_add.spec_cdkpm b ~p:pb ~x ~y;
          let r = Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val) ] in
          Alcotest.(check int)
            (Printf.sprintf "big modadd mbu=%b x=%d y=%d" mbu x_val y_val)
            ((x_val + y_val) mod p)
            (value r.Sim.state y);
          Alcotest.(check bool) "clean" true
            (Sim.wires_zero r.Sim.state ~except:[ x; y ])
        done
      done)
    [ false; true ]

(* The int names are wrappers over the bit-string bodies: the same expanded
   gate list and the same span tree, for every ripple spec with MBU on and
   off, up to the widest int modulus. *)
let test_matches_int_api_counts () =
  let same what (int_prog : Instr.t list) big_prog =
    Alcotest.(check bool) (what ^ ": gates") true
      (Instr.strip_spans (Instr.expand_calls int_prog)
       = Instr.strip_spans (Instr.expand_calls big_prog));
    let labels prog =
      List.map
        (fun e -> e.Trace.label)
        (Trace.flatten (Trace.profile ~span_depth:false prog))
    in
    Alcotest.(check (list string))
      (what ^ ": spans") (labels int_prog) (labels big_prog)
  in
  let emit n f =
    let b = Builder.create () in
    let c = Builder.fresh_register b "c" 1 in
    let x = Builder.fresh_register b "x" n in
    let y = Builder.fresh_register b "y" n in
    f b ~ctrl:(Register.get c 0) ~x ~y;
    (Builder.to_circuit b).Circuit.instrs
  in
  List.iter
    (fun (n, p) ->
      let a = p / 3 in
      let pb = Bitstring.of_int ~width:n p and ab = Bitstring.of_int ~width:n a in
      List.iter
        (fun spec ->
          List.iter
            (fun mbu ->
              let what name =
                Printf.sprintf "%s %s n=%d mbu=%b" name (Mod_add.spec_name spec) n mbu
              in
              same (what "modadd")
                (emit n (fun b ~ctrl:_ ~x ~y -> Mod_add.modadd ~mbu spec b ~p ~x ~y))
                (emit n (fun b ~ctrl:_ ~x ~y ->
                     Mod_add.modadd_big ~mbu spec b ~p:pb ~x ~y));
              same (what "modadd_controlled")
                (emit n (fun b ~ctrl ~x ~y ->
                     Mod_add.modadd_controlled ~mbu spec b ~ctrl ~p ~x ~y))
                (emit n (fun b ~ctrl ~x ~y ->
                     Mod_add.modadd_controlled_big ~mbu spec b ~ctrl ~p:pb ~x ~y));
              same (what "modadd_const")
                (emit n (fun b ~ctrl:_ ~x ~y:_ ->
                     Mod_add.modadd_const ~mbu spec b ~p ~a ~x))
                (emit n (fun b ~ctrl:_ ~x ~y:_ ->
                     Mod_add.modadd_const_big ~mbu spec b ~p:pb ~a:ab ~x)))
            [ false; true ])
        [ Mod_add.spec_cdkpm; Mod_add.spec_gidney; Mod_add.spec_mixed ])
    [ (16, (1 lsl 16) - 3); (61, (1 lsl 61) - 1) ]

let test_constant_modadd_big () =
  let n = 3 and p = 7 in
  for a = 0 to p - 1 do
    for x_val = 0 to p - 1 do
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      Mod_add.modadd_const_big ~mbu:true Mod_add.spec_cdkpm b
        ~p:(Bitstring.of_int ~width:n p)
        ~a:(Bitstring.of_int ~width:n a)
        ~x;
      let r = Sim.run_builder ~rng b ~inits:[ (x, x_val) ] in
      Alcotest.(check int)
        (Printf.sprintf "a=%d x=%d" a x_val)
        ((x_val + a) mod p)
        (value r.Sim.state x)
    done
  done

let test_controlled_big () =
  let n = 3 and p = 5 in
  for ctrl_val = 0 to 1 do
    for x_val = 0 to p - 1 do
      let b = Builder.create () in
      let c = Builder.fresh_register b "c" 1 in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" n in
      Mod_add.modadd_controlled_big ~mbu:true Mod_add.spec_mixed b
        ~ctrl:(Register.get c 0)
        ~p:(Bitstring.of_int ~width:n p)
        ~x ~y;
      let r =
        Sim.run_builder ~rng b ~inits:[ (c, ctrl_val); (x, x_val); (y, 2) ]
      in
      Alcotest.(check int)
        (Printf.sprintf "c=%d x=%d" ctrl_val x_val)
        ((2 + (ctrl_val * x_val)) mod p)
        (value r.Sim.state y)
    done
  done

(* The point of the whole module: a 2048-bit RSA-style modulus. *)
let test_rsa_width_resources () =
  let n = 2048 in
  (* a dense pseudo-random odd 2048-bit modulus with the top bit set *)
  let p =
    Bitstring.init n (fun i ->
        i = 0 || i = n - 1 || (i * 2654435761) land 0x40000 <> 0)
  in
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" n in
  let y = Builder.fresh_register b "y" n in
  Mod_add.modadd_big ~mbu:true Mod_add.spec_cdkpm b ~p ~x ~y;
  let c = Circuit.counts ~mode:(Counts.Expected 0.5) (Builder.to_circuit b) in
  Alcotest.(check (float 0.)) "7n+2 toffoli at n=2048"
    ((7. *. float_of_int n) +. 2.)
    c.Counts.toffoli;
  Alcotest.(check bool) "qubit budget ~3n" true
    (Builder.num_qubits b < (3 * n) + 16);
  (* and the MBU delta at this width: exactly n + 1/2 fewer than without *)
  let b2 = Builder.create () in
  let x2 = Builder.fresh_register b2 "x" n in
  let y2 = Builder.fresh_register b2 "y" n in
  Mod_add.modadd_big ~mbu:false Mod_add.spec_cdkpm b2 ~p ~x:x2 ~y:y2;
  let c2 = Circuit.counts ~mode:(Counts.Expected 0.5) (Builder.to_circuit b2) in
  Alcotest.(check (float 0.)) "mbu saves n toffoli at n=2048"
    (float_of_int n)
    (c2.Counts.toffoli -. c.Counts.toffoli)

(* Draper takes a bit-string constant of any length that fits; only its
   phase denominators cap it, at 61 wires, raised through Adder. *)
let test_rejects_draper () =
  let a = Bitstring.init 2048 (fun i -> i < 60 && i mod 7 = 0) in
  let add_const wires =
    let b = Builder.create () in
    Adder.add_const Adder.Draper b ~a ~y:(Builder.fresh_register b "y" wires)
  in
  add_const 61;
  match add_const 62 with
  | () -> Alcotest.fail "draper accepted 62 wires"
  | exception Invalid_argument _ -> ()

(* Every constant entry point, in every style, rejects a constant with a set
   bit at or above its register width as an [Mbu_error] naming the entry
   point that checked it. Arguments: style, builder, constant, control, an
   n-qubit x, an (n+1)-qubit y, target. *)
let test_rejects_oversize_constant () =
  let n = 3 in
  let entries =
    [ ("add_const", fun s b a _ _ y _ -> Adder.add_const s b ~a ~y);
      ("sub_const", fun s b a _ _ y _ -> Adder.sub_const s b ~a ~y);
      ( "add_const_controlled",
        fun s b a c _ y _ -> Adder.add_const_controlled s b ~ctrl:c ~a ~y );
      ( "sub_const_controlled",
        fun s b a c _ y _ -> Adder.sub_const_controlled s b ~ctrl:c ~a ~y );
      ("compare_const", fun s b a _ x _ t -> Adder.compare_const s b ~a ~x ~target:t);
      ("compare_const", fun s b a _ x _ t -> Adder.compare_ge_const s b ~a ~x ~target:t);
      ("sub_const", fun s b a _ x _ t -> Adder.compare_const_via_sub s b ~a ~x ~target:t);
      ( "compare_const_controlled",
        fun s b a c x _ t -> Adder.compare_const_controlled s b ~ctrl:c ~a ~x ~target:t );
      ("add_const_mod", fun s b a _ x _ _ -> Adder.add_const_mod s b ~a ~y:x);
      ( "add_const_mod_controlled",
        fun s b a c x _ _ -> Adder.add_const_mod_controlled s b ~ctrl:c ~a ~y:x );
      ("load_const", fun _ b a _ x _ _ -> Adder.load_const b ~a x);
      ( "load_const_controlled",
        fun _ b a c x _ _ -> Adder.load_const_controlled b ~ctrl:c ~a x ) ]
  in
  List.iter
    (fun style ->
      List.iteri
        (fun i (fn, emit) ->
          List.iter
            (fun a ->
              let what =
                Printf.sprintf "%s entry %d (%s)" (Adder.style_name style) i fn
              in
              let b = Builder.create () in
              let c = Register.get (Builder.fresh_register b "c" 1) 0 in
              let x = Builder.fresh_register b "x" n in
              let y = Builder.fresh_register b "y" (n + 1) in
              let t = Register.get (Builder.fresh_register b "t" 1) 0 in
              match emit style b a c x y t with
              | () -> Alcotest.failf "%s: expected Mbu_error" what
              | exception
                  Mbu_error.Error { kind = Mbu_error.Invalid; subsystem; message; _ } ->
                  Alcotest.(check (pair string string)) what
                    ("Adder." ^ fn, Printf.sprintf "constant does not fit %d qubits" n)
                    (subsystem, message))
            [ Bitstring.of_int ~width:5 17; Bitstring.init 2048 (fun i -> i = 100) ])
        entries)
    Adder.all_styles

(* The CLI's [-a] reaches the catalogue as an int: one that does not fit,
   or is negative, is a structured error in every style, Draper included,
   never a crash or a silent [a mod 2^n]. *)
let test_catalogue_constants () =
  List.iter
    (fun (family, a, subsystem) ->
      List.iter
        (fun style ->
          let what = Printf.sprintf "%s %s a=%d" family (Adder.style_name style) a in
          let b = Builder.create () in
          let args =
            { Mbu_robustness.Catalogue.style; mbu = true; n = 3; p = 7; a; x = 0; y = 0 }
          in
          match (Mbu_robustness.Catalogue.family family).build b args with
          | _ -> Alcotest.failf "%s: expected Mbu_error" what
          | exception Mbu_error.Error { kind = Mbu_error.Invalid; subsystem = s; _ } ->
              Alcotest.(check string) (what ^ ": subsystem") subsystem s)
        Adder.all_styles)
    [ ("adder-const", 100, "Adder.add_const");
      ("adder-const", 8, "Adder.add_const");
      ("compare-const", 9, "Adder.compare_const");
      ("compare-const", 1 lsl 61, "Adder.compare_const");
      ("adder-const", -1, "Catalogue") ]

let suite =
  ( "big-constants",
    [ Alcotest.test_case "semantics match int api" `Quick
        test_matches_int_api_semantics;
      Alcotest.test_case "counts match int api" `Quick test_matches_int_api_counts;
      Alcotest.test_case "constant modadd" `Quick test_constant_modadd_big;
      Alcotest.test_case "controlled modadd" `Quick test_controlled_big;
      Alcotest.test_case "rsa-width resources (n=2048)" `Quick
        test_rsa_width_resources;
      Alcotest.test_case "rejects draper" `Quick test_rejects_draper;
      Alcotest.test_case "rejects oversize constants" `Quick
        test_rejects_oversize_constant;
      Alcotest.test_case "cli constants that do not fit" `Quick
        test_catalogue_constants ] )
