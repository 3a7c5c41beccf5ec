(* Depth's array kernel against the reference hash-table walk in [Helpers]:
   random programs in every mode, the one-walk span depths that
   [Trace.profile] attaches, edge cases of the kernel, and the one mapping
   from counting modes to depth modes. *)

open Mbu_circuit
open Mbu_core
module Bitstring = Mbu_bitstring.Bitstring

let modes =
  [ ("worst", Counts.Worst); ("best", Counts.Best);
    ("exp0.5", Counts.Expected 0.5); ("exp0.3", Counts.Expected 0.3) ]

let same (a : Depth.r) (b : Depth.r) = a.total = b.total && a.toffoli = b.toffoli

let pp_r (d : Depth.r) = Printf.sprintf "{total %h; toffoli %h}" d.total d.toffoli

let check_r msg (want : Depth.r) (got : Depth.r) =
  Alcotest.(check string) msg (pp_r want) (pp_r got)

(* {1 Random programs} *)

let wires = 6
let bits = 4

(* Every gate kind, on distinct wires. *)
let gen_gate =
  let open QCheck.Gen in
  let* ws = shuffle_l (List.init wires Fun.id) in
  let a, b, c = match ws with a :: b :: c :: _ -> (a, b, c) | _ -> assert false in
  let* k = int_bound 8 and* ph = int_range 1 4 in
  return
    (match k with
    | 0 -> Gate.X a
    | 1 -> Gate.Z a
    | 2 -> Gate.H a
    | 3 -> Gate.Phase (a, Phase.theta ph)
    | 4 -> Gate.Cnot { control = a; target = b }
    | 5 -> Gate.Cz (a, b)
    | 6 -> Gate.Swap (a, b)
    | 7 -> Gate.Cphase { control = a; target = b; phase = Phase.theta ph }
    | _ -> Gate.Toffoli { c1 = a; c2 = b; target = c })

(* A block of nested spans, conditionals on measured and never-written
   bits, measurements with and without reset, and references to the
   [shared] blocks. *)
let rec gen_block shared depth =
  QCheck.Gen.(list_size (int_bound 6) (gen_instr shared depth))

and gen_instr shared depth =
  let open QCheck.Gen in
  let leaves =
    [ (6, map (fun g -> Instr.Gate g) gen_gate);
      ( 2,
        map3
          (fun qubit bit reset -> Instr.Measure { qubit; bit; reset })
          (int_bound (wires - 1)) (int_bound (bits - 1)) bool ) ]
  in
  let nested =
    if depth = 0 then []
    else
      [ ( 2,
          map3
            (fun bit value body -> Instr.If_bit { bit; value; body })
            (int_bound (bits - 1)) bool
            (gen_block shared (depth - 1)) );
        ( 3,
          map2
            (fun k body ->
              Instr.Span { label = Printf.sprintf "s%d" k; peak_ancillas = 0; body })
            (int_bound 3)
            (gen_block shared (depth - 1)) ) ]
  in
  let calls = if shared = [] then [] else [ (2, oneofl shared) ] in
  frequency (leaves @ nested @ calls)

(* Up to three shared blocks, each free to reference the earlier ones, then
   a top-level program over all of them. *)
let gen_program =
  let open QCheck.Gen in
  let* k = int_bound 3 in
  let rec blocks shared i =
    if i = k then return shared
    else
      let* body = gen_block shared 2 in
      blocks (Instr.share body :: shared) (i + 1)
  in
  let* shared = blocks [] 0 in
  gen_block shared 3

let arb_program =
  QCheck.make gen_program ~print:(fun p ->
      Format.asprintf "@[<v>%a@]" (Format.pp_print_list Instr.pp) p)

(* [Depth.of_instrs], [Depth.spans] and every [Trace.profile] entry equal
   the reference walk on the program and on each span's body. *)
let agrees_with_reference prog =
  List.for_all
    (fun (_, mode) ->
      let dmode = Depth.of_counts_mode mode in
      let reference =
        List.map (Helpers.reference_depth ~mode:dmode) (prog :: Helpers.span_bodies prog)
      in
      let entries = Trace.flatten (Trace.profile ~mode prog) in
      same (Depth.of_instrs ~mode:dmode prog) (List.hd reference)
      && List.equal same (Array.to_list (Depth.spans dmode prog)) reference
      && List.length entries = List.length reference
      && List.for_all2
           (fun e (r : Depth.r) ->
             e.Trace.total_depth = r.total && e.Trace.toffoli_depth = r.toffoli)
           entries reference)
    modes

let prop_matches_reference =
  QCheck.Test.make ~name:"array kernel = reference walk, all modes" ~count:400
    arb_program agrees_with_reference

(* {1 Fixed circuits} *)

(* The three ripple [modadd_big] styles at cryptographic width: root depth
   in every mode, and every span of the expected-cost profile. *)
let test_modadd_big_2048 () =
  let n = 2048 in
  let p = Bitstring.init n (fun i -> i = 0 || i = n - 1 || i mod 3 = 1) in
  List.iter
    (fun (name, spec) ->
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" n in
      Mod_add.modadd_big ~mbu:true spec b ~p ~x ~y;
      let prog = (Builder.to_circuit b).Circuit.instrs in
      List.iter
        (fun (mname, mode) ->
          let dmode = Depth.of_counts_mode mode in
          check_r
            (Printf.sprintf "%s %s root" name mname)
            (Helpers.reference_depth ~mode:dmode prog)
            (Depth.of_instrs ~mode:dmode prog))
        modes;
      let entries = List.tl (Trace.flatten (Trace.profile prog)) in
      let bodies = Helpers.span_bodies prog in
      Alcotest.(check int) (name ^ " span count") (List.length bodies)
        (List.length entries);
      List.iter2
        (fun e body ->
          check_r
            (Printf.sprintf "%s span %s" name (String.concat "/" e.Trace.path))
            (Helpers.reference_depth ~mode:(`Expected 0.5) body)
            { Depth.total = e.Trace.total_depth; toffoli = e.Trace.toffoli_depth })
        entries bodies)
    [ ("cdkpm", Mod_add.spec_cdkpm); ("gidney", Mod_add.spec_gidney);
      ("cdkpm+gidney", Mod_add.spec_mixed) ]

(* {1 Edge cases of the kernel} *)

let zero = { Depth.total = 0.; toffoli = 0. }
let x q = Instr.Gate (Gate.X q)
let span body = Instr.Span { label = "s"; peak_ancillas = 0; body }

let test_empty_program () =
  List.iter
    (fun (mname, mode) ->
      let dmode = Depth.of_counts_mode mode in
      check_r (mname ^ " of_instrs") zero (Depth.of_instrs ~mode:dmode []);
      Alcotest.(check int) (mname ^ " spans length") 1
        (Array.length (Depth.spans dmode []));
      check_r (mname ^ " spans root") zero (Depth.spans dmode []).(0);
      Alcotest.(check (float 0.)) (mname ^ " profile root") 0.
        (Trace.profile ~mode []).Trace.total_depth)
    modes

let test_empty_span () =
  let d = Depth.spans `Worst [ x 0; span []; x 0 ] in
  Alcotest.(check int) "root + one span" 2 (Array.length d);
  check_r "root" { total = 2.; toffoli = 0. } d.(0);
  check_r "empty span" zero d.(1)

(* A span inside a conditional is scored alone: its weight starts at 1 and
   it does not wait for the conditional's bit. *)
let test_span_under_if () =
  let prog =
    [ Instr.Measure { qubit = 0; bit = 0; reset = false };
      Instr.If_bit { bit = 0; value = true; body = [ span [ x 1; x 1 ] ] } ]
  in
  let d = Depth.spans (`Expected 0.5) prog in
  check_r "root: measure, then two half-weight layers" { total = 2.; toffoli = 0. }
    d.(0);
  check_r "span: two full layers" { total = 2.; toffoli = 0. } d.(1);
  let best = Depth.spans (`Expected 0.) prog in
  check_r "best root: conditional adds nothing" { total = 1.; toffoli = 0. } best.(0);
  check_r "best span: still two layers" { total = 2.; toffoli = 0. } best.(1)

let test_best_mode () =
  let prog =
    [ Instr.Measure { qubit = 0; bit = 0; reset = true };
      Instr.If_bit
        { bit = 0; value = true;
          body = [ Instr.Gate (Gate.Toffoli { c1 = 0; c2 = 1; target = 2 }) ] };
      Instr.Gate (Gate.Toffoli { c1 = 2; c2 = 3; target = 4 }) ]
  in
  check_r "best: weight 0 body" { total = 2.; toffoli = 1. }
    (Depth.of_instrs ~mode:(Depth.of_counts_mode Counts.Best) prog);
  check_r "worst" { total = 3.; toffoli = 2. } (Depth.of_instrs ~mode:`Worst prog)

(* {1 One mode mapping} *)

let test_mode_mapping () =
  let build b =
    let x = Builder.fresh_register b "x" 6 in
    let y = Builder.fresh_register b "y" 6 in
    Mod_add.modadd ~mbu:true Mod_add.spec_gidney b ~p:43 ~x ~y
  in
  let depth_at (mname, mode) =
    let r = Resources.measure ~mode ~n:6 ~build () in
    let b = Builder.create () in
    build b;
    let root = Trace.of_circuit ~mode (Builder.to_circuit b) in
    Alcotest.(check (float 0.))
      (mname ^ " Resources = Trace root depth")
      root.Trace.total_depth r.Resources.total_depth;
    Alcotest.(check (float 0.)) (mname ^ " Toffoli depth") root.Trace.toffoli_depth
      r.Resources.toffoli_depth;
    r.Resources.toffoli_depth
  in
  let depths = List.map depth_at modes in
  match depths with
  | [ worst; best; half; _ ] ->
      Alcotest.(check bool) "best < expected < worst Toffoli depth" true
        (best < half && half < worst)
  | _ -> assert false

let suite =
  ( "depth",
    [ QCheck_alcotest.to_alcotest prop_matches_reference;
      Alcotest.test_case "modadd_big n=2048 = reference" `Quick test_modadd_big_2048;
      Alcotest.test_case "empty program" `Quick test_empty_program;
      Alcotest.test_case "span with empty body" `Quick test_empty_span;
      Alcotest.test_case "span inside a conditional" `Quick test_span_under_if;
      Alcotest.test_case "best mode weighs conditionals 0" `Quick test_best_mode;
      Alcotest.test_case "Resources depth = Trace root, all modes" `Quick
        test_mode_mapping ] )
