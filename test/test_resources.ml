(* Resource accounting against the paper's formulas: leading coefficients of
   the Toffoli counts (table 1, tables 2-6 already spot-checked in
   test_adders), the MBU savings, and Monte-Carlo validation that the
   "in expectation" numbers are the true mean over measurement outcomes. *)

open Mbu_core
open Mbu_robustness

let check_float = Alcotest.(check (float 1e-6))

(* Resources of a Table-1 catalogue row at width n (modulus 2^n - 1 by
   default) under expected accounting. *)
let measure_row ?p id ~mbu n =
  let p = Option.value p ~default:((1 lsl n) - 1) in
  let e = Option.get (Catalogue.find id) in
  Resources.measure ~n ~build:(fun b -> ignore (Catalogue.emit e ~mbu ~n ~p b)) ()

(* The same for any catalogue family, at modulus 2^n - 1. *)
let family_toffoli ?(style = Adder.Cdkpm) ?(a = 0) name ~mbu n =
  let f = Catalogue.family name in
  let args = Catalogue.{ style; mbu; n; p = (1 lsl n) - 1; a; x = 0; y = 0 } in
  (Resources.measure ~n ~build:(fun b -> ignore (f.build b args)) ())
    .Resources.toffoli

let modadd_toffoli ~mbu id n = (measure_row id ~mbu n).Resources.toffoli

(* Leading coefficient via a two-point fit. *)
let slope f n1 n2 = (f n2 -. f n1) /. float_of_int (n2 - n1)

let test_table1_toffoli_slopes () =
  let cases =
    [ ("cdkpm", 8., 7.); ("gidney", 4., 3.5); ("mixed", 6., 5.5);
      ("vbe5", 20., 16.); ("vbe4", 16., 14.) ]
  in
  List.iter
    (fun (name, plain_slope, mbu_slope) ->
      let f mbu n = modadd_toffoli ~mbu name n in
      check_float (name ^ " toffoli/n without mbu") plain_slope (slope (f false) 8 16);
      check_float (name ^ " toffoli/n with mbu") mbu_slope (slope (f true) 8 16))
    cases

let test_controlled_modadd_slopes () =
  let ctrl_toffoli ~mbu style = family_toffoli ~style "cmodadd" ~mbu in
  (* props 3.10/3.11, thms 4.8/4.9: 9n+1 -> 8n+0.5 and 5n+1 -> 4.5n+0.5 *)
  check_float "cdkpm controlled slope" 9. (slope (ctrl_toffoli ~mbu:false Adder.Cdkpm) 8 16);
  check_float "cdkpm controlled+mbu slope" 8. (slope (ctrl_toffoli ~mbu:true Adder.Cdkpm) 8 16);
  check_float "gidney controlled slope" 5. (slope (ctrl_toffoli ~mbu:false Adder.Gidney) 8 16);
  check_float "gidney controlled+mbu slope" 4.5 (slope (ctrl_toffoli ~mbu:true Adder.Gidney) 8 16)

let test_takahashi_slopes () =
  (* prop 3.15 / thm 4.11 with CDKPM subroutines: 6n -> 5n. *)
  let tak ~mbu n = family_toffoli ~a:((1 lsl (n - 1)) + 1) "takahashi" ~mbu n in
  check_float "takahashi slope" 6. (slope (tak ~mbu:false) 8 16);
  check_float "takahashi+mbu slope" 5. (slope (tak ~mbu:true) 8 16)

let test_mbu_savings_headline () =
  (* The abstract's headline: MBU saves 10-15% Toffoli for VBE-architecture
     modular adders, ~25% for the two-sided comparator. *)
  let n = 16 in
  let saving without with_mbu = (without -. with_mbu) /. without in
  List.iter
    (fun (name, lo, hi) ->
      let s =
        saving (modadd_toffoli ~mbu:false name n) (modadd_toffoli ~mbu:true name n)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s saving %.3f in [%.2f, %.2f]" name s lo hi)
        true
        (s >= lo && s <= hi))
    [ ("cdkpm", 0.10, 0.15); ("gidney", 0.10, 0.15); ("vbe5", 0.15, 0.25) ];
  (* two-sided comparator: 2r+r' = 6n+1 -> 1.5r+r' = 5n+1: ~16% Toffoli, but
     the paper's "almost 25%" counts the savable share of the comparator
     cost; check both the Toffoli saving and the savable-share ratio. *)
  let in_range_toffoli mbu = family_toffoli "in-range" ~mbu n in
  let s = saving (in_range_toffoli false) (in_range_toffoli true) in
  Alcotest.(check bool)
    (Printf.sprintf "two-sided comparator saving %.3f ~ 1/6" s)
    true
    (s > 0.13 && s < 0.20)

let test_draper_qft_units () =
  let n = 24 in
  let units mbu = (measure_row "draper" ~mbu n).Resources.qft_units in
  let without = units false and with_mbu = units true in
  (* The paper counts 10 blocks without MBU and 8 with; measured gate
     content is slightly below the block count because the constant-rotation
     blocks are thinner than a full QFT. *)
  Alcotest.(check bool)
    (Printf.sprintf "draper units %.2f in [8.5, 10.5]" without)
    true
    (without > 8.5 && without < 10.5);
  Alcotest.(check bool)
    (Printf.sprintf "draper+mbu units %.2f in [6.5, 8.5]" with_mbu)
    true
    (with_mbu > 6.5 && with_mbu < 8.5);
  let s = (without -. with_mbu) /. without in
  Alcotest.(check bool)
    (Printf.sprintf "draper saving %.3f in [0.15, 0.30]" s)
    true
    (s > 0.15 && s < 0.30)

let test_mbu_reduces_toffoli_depth () =
  let n = 12 in
  let depth mbu = (measure_row "cdkpm" ~mbu n).Resources.toffoli_depth in
  let without = depth false and with_mbu = depth true in
  let s = (without -. with_mbu) /. without in
  Alcotest.(check bool)
    (Printf.sprintf "toffoli depth saving %.3f in [0.05, 0.25]" s)
    true
    (s > 0.05 && s < 0.25)

(* Monte-Carlo: the analytic Expected(1/2) Toffoli count must match the
   empirical mean of executed Toffolis over simulator shots. *)
let test_monte_carlo_matches_expectation () =
  let n = 4 and p = 13 in
  let analytic = (measure_row ~p "cdkpm" ~mbu:true n).Resources.toffoli in
  let empirical =
    Resources.monte_carlo_toffoli ~shots:1500
      ~build:(fun b ->
        (Catalogue.emit ~x:7 ~y:11 (Option.get (Catalogue.find "cdkpm"))
           ~mbu:true ~n ~p b)
          .Catalogue.inits)
      ()
  in
  let rel = Float.abs (empirical -. analytic) /. analytic in
  Alcotest.(check bool)
    (Printf.sprintf "monte-carlo %.2f vs analytic %.2f (rel %.3f)" empirical
       analytic rel)
    true (rel < 0.05)

(* No shots, no mean: one clean error instead of nan. *)
let test_monte_carlo_zero_shots () =
  match
    Resources.monte_carlo_toffoli ~shots:0
      ~build:(fun b -> [ (Mbu_circuit.Builder.fresh_register b "x" 1, 1) ])
      ()
  with
  | m -> Alcotest.failf "expected Mbu_error, got %g" m
  | exception Mbu_circuit.Mbu_error.Error e ->
      Alcotest.(check string) "subsystem" "Resources.monte_carlo_toffoli"
        e.Mbu_circuit.Mbu_error.subsystem

(* Formula module self-consistency. *)
let test_formula_table1_consistency () =
  let params = Formulas.{ n = 16; hp = 8; ha = 4 } in
  List.iter
    (fun row ->
      let plain = row.Formulas.t1_cost ~mbu:false params in
      let mbu = row.Formulas.t1_cost ~mbu:true params in
      let le a b = Float.is_nan a || Float.is_nan b || a <= b in
      Alcotest.(check bool)
        (row.Formulas.t1_name ^ ": mbu never costs more")
        true
        (le mbu.Formulas.toffoli plain.Formulas.toffoli
        && le mbu.Formulas.qft_units plain.Formulas.qft_units
        && mbu.Formulas.qubits = plain.Formulas.qubits))
    Formulas.table1

let test_formula_vs_measured_gap () =
  (* Exact O(1) gaps: measured CDKPM modadd = paper formula within 8 gates. *)
  let n = 16 in
  let params = Formulas.{ n; hp = Mbu_bitstring.Bitstring.hamming_weight_int ((1 lsl n) - 1); ha = 0 } in
  List.iter
    (fun mbu ->
      let paper = (Formulas.modadd_cdkpm ~mbu params).Formulas.toffoli in
      let measured = modadd_toffoli ~mbu "cdkpm" n in
      Alcotest.(check bool)
        (Printf.sprintf "cdkpm mbu=%b paper %.1f vs measured %.1f" mbu paper measured)
        true
        (Float.abs (paper -. measured) <= 8.))
    [ false; true ]

let suite =
  ( "resources",
    [ Alcotest.test_case "table 1 toffoli slopes" `Quick test_table1_toffoli_slopes;
      Alcotest.test_case "controlled modadd slopes (thms 4.8/4.9)" `Quick
        test_controlled_modadd_slopes;
      Alcotest.test_case "takahashi slopes (thm 4.11)" `Quick test_takahashi_slopes;
      Alcotest.test_case "headline mbu savings" `Quick test_mbu_savings_headline;
      Alcotest.test_case "draper qft units (table 1)" `Quick test_draper_qft_units;
      Alcotest.test_case "mbu reduces toffoli depth" `Quick
        test_mbu_reduces_toffoli_depth;
      Alcotest.test_case "monte-carlo matches expectation" `Quick
        test_monte_carlo_matches_expectation;
      Alcotest.test_case "formula table 1 consistency" `Quick
        test_formula_table1_consistency;
      Alcotest.test_case "formula vs measured gap" `Quick test_formula_vs_measured_gap;
      Alcotest.test_case "monte-carlo rejects zero shots" `Quick
        test_monte_carlo_zero_shots ] )
