(* Benchmark harness: regenerates every table of the paper's evaluation
   (tables 1-6), validates the "in expectation" cost model by Monte-Carlo,
   reports the headline MBU savings (count and Toffoli depth), the two-sided
   comparator, and the modular-multiplication extension. Finishes with
   Bechamel wall-clock micro-benchmarks (one per table/experiment).

     dune exec bench/main.exe *)

open Mbu_circuit
open Mbu_core

let fpf = Format.printf

let header title =
  fpf "@.=============================================================@.";
  fpf "%s@." title;
  fpf "=============================================================@."

(* A modulus with a mixed bit pattern, so the |p| terms of table 1 are
   non-trivial: top bit set, alternating low bits, odd. *)
let modulus n = (1 lsl (n - 1)) lor (0x15555555555555 land ((1 lsl (n - 1)) - 1)) lor 1

let pv v = if Float.is_nan v then "      -" else Printf.sprintf "%7.1f" v

(* ------------------------------------------------------------------ *)
(* Table 1 *)

type t1_builder = mbu:bool -> p:int -> n:int -> Builder.t -> unit

let modadd_builder f : t1_builder =
 fun ~mbu ~p ~n b ->
  let x = Builder.fresh_register b "x" n in
  let y = Builder.fresh_register b "y" n in
  f ~mbu b ~p ~x ~y

let t1_builders : (string * t1_builder) list =
  [ ("(5 adder) VBE", modadd_builder (fun ~mbu b ~p ~x ~y -> Mod_add.modadd_vbe_5adder ~mbu b ~p ~x ~y));
    ("(4 adder) VBE", modadd_builder (fun ~mbu b ~p ~x ~y -> Mod_add.modadd_vbe_4adder ~mbu b ~p ~x ~y));
    ("CDKPM", modadd_builder (fun ~mbu b ~p ~x ~y -> Mod_add.modadd ~mbu Mod_add.spec_cdkpm b ~p ~x ~y));
    ("Gidney", modadd_builder (fun ~mbu b ~p ~x ~y -> Mod_add.modadd ~mbu Mod_add.spec_gidney b ~p ~x ~y));
    ("CDKPM+Gidney", modadd_builder (fun ~mbu b ~p ~x ~y -> Mod_add.modadd ~mbu Mod_add.spec_mixed b ~p ~x ~y));
    ("Draper", modadd_builder (fun ~mbu b ~p ~x ~y -> Mod_add.modadd_draper ~mbu b ~p ~x ~y)) ]

let measure_t1 (build : t1_builder) ~mbu ~n ~p =
  Resources.measure ~n ~build:(fun b -> build ~mbu ~p ~n b) ()

let table1 () =
  header "Table 1 - modular addition: paper formulas vs measured circuits";
  List.iter
    (fun n ->
      let p = modulus n in
      let hp = Mbu_bitstring.Bitstring.hamming_weight_int p in
      let params = Formulas.{ n; hp; ha = 0 } in
      fpf "@.n = %d, p = %d (|p| = %d); counts in expectation (MBU blocks at 1/2)@." n p hp;
      fpf "  %-15s %-4s | %15s | %15s | %15s | %15s | %13s@." "row" "MBU"
        "Toffoli" "CNOT+CZ" "X" "qubits" "QFT units";
      fpf "  %-15s %-4s | %7s %7s | %7s %7s | %7s %7s | %7s %7s | %6s %6s@."
        "" "" "paper" "meas" "paper" "meas" "paper" "meas" "paper" "meas"
        "paper" "meas";
      List.iter2
        (fun (name, build) (row : Formulas.t1_row) ->
          assert (row.Formulas.t1_name = name);
          List.iter
            (fun mbu ->
              let paper = row.Formulas.t1_cost ~mbu params in
              let m = measure_t1 build ~mbu ~n ~p in
              fpf "  %-15s %-4s | %s %s | %s %s | %s %s | %s %s | %6s %6.2f@."
                (if mbu then "" else name)
                (if mbu then "yes" else "no")
                (pv paper.Formulas.toffoli) (pv m.Resources.toffoli)
                (pv paper.Formulas.cnot_cz) (pv m.Resources.cnot_cz)
                (pv paper.Formulas.x) (pv m.Resources.x)
                (pv paper.Formulas.qubits)
                (pv (float_of_int m.Resources.qubits))
                (if Float.is_nan paper.Formulas.qft_units then "-"
                 else Printf.sprintf "%6.1f" paper.Formulas.qft_units)
                m.Resources.qft_units)
            [ false; true ])
        t1_builders
        (List.filteri (fun i _ -> i < 6) Formulas.table1);
      (* Draper (expect): amortize away the opening QFT and closing IQFT. *)
      let expect_row = List.nth Formulas.table1 6 in
      List.iter
        (fun mbu ->
          let paper = expect_row.Formulas.t1_cost ~mbu params in
          let m = measure_t1 (List.assoc "Draper" t1_builders) ~mbu ~n ~p in
          fpf "  %-15s %-4s | %39s amortized | %7s | %6.1f %6.2f@."
            (if mbu then "" else "Draper (expect)")
            (if mbu then "yes" else "no") ""
            (pv paper.Formulas.qubits)
            paper.Formulas.qft_units
            (m.Resources.qft_units -. 2.))
        [ false; true ])
    [ 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Tables 2-6 *)

let print_small_table ~title ~rows ~builders ~ns ~params_of =
  header title;
  List.iter
    (fun n ->
      let params = params_of n in
      fpf "@.n = %d@." n;
      fpf "  %-10s | %7s %7s | %7s %7s | %7s %7s | %6s %6s@." "row" "Tof"
        "meas" "CNOT+CZ" "meas" "anc" "meas" "QFTu" "meas";
      List.iter2
        (fun (row : Formulas.row) (name, build) ->
          assert (row.Formulas.row_name = name);
          let paper = row.Formulas.row_cost params in
          let m : Resources.t = build n in
          fpf "  %-10s | %s %s | %s %s | %s %7d | %6s %6.2f@." name
            (pv paper.Formulas.toffoli) (pv m.Resources.toffoli)
            (pv paper.Formulas.cnot_cz) (pv m.Resources.cnot_cz)
            (pv paper.Formulas.ancillas) m.Resources.ancillas
            (if Float.is_nan paper.Formulas.qft_units then "-"
             else Printf.sprintf "%6.1f" paper.Formulas.qft_units)
            m.Resources.qft_units)
        rows builders)
    ns

let measure_build ~n build = Resources.measure ~n ~build ()

(* Table 1 at widths the int-constant API cannot reach: Bitstring moduli. *)
let table1_big () =
  header "Table 1 at cryptographic widths (arbitrary-precision moduli)";
  let big_modulus n =
    Mbu_bitstring.Bitstring.init n (fun i ->
        i = 0 || i = n - 1 || (i * 2654435761) land 0x40000 <> 0)
  in
  fpf "  %-14s %6s %-4s | %10s %10s | %10s | %8s@." "row" "n" "MBU"
    "Tof paper" "Tof meas" "CNOT+CZ" "qubits";
  List.iter
    (fun n ->
      let p = big_modulus n in
      let hp = Mbu_bitstring.Bitstring.hamming_weight p in
      let params = Formulas.{ n; hp; ha = 0 } in
      List.iter
        (fun (name, spec, formula) ->
          List.iter
            (fun mbu ->
              let r =
                measure_build ~n (fun b ->
                    let x = Builder.fresh_register b "x" n in
                    let y = Builder.fresh_register b "y" n in
                    Mod_add.modadd_big ~mbu spec b ~p ~x ~y)
              in
              let paper = (formula ~mbu params : Formulas.cost) in
              fpf "  %-14s %6d %-4s | %10.0f %10.0f | %10.0f | %8d@."
                (if mbu then "" else name)
                n
                (if mbu then "yes" else "no")
                paper.Formulas.toffoli r.Resources.toffoli r.Resources.cnot_cz
                r.Resources.qubits)
            [ false; true ])
        [ ("CDKPM", Mod_add.spec_cdkpm, Formulas.modadd_cdkpm);
          ("Gidney", Mod_add.spec_gidney, Formulas.modadd_gidney);
          ("CDKPM+Gidney", Mod_add.spec_mixed, Formulas.modadd_mixed) ])
    [ 128; 1024; 2048 ]



let table2 () =
  let adder style n =
    measure_build ~n (fun b ->
        let x = Builder.fresh_register b "x" n in
        let y = Builder.fresh_register b "y" (n + 1) in
        Adder.add style b ~x ~y)
  in
  print_small_table ~title:"Table 2 - plain adders"
    ~rows:Formulas.table2_plain_adders
    ~builders:
      [ ("VBE", adder Adder.Vbe); ("CDKPM", adder Adder.Cdkpm);
        ("Gidney", adder Adder.Gidney); ("Draper", adder Adder.Draper) ]
    ~ns:[ 8; 16; 32 ]
    ~params_of:(fun n -> Formulas.{ n; hp = 0; ha = 0 })

let table3 () =
  let cadder style n =
    measure_build ~n (fun b ->
        let c = Builder.fresh_register b "c" 1 in
        let x = Builder.fresh_register b "x" n in
        let y = Builder.fresh_register b "y" (n + 1) in
        Adder.add_controlled style b ~ctrl:(Register.get c 0) ~x ~y)
  in
  print_small_table ~title:"Table 3 - controlled adders"
    ~rows:Formulas.table3_controlled_adders
    ~builders:
      [ ("CDKPM", cadder Adder.Cdkpm); ("Gidney", cadder Adder.Gidney);
        ("Draper", cadder Adder.Draper) ]
    ~ns:[ 8; 16; 32 ]
    ~params_of:(fun n -> Formulas.{ n; hp = 0; ha = 0 })

let table4 () =
  let cadder style n =
    measure_build ~n (fun b ->
        let y = Builder.fresh_register b "y" (n + 1) in
        Adder.add_const style b ~a:(modulus n / 3) ~y)
  in
  print_small_table ~title:"Table 4 - adders by a constant"
    ~rows:Formulas.table4_const_adders
    ~builders:
      [ ("CDKPM", cadder Adder.Cdkpm); ("Gidney", cadder Adder.Gidney);
        ("Draper", cadder Adder.Draper) ]
    ~ns:[ 8; 16; 32 ]
    ~params_of:(fun n ->
      Formulas.{ n; hp = 0;
                 ha = Mbu_bitstring.Bitstring.hamming_weight_int (modulus n / 3) })

let table5 () =
  let cadder style n =
    measure_build ~n (fun b ->
        let c = Builder.fresh_register b "c" 1 in
        let y = Builder.fresh_register b "y" (n + 1) in
        Adder.add_const_controlled style b ~ctrl:(Register.get c 0)
          ~a:(modulus n / 3) ~y)
  in
  print_small_table ~title:"Table 5 - controlled adders by a constant"
    ~rows:Formulas.table5_controlled_const_adders
    ~builders:
      [ ("CDKPM", cadder Adder.Cdkpm); ("Gidney", cadder Adder.Gidney);
        ("Draper", cadder Adder.Draper) ]
    ~ns:[ 8; 16; 32 ]
    ~params_of:(fun n ->
      Formulas.{ n; hp = 0;
                 ha = Mbu_bitstring.Bitstring.hamming_weight_int (modulus n / 3) })

let table6 () =
  let cmp style n =
    measure_build ~n (fun b ->
        let x = Builder.fresh_register b "x" n in
        let y = Builder.fresh_register b "y" n in
        let t = Builder.fresh_register b "t" 1 in
        Adder.compare style b ~x ~y ~target:(Register.get t 0))
  in
  print_small_table ~title:"Table 6 - comparators"
    ~rows:Formulas.table6_comparators
    ~builders:
      [ ("CDKPM", cmp Adder.Cdkpm); ("Gidney", cmp Adder.Gidney);
        ("Draper", cmp Adder.Draper) ]
    ~ns:[ 8; 16; 32 ]
    ~params_of:(fun n -> Formulas.{ n; hp = 0; ha = 0 })

(* ------------------------------------------------------------------ *)
(* E-MBU: Monte-Carlo validation of the expectation cost model *)

let experiment_monte_carlo () =
  header "E-MBU: Monte-Carlo vs analytic expected Toffoli counts";
  fpf "  circuit                analytic   empirical(1000 shots)   rel.err@.";
  let run name analytic_build mc_build =
    let analytic =
      (Resources.measure ~n:4 ~build:analytic_build ()).Resources.toffoli
    in
    let empirical = Resources.monte_carlo_toffoli ~shots:1000 ~build:mc_build () in
    fpf "  %-22s %8.2f   %8.2f                %6.3f@." name analytic empirical
      (Float.abs (empirical -. analytic) /. Float.max analytic 1.)
  in
  let p = 13 in
  List.iter
    (fun (name, spec) ->
      run
        (Printf.sprintf "modadd %s + mbu" name)
        (fun b ->
          let x = Builder.fresh_register b "x" 4 in
          let y = Builder.fresh_register b "y" 4 in
          Mod_add.modadd ~mbu:true spec b ~p ~x ~y)
        (fun b ->
          let x = Builder.fresh_register b "x" 4 in
          let y = Builder.fresh_register b "y" 4 in
          Mod_add.modadd ~mbu:true spec b ~p ~x ~y;
          [ (x, 7); (y, 11) ]))
    [ ("cdkpm", Mod_add.spec_cdkpm); ("gidney", Mod_add.spec_gidney);
      ("mixed", Mod_add.spec_mixed) ];
  run "gidney plain adder"
    (fun b ->
      let x = Builder.fresh_register b "x" 4 in
      let y = Builder.fresh_register b "y" 5 in
      Adder_gidney.add b ~x ~y)
    (fun b ->
      let x = Builder.fresh_register b "x" 4 in
      let y = Builder.fresh_register b "y" 5 in
      Adder_gidney.add b ~x ~y;
      [ (x, 9); (y, 12) ])

(* ------------------------------------------------------------------ *)
(* E-SAVE: headline savings in Toffoli count and depth *)

let experiment_savings () =
  header "E-SAVE: MBU savings, expected Toffoli count and Toffoli depth (n = 32)";
  let n = 32 in
  let p = modulus n in
  fpf "  %-15s | %9s %9s %7s | %9s %9s %7s@." "modular adder" "Tof" "Tof+MBU"
    "saved" "TofDepth" "TD+MBU" "saved";
  List.iter
    (fun (name, build) ->
      let m mbu = measure_t1 build ~mbu ~n ~p in
      let a = m false and b' = m true in
      let pc x y = 100. *. (x -. y) /. x in
      if name = "Draper" then
        (* QFT-based: the cost unit is rotations, reported in QFT units. *)
        fpf "  %-15s | %8.1fu %8.1fu %6.1f%% | %9s %9s %7s@." name
          a.Resources.qft_units b'.Resources.qft_units
          (pc a.Resources.qft_units b'.Resources.qft_units)
          "-" "-" "-"
      else
        fpf "  %-15s | %9.1f %9.1f %6.1f%% | %9.1f %9.1f %6.1f%%@." name
          a.Resources.toffoli b'.Resources.toffoli
          (pc a.Resources.toffoli b'.Resources.toffoli)
          a.Resources.toffoli_depth b'.Resources.toffoli_depth
          (pc a.Resources.toffoli_depth b'.Resources.toffoli_depth))
    t1_builders;
  fpf "@.  Paper's claim: 10-15%% for the VBE-architecture rows, ~25%% for@.";
  fpf "  the Beauregard-style circuits (QFT-unit content, see table 1).@."

(* ------------------------------------------------------------------ *)
(* E-2SC: two-sided comparator *)

let experiment_two_sided () =
  header "E-2SC: two-sided comparator (theorem 4.13)";
  fpf "  %4s | %9s %9s | %9s %9s | %7s@." "n" "paper" "meas" "paper+MBU"
    "meas+MBU" "saved";
  List.iter
    (fun n ->
      let build mbu =
        measure_build ~n (fun b ->
            let x = Builder.fresh_register b "x" n in
            let y = Builder.fresh_register b "y" n in
            let z = Builder.fresh_register b "z" n in
            let t = Builder.fresh_register b "t" 1 in
            Mbu.in_range ~mbu Adder.Cdkpm b ~x ~y ~z ~target:(Register.get t 0))
      in
      let params = Formulas.{ n; hp = 0; ha = 0 } in
      let fp mbu = (Formulas.in_range ~mbu params).Formulas.toffoli in
      let a = build false and b' = build true in
      fpf "  %4d | %9.1f %9.1f | %9.1f %9.1f | %6.1f%%@." n (fp false)
        a.Resources.toffoli (fp true) b'.Resources.toffoli
        (100. *. (a.Resources.toffoli -. b'.Resources.toffoli) /. a.Resources.toffoli))
    [ 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* E-MODMUL: the extension *)

let experiment_modmul () =
  header "E-MODMUL: controlled modular multiplier built on the paper's adders";
  fpf "  %4s %-16s | %10s %10s %7s | %7s@." "n" "engine" "Tof" "Tof+MBU"
    "saved" "qubits";
  List.iter
    (fun n ->
      let p = modulus n in
      List.iter
        (fun (ename, engine_of) ->
          let m mbu =
            measure_build ~n (fun b ->
                let c = Builder.fresh_register b "c" 1 in
                let x = Builder.fresh_register b "x" n in
                let t = Builder.fresh_register b "t" n in
                Mod_mul.cmult_add (engine_of mbu) b ~ctrl:(Register.get c 0)
                  ~a:(p / 3) ~p ~x ~target:t)
          in
          let a = m false and b' = m true in
          fpf "  %4d %-16s | %10.0f %10.0f %6.1f%% | %7d@." n ename
            a.Resources.toffoli b'.Resources.toffoli
            (100. *. (a.Resources.toffoli -. b'.Resources.toffoli) /. a.Resources.toffoli)
            b'.Resources.qubits)
        [ ("ripple mixed", fun mbu -> Mod_mul.ripple_engine ~mbu Mod_add.spec_mixed);
          ("ripple cdkpm", fun mbu -> Mod_mul.ripple_engine ~mbu Mod_add.spec_cdkpm) ];
      (* windowed ladder (Gid19c): lookup + register modadd + MBU unlookup *)
      let m mbu =
        measure_build ~n (fun b ->
            let c = Builder.fresh_register b "c" 1 in
            let x = Builder.fresh_register b "x" n in
            let t = Builder.fresh_register b "t" n in
            Mod_mul.cmult_add_windowed ~window:4 ~mbu Mod_add.spec_cdkpm b
              ~ctrl:(Register.get c 0) ~a:(p / 3) ~p ~x ~target:t)
      in
      let a = m false and b' = m true in
      fpf "  %4d %-16s | %10.0f %10.0f %6.1f%% | %7d@." n "windowed w=4"
        a.Resources.toffoli b'.Resources.toffoli
        (100. *. (a.Resources.toffoli -. b'.Resources.toffoli) /. a.Resources.toffoli)
        b'.Resources.qubits;
      (* Montgomery REDC: no comparator at all, at the price of n explicit
         garbage bits the caller must uncompute *)
      let mont =
        measure_build ~n (fun b ->
            let x = Builder.fresh_register b "x" n in
            let acc = Builder.fresh_register b "acc" (n + 2) in
            let q = Builder.fresh_register b "q" n in
            ignore
              (Montgomery.mul_const_redc Adder.Cdkpm b ~a:(p / 3) ~p ~x ~acc
                 ~quotient:q))
      in
      fpf "  %4d %-16s | %10.0f %10s %7s | %7d  (+%d garbage bits)@." n
        "montgomery" mont.Resources.toffoli "-" "-" mont.Resources.qubits n)
    [ 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* E-QROM: lookup vs measurement-based unlookup (related-work sqrt(L)) *)

let experiment_qrom () =
  header "E-QROM: table lookup vs measurement-based unlookup (w = 1)";
  fpf "  %4s %6s | %10s | %12s | %12s@." "k" "L" "lookup Tof" "naive unTof"
    "MBU unTof";
  List.iter
    (fun k ->
      let data =
        Array.init (1 lsl k) (fun i -> (i * 37 + 11) land 1)
      in
      let tof build =
        (measure_build ~n:k (fun b ->
             let address = Builder.fresh_register b "a" k in
             let target = Builder.fresh_register b "t" 1 in
             build b ~address ~target))
          .Resources.toffoli
      in
      fpf "  %4d %6d | %10.0f | %12.0f | %12.1f@." k (1 lsl k)
        (tof (fun b ~address ~target -> Qrom.lookup b ~address ~target ~data))
        (tof (fun b ~address ~target ->
             Qrom.unlookup_via_lookup b ~address ~target ~data))
        (tof (fun b ~address ~target -> Qrom.unlookup b ~address ~target ~data)))
    [ 4; 6; 8; 10; 12 ];
  fpf "  (expected shapes: lookup ~ L, naive ~ L, MBU ~ 3 sqrt(L) / 2)@."

(* ------------------------------------------------------------------ *)
(* E-COSET: Zalka/Gid19a coset encoding *)

let experiment_coset () =
  header "E-COSET: coset-encoded modular addition (Zal06/Gid19a, section 1.2)";
  fpf "  %4s %4s | %12s | %14s | %14s@." "n" "pad" "prep (Tof)" "add/enc (Tof)"
    "direct modadd";
  List.iter
    (fun n ->
      let pad = 6 in
      let p = modulus n in
      let prep =
        (measure_build ~n (fun b ->
             let reg = Builder.fresh_register b "v" (n + pad) in
             Coset.prepare Adder.Cdkpm b ~p ~pad reg))
          .Resources.toffoli
      in
      let enc_add =
        (measure_build ~n (fun b ->
             let reg = Builder.fresh_register b "v" (n + pad) in
             Coset.add_const Adder.Cdkpm b ~a:(p / 3) reg))
          .Resources.toffoli
      in
      let direct =
        (measure_build ~n (fun b ->
             let x = Builder.fresh_register b "x" n in
             Mod_add.modadd_const ~mbu:true Mod_add.spec_cdkpm b ~p ~a:(p / 3) ~x))
          .Resources.toffoli
      in
      fpf "  %4d %4d | %12.1f | %14.1f | %14.1f@." n pad prep enc_add direct)
    [ 8; 16; 32 ];
  fpf "  (prep amortizes over many additions; each encoded addition is one@.";
  fpf "   plain adder vs a full compare-and-correct modular adder; the@.";
  fpf "   outcome-1 phase fixes during prep run with probability 1/2 each)@."

(* ------------------------------------------------------------------ *)
(* E-TCOUNT: Clifford+T accounting ("halving the cost of quantum addition") *)

let experiment_tcount () =
  header "E-TCOUNT: plain adders in T gates (7-T Toffoli; figure 10's 4-T AND)";
  fpf "  %4s | %10s %10s %10s@." "n" "VBE (7T)" "CDKPM (7T)" "Gidney (4T)";
  List.iter
    (fun n ->
      let t_of style ~fresh =
        let b = Builder.create () in
        let x = Builder.fresh_register b "x" n in
        let y = Builder.fresh_register b "y" (n + 1) in
        Adder.add style b ~x ~y;
        let c = Decompose.circuit ~fresh_target_and:fresh (Builder.to_circuit b) in
        Decompose.t_count ~mode:(Counts.Expected 0.5) c.Circuit.instrs
      in
      fpf "  %4d | %10.0f %10.0f %10.0f@." n
        (t_of Adder.Vbe ~fresh:false)
        (t_of Adder.Cdkpm ~fresh:false)
        (t_of Adder.Gidney ~fresh:true))
    [ 8; 16; 32; 64 ];
  fpf "  (Gidney 2018: 4n T for addition vs 14n with a Toffoli adder)@."

(* ------------------------------------------------------------------ *)
(* E-PEBBLE: spooky pebble game (related work, Gid19b / KSS21) *)

let experiment_pebble () =
  header "E-PEBBLE: reversible chain computation, classical vs spooky pebbling";
  fpf "  %6s | %14s | %14s | %20s@." "m" "naive (T,S)" "bennett (T,S)"
    "spooky (T,S,fixups)";
  List.iter
    (fun m ->
      let c strategy = Pebble.cost ~chain_length:m strategy in
      let naive = c (Pebble.naive ~chain_length:m) in
      let bennett = c (Pebble.bennett ~chain_length:m) in
      let spooky = c (Pebble.spooky ~chain_length:m ()) in
      fpf "  %6d | %8d %5d | %8d %5d | %8d %5d %6.1f@." m
        naive.Pebble.applications naive.Pebble.space
        bennett.Pebble.applications bennett.Pebble.space
        spooky.Pebble.applications spooky.Pebble.space
        spooky.Pebble.expected_fixups)
    [ 16; 64; 256; 1024 ];
  fpf "  (spooky: linear time at ~2 sqrt(m) pebbles; Bennett needs m^1.58@.";
  fpf "   time to reach log-space; measurements break the classical bound)@."

(* ------------------------------------------------------------------ *)
(* E-AQFT: approximate-QFT Draper adder *)

let experiment_aqft () =
  header "E-AQFT: approximate QFT adder, rotations vs cutoff (n = 32)";
  let n = 32 in
  fpf "  %8s | %10s@." "cutoff" "C-R gates";
  List.iter
    (fun cutoff ->
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" (n + 1) in
      Adder_draper.add_approx b ~cutoff ~x ~y;
      let c = Circuit.counts ~mode:Counts.Worst (Builder.to_circuit b) in
      fpf "  %8d | %10.0f@." cutoff c.Counts.cphase)
    [ n + 1; 16; 8; 6; 4 ];
  fpf "  (exact adder: O(n^2) rotations; cutoff c: O(n c), with phase@.";
  fpf "   error O(n / 2^c) — see test_aqft for the fidelity measurements)@."

(* ------------------------------------------------------------------ *)
(* E-DEPTH: ripple vs carry-lookahead [Dra+04] *)

let experiment_depth () =
  header "E-DEPTH: Toffoli depth, ripple adders vs carry-lookahead [Dra+04]";
  fpf "  %4s | %10s %10s | %10s %10s | %10s %10s@." "n" "cdkpm D" "cdkpm #"
    "gidney D" "gidney #" "cla D" "cla #";
  List.iter
    (fun n ->
      let m build =
        let r =
          measure_build ~n (fun b ->
              let x = Builder.fresh_register b "x" n in
              let y = Builder.fresh_register b "y" (n + 1) in
              build b ~x ~y)
        in
        (r.Resources.toffoli_depth, r.Resources.toffoli)
      in
      let cd, cc = m (fun b ~x ~y -> Adder_cdkpm.add b ~x ~y) in
      let gd, gc = m (fun b ~x ~y -> Adder_gidney.add b ~x ~y) in
      let ld, lc = m (fun b ~x ~y -> Adder_cla.add b ~x ~y) in
      fpf "  %4d | %10.1f %10.1f | %10.1f %10.1f | %10.1f %10.1f@." n cd cc gd
        gc ld lc)
    [ 8; 16; 32; 64; 128 ];
  fpf "  (D = expected Toffoli depth, # = expected Toffoli count: the@.";
  fpf "   lookahead adder buys O(log n) depth with a ~5x count overhead)@."

(* ------------------------------------------------------------------ *)
(* E-FT: the MBU saving in physical resources (GE21-style estimate) *)

let experiment_ft () =
  header "E-FT: surface-code estimate for a full modular exponentiation";
  (* fit the per-CMULT quadratic coefficient at moderate width, then
     extrapolate the 2n-multiplication exponentiation ladder *)
  let cmult_cost ~mbu n =
    let r =
      measure_build ~n (fun b ->
          let c = Builder.fresh_register b "c" 1 in
          let x = Builder.fresh_register b "x" n in
          let t = Builder.fresh_register b "t" n in
          Mod_mul.cmult_add
            (Mod_mul.ripple_engine ~mbu Mod_add.spec_cdkpm)
            b ~ctrl:(Register.get c 0) ~a:(modulus n / 3) ~p:(modulus n) ~x
            ~target:t)
    in
    (r.Resources.toffoli, r.Resources.toffoli_depth)
  in
  let workload ~mbu n =
    let t32, d32 = cmult_cost ~mbu 32 in
    let scale = float_of_int (n * n) /. (32. *. 32.) in
    let dscale = float_of_int n /. 32. in
    (* modexp: 2n controlled multiplications, 2 ladders each *)
    let mults = float_of_int (4 * n) in
    { Ft_estimate.toffoli = t32 *. scale *. mults;
      toffoli_depth = d32 *. dscale *. dscale *. mults;
      logical_qubits = (3 * n) + 10 }
  in
  fpf "  %6s %-4s | %4s | %14s | %12s | %10s@." "n" "MBU" "d" "phys qubits"
    "runtime" "Tof";
  List.iter
    (fun n ->
      List.iter
        (fun mbu ->
          let w = workload ~mbu n in
          let e =
            Ft_estimate.estimate
              ~params:{ Ft_estimate.default_params with factories = 16 }
              w
          in
          fpf "  %6d %-4s | %4d | %14d | %10.2f s | %10.3e@." n
            (if mbu then "yes" else "no")
            e.Ft_estimate.code_distance e.Ft_estimate.physical_qubits
            e.Ft_estimate.runtime_seconds w.Ft_estimate.toffoli)
        [ false; true ])
    [ 256; 1024; 2048 ];
  fpf "  (coarse GE21-style model: p=1e-3, 1us cycles, 16 Toffoli@.";
  fpf "   factories; the ~12%% expected-Toffoli saving carries straight@.";
  fpf "   into wall-clock time at fixed hardware)@."

(* ------------------------------------------------------------------ *)
(* Ablations called out in DESIGN.md *)

let experiment_ablations () =
  header "Ablations: design choices from sections 2-3";
  let n = 16 in
  let tof build = (measure_build ~n build).Resources.toffoli in
  fpf "  controlled adder implementations (CDKPM base, n = %d):@." n;
  List.iter
    (fun (name, impl) ->
      let t =
        tof (fun b ->
            let c = Builder.fresh_register b "c" 1 in
            let x = Builder.fresh_register b "x" n in
            let y = Builder.fresh_register b "y" (n + 1) in
            Adder.add_controlled ~impl Adder.Cdkpm b ~ctrl:(Register.get c 0) ~x ~y)
      in
      fpf "    %-28s %8.1f Tof@." name t)
    [ ("native C-UMA (thm 2.12)", Adder.Native);
      ("load/unload Toffoli (thm 2.9)", Adder.Load_toffoli);
      ("load + MBU unload (cor 2.10)", Adder.Load_and_mbu) ];
  fpf "  UMA variants (figure 7), CDKPM adder at n = %d:@." n;
  List.iter
    (fun (name, build) ->
      let r =
        measure_build ~n (fun b ->
            let x = Builder.fresh_register b "x" n in
            let y = Builder.fresh_register b "y" (n + 1) in
            build b ~x ~y)
      in
      fpf "    %-28s %8.1f CNOT, depth %6.1f@." name r.Resources.cnot
        r.Resources.total_depth)
    [ ("2-CNOT UMA", fun b ~x ~y -> Adder_cdkpm.add b ~x ~y);
      ("3-CNOT UMA", fun b ~x ~y -> Adder_cdkpm.add_3cnot b ~x ~y) ];
  fpf "  comparator: native half-subtractor vs generic sub+add (prop 2.25):@.";
  List.iter
    (fun style ->
      let native =
        tof (fun b ->
            let x = Builder.fresh_register b "x" n in
            let y = Builder.fresh_register b "y" n in
            let t = Builder.fresh_register b "t" 1 in
            Adder.compare style b ~x ~y ~target:(Register.get t 0))
      and generic =
        tof (fun b ->
            let x = Builder.fresh_register b "x" n in
            let y = Builder.fresh_register b "y" n in
            let t = Builder.fresh_register b "t" 1 in
            Adder.compare_generic style b ~x ~y ~target:(Register.get t 0))
      in
      fpf "    %-8s native %8.1f vs generic %8.1f Tof@."
        (Adder.style_name style) native generic)
    [ Adder.Cdkpm; Adder.Gidney ];
  fpf "  constant modular addition: Takahashi (prop 3.15) vs VBE arch (thm 3.14)\n";
  fpf "  vs register-loading (prop 3.13), CDKPM subroutines, with MBU:@.";
  let p = modulus n in
  let a = p / 3 in
  List.iter
    (fun (name, build) ->
      let t =
        tof (fun b ->
            let x = Builder.fresh_register b "x" n in
            build b ~p ~a ~x)
      in
      fpf "    %-28s %8.1f Tof@." name t)
    [ ("takahashi", Mod_add.modadd_const_takahashi ~mbu:true Mod_add.spec_cdkpm);
      ("vbe architecture", Mod_add.modadd_const ~mbu:true Mod_add.spec_cdkpm);
      ("via register load", Mod_add.modadd_const_via_load ~mbu:true Mod_add.spec_cdkpm) ]

(* ------------------------------------------------------------------ *)
(* E-SIM: simulator backend micro-benchmark (shots/sec, seed vs this PR) *)

let json_escape = Mbu_telemetry.Telemetry.json_escape

(* Shots/sec for one (engine, jobs) configuration on a prepared circuit. *)
let shots_per_sec ?(engine = Mbu_simulator.Sim.Fast) ~jobs ~shots c ~init () =
  let open Mbu_simulator in
  (* warm-up shot so domain spawning / first allocation doesn't skew *)
  ignore (Sim.run_shots ~engine ~jobs ~shots:1 c ~init);
  let t0 = Unix.gettimeofday () in
  ignore (Sim.run_shots ~engine ~jobs ~shots c ~init);
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int shots /. Float.max dt 1e-9

let experiment_sim_bench () =
  let open Mbu_simulator in
  header "E-SIM: simulator backends, Table-1 Monte-Carlo workload (shots/sec)";
  let shots = 1000 in
  let jobs = Sim.default_jobs () in
  fpf "  %d shots/config, parallel backend = %s, jobs = %d@." shots
    Sim.parallel_backend jobs;
  fpf "  %-15s | %3s | %12s | %12s | %12s | %8s@." "row" "n" "seed (ref)"
    "fast seq"
    (Printf.sprintf "fast j=%d" jobs)
    "speedup";
  (* The ripple-carry rows of table 1; Draper is excluded because its QFT
     makes the state dense (2^(n+1) terms at n = 16), which is a different
     workload from the permutation-dominated Monte-Carlo the tables use.
     Rows whose total width would exceed the simulator's 62-qubit cap at
     n = 16 run at the largest n that fits (shown in the n column). *)
  let sim_rows =
    [ ("(5 adder) VBE", 15,
       fun b ~p ~x ~y -> Mod_add.modadd_vbe_5adder ~mbu:true b ~p ~x ~y);
      ("(4 adder) VBE", 15,
       fun b ~p ~x ~y -> Mod_add.modadd_vbe_4adder ~mbu:true b ~p ~x ~y);
      ("CDKPM", 16,
       fun b ~p ~x ~y -> Mod_add.modadd ~mbu:true Mod_add.spec_cdkpm b ~p ~x ~y);
      ("Gidney", 14,
       fun b ~p ~x ~y -> Mod_add.modadd ~mbu:true Mod_add.spec_gidney b ~p ~x ~y);
      ("CDKPM+Gidney", 16,
       fun b ~p ~x ~y -> Mod_add.modadd ~mbu:true Mod_add.spec_mixed b ~p ~x ~y) ]
  in
  let rows =
    List.map
      (fun (name, n, build) ->
        let p = modulus n in
        let b = Builder.create () in
        let x = Builder.fresh_register b "x" n in
        let y = Builder.fresh_register b "y" n in
        build b ~p ~x ~y;
        let c = Builder.to_circuit b in
        let init =
          Sim.init_registers ~num_qubits:(Builder.num_qubits b)
            [ (x, 17 mod p); (y, 25 mod p) ]
        in
        let reference =
          shots_per_sec ~engine:Sim.Reference ~jobs:1 ~shots c ~init ()
        in
        let fast_seq = shots_per_sec ~jobs:1 ~shots c ~init () in
        let fast_par = shots_per_sec ~jobs ~shots c ~init () in
        let best = Float.max fast_seq fast_par in
        fpf "  %-15s | %3d | %12.0f | %12.0f | %12.0f | %7.1fx@." name n
          reference fast_seq fast_par (best /. reference);
        (name, n, reference, fast_seq, fast_par))
      sim_rows
  in
  (* machine-readable output for the CI artifact and the README table *)
  let oc = open_out "BENCH_sim.json" in
  Printf.fprintf oc "{\n  \"workload\": \"table1-modadd-montecarlo\",\n";
  Printf.fprintf oc "  \"shots\": %d,\n" shots;
  Printf.fprintf oc "  \"parallel_backend\": %S,\n  \"jobs\": %d,\n"
    Sim.parallel_backend jobs;
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i (name, n, reference, fast_seq, fast_par) ->
      Printf.fprintf oc
        "    {\"row\": \"%s\", \"n\": %d, \"seed_shots_per_sec\": %.1f, \
         \"fast_seq_shots_per_sec\": %.1f, \"fast_par_shots_per_sec\": %.1f, \
         \"speedup\": %.2f}%s\n"
        (json_escape name) n reference fast_seq fast_par
        (Float.max fast_seq fast_par /. reference)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  fpf "  (seed = rebuild-per-gate Reference engine; fast = Z/X product track@.";
  fpf "   + in-place sparse kernel; written to BENCH_sim.json)@."

(* ------------------------------------------------------------------ *)
(* E-BUILD: DAG IR build + memoized metric wall-clock *)

(* Wall-clock one metric pass: repetitions are batched to ~20 ms so
   sub-millisecond passes are resolvable, and the minimum over several
   batches is reported — the usual robust estimator, insulating the figure
   from GC majors and scheduler noise landing inside a batch. *)
let time_ms f =
  let t0 = Unix.gettimeofday () in
  f ();
  let once = Unix.gettimeofday () -. t0 in
  let reps = max 1 (int_of_float (0.02 /. Float.max once 1e-7)) in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    best := Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int reps)
  done;
  !best *. 1000.

let experiment_build_bench () =
  header
    "E-BUILD: hash-consed DAG build + memoized counts/profile (wall-clock)";
  fpf "  tree = pre-PR representation (Instr.expand_calls, every shared@.";
  fpf "  block inlined); dag = hash-consed IR. The p/dag and p/tree columns@.";
  fpf "  run the profiler with span_depth:false on both sides (conservative@.";
  fpf "  same-methodology comparison); pre-PR is the profiler exactly as@.";
  fpf "  pre-PR callers ran it — on the tree, per-span isolated ASAP depth@.";
  fpf "  included, with no way to opt out.@.@.";
  let t1_rows =
    List.map
      (fun (name, build) ->
        ( name, 32,
          fun () ->
            let b = Builder.create () in
            build ~mbu:true ~p:(modulus 32) ~n:32 b;
            Builder.to_circuit b ))
      t1_builders
  in
  let modmul_row n =
    ( "mod_mul cmult_add", n,
      fun () ->
        let b = Builder.create () in
        let p = modulus n in
        let c = Builder.fresh_register b "c" 1 in
        let x = Builder.fresh_register b "x" n in
        let t = Builder.fresh_register b "t" n in
        Mod_mul.cmult_add
          (Mod_mul.ripple_engine ~mbu:true Mod_add.spec_cdkpm)
          b ~ctrl:(Register.get c 0) ~a:(p / 3) ~p ~x ~target:t;
        Builder.to_circuit b )
  in
  let rows_spec = t1_rows @ List.map modmul_row [ 16; 32; 60 ] in
  fpf
    "  %-18s | %3s | %8s | %9s | %6s | %9s | %9s | %7s | %9s | %9s | %7s | \
     %9s | %8s@."
    "row" "n" "build ms" "live Mw" "nodes" "count/dag" "count/tre" "speedup"
    "prof/dag" "prof/tre" "speedup" "pre-PR ms" "speedup";
  let results =
    List.map
      (fun (name, n, build) ->
        Gc.full_major ();
        let nodes0 = Instr.shared_nodes () in
        let live0 = (Gc.stat ()).Gc.live_words in
        let t0 = Unix.gettimeofday () in
        let c = build () in
        let build_ms = (Unix.gettimeofday () -. t0) *. 1000. in
        Gc.full_major ();
        let live_words = (Gc.stat ()).Gc.live_words - live0 in
        let shared = Instr.shared_nodes () - nodes0 in
        let instrs = c.Circuit.instrs in
        let mode = Counts.Expected 0.5 in
        let gates = Counts.total_gates (Counts.of_instrs ~mode:Counts.Worst instrs) in
        let counts_dag_ms =
          time_ms (fun () -> ignore (Counts.of_instrs ~mode instrs))
        in
        let profile_dag_ms =
          time_ms (fun () -> ignore (Trace.profile ~mode ~span_depth:false instrs))
        in
        (* the pre-PR tree: every Call inlined *)
        let tree = Instr.expand_calls instrs in
        let counts_tree_ms =
          time_ms (fun () -> ignore (Counts.of_instrs ~mode tree))
        in
        let profile_tree_ms =
          time_ms (fun () -> ignore (Trace.profile ~mode ~span_depth:false tree))
        in
        (* the profiler exactly as pre-PR callers invoked it: tree
           representation, per-span isolated depth always on (one rep — the
           big rows take hundreds of ms) *)
        let t0 = Unix.gettimeofday () in
        ignore (Trace.profile ~mode ~span_depth:true tree);
        let profile_pre_pr_ms = (Unix.gettimeofday () -. t0) *. 1000. in
        let c_speed = counts_tree_ms /. Float.max counts_dag_ms 1e-9 in
        let p_speed = profile_tree_ms /. Float.max profile_dag_ms 1e-9 in
        let pre_speed = profile_pre_pr_ms /. Float.max profile_dag_ms 1e-9 in
        fpf
          "  %-18s | %3d | %8.2f | %9.3f | %6d | %9.4f | %9.4f | %6.1fx | \
           %9.4f | %9.4f | %6.1fx | %9.2f | %7.0fx@."
          name n build_ms
          (float_of_int live_words /. 1e6)
          shared counts_dag_ms counts_tree_ms c_speed profile_dag_ms
          profile_tree_ms p_speed profile_pre_pr_ms pre_speed;
        ( name, n, build_ms, live_words, gates, shared, counts_dag_ms,
          counts_tree_ms, profile_dag_ms, profile_tree_ms, profile_pre_pr_ms ))
      rows_spec
  in
  let oc = open_out "BENCH_build.json" in
  Printf.fprintf oc "{\n  \"workload\": \"table1+modmul-dag-build\",\n";
  Printf.fprintf oc "  \"profile_span_depth\": false,\n";
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i
         ( name, n, build_ms, live_words, gates, shared, counts_dag_ms,
           counts_tree_ms, profile_dag_ms, profile_tree_ms, profile_pre_pr_ms ) ->
      Printf.fprintf oc
        "    {\"row\": \"%s\", \"n\": %d, \"build_ms\": %.3f, \
         \"live_words\": %d, \"gates\": %.0f, \"shared_nodes\": %d, \
         \"counts_dag_ms\": %.4f, \"counts_tree_ms\": %.4f, \
         \"counts_speedup\": %.2f, \"profile_dag_ms\": %.4f, \
         \"profile_tree_ms\": %.4f, \"profile_speedup_same_methodology\": \
         %.2f, \"profile_pre_pr_ms\": %.4f, \"profile_speedup_vs_pre_pr\": \
         %.1f, \"metrics_speedup_vs_pre_pr\": %.1f}%s\n"
        (json_escape name) n build_ms live_words gates shared counts_dag_ms
        counts_tree_ms
        (counts_tree_ms /. Float.max counts_dag_ms 1e-9)
        profile_dag_ms profile_tree_ms
        (profile_tree_ms /. Float.max profile_dag_ms 1e-9)
        profile_pre_pr_ms
        (profile_pre_pr_ms /. Float.max profile_dag_ms 1e-9)
        ((counts_tree_ms +. profile_pre_pr_ms)
        /. Float.max (counts_dag_ms +. profile_dag_ms) 1e-9)
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  fpf "  (written to BENCH_build.json)@."

(* ------------------------------------------------------------------ *)
(* E-FAULT: fault-injection campaigns, forced branches, invariant lint *)

let experiment_faults () =
  let open Mbu_robustness in
  header "E-FAULT: fault injection / forced branches / invariant linting";
  let n = 5 in
  let p = modulus n in
  let runs = 300 in
  let seed = 7 in
  fpf "  n = %d, p = %d; lint + forced-branch check + %d single-fault runs \
       per family (seed %d)@."
    n p runs seed;
  fpf "  %-22s | %5s | %4s | %7s %7s %7s | %9s %7s@." "family" "sites" "arms"
    "correct" "detect" "silent" "detection" "silent%";
  let rows =
    List.map
      (fun e ->
        let spec = e.Catalogue.make ~n ~p in
        (* Lint must be clean on every catalogue circuit... *)
        let lint_report = Catalogue.lint spec in
        if not (Lint.is_clean lint_report) then begin
          fpf "%s@." (Lint.to_string lint_report);
          failwith
            (Printf.sprintf "lint errors in catalogue circuit %s"
               e.Catalogue.name)
        end;
        (* ...and forcing outcomes must drive both arms of every If_bit
           with the oracle holding on each. *)
        let cov = Engine.check_forced_branches spec in
        if not (Engine.covered cov) then
          failwith
            (Printf.sprintf
               "forced-branch coverage failed for %s (%d arms, %d uncovered, \
                correct: %b/%b)"
               e.Catalogue.name
               (List.length cov.Engine.arms)
               (List.length cov.Engine.uncovered)
               cov.Engine.correct_on_true cov.Engine.correct_on_false);
        let r =
          Engine.run_campaign ~seed
            ~plan:(Engine.Random { runs; faults_per_run = 1 })
            spec
        in
        fpf "  %-22s | %5d | %4d | %7d %7d %7d | %9.3f %6.1f%%@."
          e.Catalogue.title r.Engine.sites
          (List.length cov.Engine.arms)
          r.Engine.correct r.Engine.detected r.Engine.silent
          (Engine.detection_rate r)
          (100. *. Engine.silent_rate r);
        (e, r))
      Catalogue.all
  in
  (* Acceptance probe: every single-X fault site of a VBE modular adder —
     final-comparator ancillas included — must classify without aborting. *)
  let vbe = List.hd Catalogue.table1 in
  let rx =
    Engine.run_campaign ~seed
      ~plan:(Engine.Exhaustive { paulis = [ Fault.X ] })
      (vbe.Catalogue.make ~n ~p)
  in
  assert (rx.Engine.correct + rx.Engine.detected + rx.Engine.silent = rx.Engine.runs);
  fpf "  exhaustive single-X on %s: %d runs over %d sites, all classified \
       (%d correct / %d detected / %d silent)@."
    vbe.Catalogue.title rx.Engine.runs rx.Engine.sites rx.Engine.correct
    rx.Engine.detected rx.Engine.silent;
  let oc = open_out "BENCH_faults.json" in
  Printf.fprintf oc "{\n  \"workload\": \"catalogue-fault-campaigns\",\n";
  Printf.fprintf oc "  \"n\": %d,\n  \"p\": %d,\n  \"runs_per_family\": %d,\n"
    n p runs;
  Printf.fprintf oc "  \"seed\": %d,\n  \"lint_clean\": true,\n" seed;
  Printf.fprintf oc
    "  \"exhaustive_x_vbe\": {\"sites\": %d, \"runs\": %d, \"correct\": %d, \
     \"detected\": %d, \"silent\": %d},\n"
    rx.Engine.sites rx.Engine.runs rx.Engine.correct rx.Engine.detected
    rx.Engine.silent;
  Printf.fprintf oc "  \"families\": [\n";
  List.iteri
    (fun i (e, r) ->
      Printf.fprintf oc
        "    {\"family\": \"%s\", \"sites\": %d, \"runs\": %d, \"correct\": \
         %d, \"detected\": %d, \"silent\": %d, \"detection_rate\": %.4f, \
         \"silent_rate\": %.4f}%s\n"
        (json_escape e.Catalogue.title)
        r.Engine.sites r.Engine.runs r.Engine.correct r.Engine.detected
        r.Engine.silent (Engine.detection_rate r) (Engine.silent_rate r)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  fpf "  (correct = fault absorbed; detected = clean error, dirty ancilla \
       or detector;@.";
  fpf "   silent = wrong output with nothing noticed; written to \
       BENCH_faults.json)@."

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock benchmarks *)

let bechamel_tests () =
  let open Bechamel in
  let t1 () =
    ignore
      (measure_t1 (List.assoc "CDKPM" t1_builders) ~mbu:true ~n:16 ~p:(modulus 16))
  in
  let t2 () =
    List.iter
      (fun style ->
        ignore
          (measure_build ~n:16 (fun b ->
               let x = Builder.fresh_register b "x" 16 in
               let y = Builder.fresh_register b "y" 17 in
               Adder.add style b ~x ~y)))
      Adder.all_styles
  in
  let t3 () =
    ignore
      (measure_build ~n:16 (fun b ->
           let c = Builder.fresh_register b "c" 1 in
           let x = Builder.fresh_register b "x" 16 in
           let y = Builder.fresh_register b "y" 17 in
           Adder.add_controlled Adder.Gidney b ~ctrl:(Register.get c 0) ~x ~y))
  in
  let t4 () =
    ignore
      (measure_build ~n:16 (fun b ->
           let y = Builder.fresh_register b "y" 17 in
           Adder.add_const Adder.Cdkpm b ~a:1234 ~y))
  in
  let t5 () =
    ignore
      (measure_build ~n:16 (fun b ->
           let c = Builder.fresh_register b "c" 1 in
           let y = Builder.fresh_register b "y" 17 in
           Adder.add_const_controlled Adder.Cdkpm b ~ctrl:(Register.get c 0)
             ~a:1234 ~y))
  in
  let t6 () =
    ignore
      (measure_build ~n:16 (fun b ->
           let x = Builder.fresh_register b "x" 16 in
           let y = Builder.fresh_register b "y" 16 in
           let t = Builder.fresh_register b "t" 1 in
           Adder.compare Adder.Cdkpm b ~x ~y ~target:(Register.get t 0)))
  in
  let mc () =
    ignore
      (Resources.monte_carlo_toffoli ~shots:1
         ~build:(fun b ->
           let x = Builder.fresh_register b "x" 4 in
           let y = Builder.fresh_register b "y" 4 in
           Mod_add.modadd ~mbu:true Mod_add.spec_cdkpm b ~p:13 ~x ~y;
           [ (x, 7); (y, 11) ])
         ())
  in
  let two_sided () =
    ignore
      (measure_build ~n:16 (fun b ->
           let x = Builder.fresh_register b "x" 16 in
           let y = Builder.fresh_register b "y" 16 in
           let z = Builder.fresh_register b "z" 16 in
           let t = Builder.fresh_register b "t" 1 in
           Mbu.in_range Adder.Cdkpm b ~x ~y ~z ~target:(Register.get t 0)))
  in
  let modmul () =
    ignore
      (measure_build ~n:8 (fun b ->
           let c = Builder.fresh_register b "c" 1 in
           let x = Builder.fresh_register b "x" 8 in
           let t = Builder.fresh_register b "t" 8 in
           Mod_mul.cmult_add
             (Mod_mul.ripple_engine ~mbu:true Mod_add.spec_mixed)
             b ~ctrl:(Register.get c 0) ~a:37 ~p:(modulus 8) ~x ~target:t))
  in
  Test.make_grouped ~name:"mbu" ~fmt:"%s/%s"
    [ Test.make ~name:"table1" (Staged.stage t1);
      Test.make ~name:"table2" (Staged.stage t2);
      Test.make ~name:"table3" (Staged.stage t3);
      Test.make ~name:"table4" (Staged.stage t4);
      Test.make ~name:"table5" (Staged.stage t5);
      Test.make ~name:"table6" (Staged.stage t6);
      Test.make ~name:"mbu_montecarlo" (Staged.stage mc);
      Test.make ~name:"two_sided" (Staged.stage two_sided);
      Test.make ~name:"modmul" (Staged.stage modmul);
      Test.make ~name:"tcount"
        (Staged.stage (fun () ->
             let b = Builder.create () in
             let x = Builder.fresh_register b "x" 16 in
             let y = Builder.fresh_register b "y" 17 in
             Adder.add Adder.Gidney b ~x ~y;
             let c =
               Decompose.circuit ~fresh_target_and:true (Builder.to_circuit b)
             in
             ignore (Decompose.t_count ~mode:(Counts.Expected 0.5) c.Circuit.instrs)));
      Test.make ~name:"pebble"
        (Staged.stage (fun () ->
             ignore
               (Pebble.cost ~chain_length:256 (Pebble.spooky ~chain_length:256 ()))));
      Test.make ~name:"aqft"
        (Staged.stage (fun () ->
             ignore
               (measure_build ~n:32 (fun b ->
                    let x = Builder.fresh_register b "x" 32 in
                    let y = Builder.fresh_register b "y" 33 in
                    Adder_draper.add_approx b ~cutoff:6 ~x ~y))));
      Test.make ~name:"depth"
        (Staged.stage (fun () ->
             ignore
               (measure_build ~n:64 (fun b ->
                    let x = Builder.fresh_register b "x" 64 in
                    let y = Builder.fresh_register b "y" 65 in
                    Adder_cla.add b ~x ~y))));
      Test.make ~name:"qrom"
        (Staged.stage (fun () ->
             let data = Array.init 256 (fun i -> i land 1) in
             ignore
               (measure_build ~n:8 (fun b ->
                    let address = Builder.fresh_register b "a" 8 in
                    let target = Builder.fresh_register b "t" 1 in
                    Qrom.unlookup b ~address ~target ~data)))) ]

let run_bechamel () =
  header "Wall-clock micro-benchmarks (Bechamel, circuit build + count)";
  let open Bechamel in
  let open Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.3) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (bechamel_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  fpf "  %-24s %14s@." "benchmark" "time/run";
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ t ] ->
          if t > 1e6 then fpf "  %-24s %11.2f ms@." name (t /. 1e6)
          else fpf "  %-24s %11.2f us@." name (t /. 1e3)
      | _ -> fpf "  %-24s %14s@." name "n/a")
    rows

(* ------------------------------------------------------------------ *)
(* Driver with per-phase wall-clock accounting *)

let phase_times : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 in
  phase_times := (name, dt) :: !phase_times

let report_phase_times () =
  header "Per-phase wall-clock time";
  let times = List.rev !phase_times in
  let total = List.fold_left (fun acc (_, dt) -> acc +. dt) 0. times in
  fpf "  %-20s %10s %6s@." "phase" "seconds" "share";
  List.iter
    (fun (name, dt) ->
      fpf "  %-20s %10.3f %5.1f%%@." name dt (100. *. dt /. Float.max total 1e-9))
    times;
  fpf "  %-20s %10.3f@." "total" total

(* ------------------------------------------------------------------ *)
(* Bench-regression gate: `--compare BASELINE.json` (repeatable).

   Each baseline's "workload" field selects the experiment that
   regenerates it; the experiment runs, the fresh file is diffed against
   the in-memory baseline with Bench_compare's per-metric thresholds, and
   any regression turns into a non-zero exit. Note the experiments
   overwrite the BENCH_*.json in the working tree — `git checkout` them
   afterwards if you want the committed baselines back. *)

module BC = Mbu_telemetry.Bench_compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let compare_paths () =
  let acc = ref [] in
  Array.iteri
    (fun i a ->
      if String.equal a "--compare" && i + 1 < Array.length Sys.argv then
        acc := Sys.argv.(i + 1) :: !acc)
    Sys.argv;
  List.rev !acc

let experiment_for_workload = function
  | "table1-modadd-montecarlo" ->
      Some ("sim_bench", experiment_sim_bench, "BENCH_sim.json")
  | "table1+modmul-dag-build" ->
      Some ("build_bench", experiment_build_bench, "BENCH_build.json")
  | "catalogue-fault-campaigns" ->
      Some ("faults", experiment_faults, "BENCH_faults.json")
  | _ -> None

let run_compare paths =
  let failed = ref false in
  List.iter
    (fun path ->
      match BC.parse_result (read_file path) with
      | exception Sys_error e ->
          fpf "  cannot read baseline %s: %s@." path e;
          failed := true
      | Error e ->
          fpf "  baseline %s: parse error: %s@." path e;
          failed := true
      | Ok baseline -> (
          match Option.bind (BC.workload baseline) experiment_for_workload with
          | None ->
              fpf "  baseline %s: unknown workload, cannot regenerate@." path;
              failed := true
          | Some (name, experiment, fresh_path) ->
              header (Printf.sprintf "Regression gate: %s (%s)" path name);
              timed name experiment;
              let report =
                BC.compare_json ~baseline
                  ~current:(BC.parse (read_file fresh_path))
              in
              fpf "@.";
              print_string (BC.render report);
              if report.BC.regressions <> [] then failed := true))
    paths;
  (* Telemetry of the gate runs themselves rides along as a CI artifact. *)
  let oc = open_out "METRICS.json" in
  output_string oc (Mbu_telemetry.Telemetry.to_json ());
  close_out oc;
  fpf "@.telemetry written to METRICS.json@.";
  if !failed then begin
    fpf "@.REGRESSION GATE FAILED@.";
    exit 1
  end
  else fpf "@.regression gate passed@."

let () =
  (* `--sim-only` runs just the simulator micro-bench (CI benchmark smoke);
     `--build-only` just the DAG build/metric bench; `--faults-only` just
     the fault-injection / lint campaign; `--compare BASELINE.json`
     (repeatable) is the regression gate. *)
  (match compare_paths () with
  | [] -> ()
  | paths ->
      run_compare paths;
      report_phase_times ();
      fpf "@.done.@.";
      exit 0);
  if Array.exists (String.equal "--build-only") Sys.argv then begin
    timed "build_bench" experiment_build_bench;
    report_phase_times ();
    fpf "@.done.@.";
    exit 0
  end;
  if Array.exists (String.equal "--sim-only") Sys.argv then begin
    timed "sim_bench" experiment_sim_bench;
    report_phase_times ();
    fpf "@.done.@.";
    exit 0
  end;
  if Array.exists (String.equal "--faults-only") Sys.argv then begin
    timed "faults" experiment_faults;
    report_phase_times ();
    fpf "@.done.@.";
    exit 0
  end;
  timed "table1" table1;
  timed "table1_big" table1_big;
  timed "table2" table2;
  timed "table3" table3;
  timed "table4" table4;
  timed "table5" table5;
  timed "table6" table6;
  timed "monte_carlo" experiment_monte_carlo;
  timed "savings" experiment_savings;
  timed "two_sided" experiment_two_sided;
  timed "modmul" experiment_modmul;
  timed "qrom" experiment_qrom;
  timed "coset" experiment_coset;
  timed "tcount" experiment_tcount;
  timed "pebble" experiment_pebble;
  timed "aqft" experiment_aqft;
  timed "depth" experiment_depth;
  timed "ft" experiment_ft;
  timed "ablations" experiment_ablations;
  timed "build_bench" experiment_build_bench;
  timed "sim_bench" experiment_sim_bench;
  timed "faults" experiment_faults;
  timed "bechamel" run_bechamel;
  report_phase_times ();
  fpf "@.done.@."
