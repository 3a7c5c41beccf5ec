(* Benchmark harness: regenerates every table of the paper's evaluation
   (tables 1-6), reports the headline MBU savings (count and Toffoli
   depth), the two-sided comparator and the modular-multiplication
   extension, and validates the "in expectation" cost model by seeded
   Monte-Carlo. Finishes with Bechamel wall-clock micro-benchmarks (one per
   table/experiment), printed only.

     dune exec bench/main.exe

   The three files it writes hold only numbers a rerun reproduces, so the
   regression gate is a rerun and a diff:

     dune exec bench/main.exe -- --sim-only --build-only --faults-only
     git diff --exit-code BENCH_sim.json BENCH_build.json BENCH_faults.json

   Wall-clock with repeats and spreads is perfbench/'s. *)

open Mbu_circuit
open Mbu_core
open Mbu_robustness

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

(* Table-1 rows come from the circuit catalogue ([Catalogue.table1] is
   table 1's row order). *)
let t1_row id = Option.get (Catalogue.find id)

let measure_t1 e ~mbu ~n ~p =
  Resources.measure ~n ~build:(fun b -> ignore (Catalogue.emit e ~mbu ~n ~p b)) ()

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
        (fun (e : Catalogue.entry) (row : Formulas.t1_row) ->
          let name = e.title in
          assert (row.Formulas.t1_name = name);
          List.iter
            (fun mbu ->
              let paper = row.Formulas.t1_cost ~mbu params in
              let m = measure_t1 e ~mbu ~n ~p in
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
        Catalogue.table1
        (List.filteri (fun i _ -> i < 6) Formulas.table1);
      (* Draper (expect): amortize away the opening QFT and closing IQFT. *)
      let expect_row = List.nth Formulas.table1 6 in
      List.iter
        (fun mbu ->
          let paper = expect_row.Formulas.t1_cost ~mbu params in
          let m = measure_t1 (t1_row "draper") ~mbu ~n ~p in
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

(* A catalogue family at width n, modulus [modulus n]. *)
let measure_family ?(mbu = false) ?(a = 0) name style n =
  let f = Catalogue.family name in
  measure_build ~n (fun b ->
      ignore (f.build b { style; mbu; n; p = modulus n; a; x = 0; y = 0 }))

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
  let adder = measure_family "adder" in
  print_small_table ~title:"Table 2 - plain adders"
    ~rows:Formulas.table2_plain_adders
    ~builders:
      [ ("VBE", adder Adder.Vbe); ("CDKPM", adder Adder.Cdkpm);
        ("Gidney", adder Adder.Gidney); ("Draper", adder Adder.Draper) ]
    ~ns:[ 8; 16; 32 ]
    ~params_of:(fun n -> Formulas.{ n; hp = 0; ha = 0 })

let table3 () =
  let cadder = measure_family "cadder" in
  print_small_table ~title:"Table 3 - controlled adders"
    ~rows:Formulas.table3_controlled_adders
    ~builders:
      [ ("CDKPM", cadder Adder.Cdkpm); ("Gidney", cadder Adder.Gidney);
        ("Draper", cadder Adder.Draper) ]
    ~ns:[ 8; 16; 32 ]
    ~params_of:(fun n -> Formulas.{ n; hp = 0; ha = 0 })

let table4 () =
  let cadder style n = measure_family ~a:(modulus n / 3) "adder-const" style n in
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
          ~a:(Mbu_bitstring.Bitstring.of_int ~width:n (modulus n / 3)) ~y)
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
  let cmp = measure_family "compare" in
  print_small_table ~title:"Table 6 - comparators"
    ~rows:Formulas.table6_comparators
    ~builders:
      [ ("CDKPM", cmp Adder.Cdkpm); ("Gidney", cmp Adder.Gidney);
        ("Draper", cmp Adder.Draper) ]
    ~ns:[ 8; 16; 32 ]
    ~params_of:(fun n -> Formulas.{ n; hp = 0; ha = 0 })

(* ------------------------------------------------------------------ *)
(* E-SAVE: headline savings in Toffoli count and depth *)

let experiment_savings () =
  header "E-SAVE: MBU savings, expected Toffoli count and Toffoli depth (n = 32)";
  let n = 32 in
  let p = modulus n in
  fpf "  %-15s | %9s %9s %7s | %9s %9s %7s@." "modular adder" "Tof" "Tof+MBU"
    "saved" "TofDepth" "TD+MBU" "saved";
  List.iter
    (fun (e : Catalogue.entry) ->
      let name = e.title in
      let m mbu = measure_t1 e ~mbu ~n ~p in
      let a = m false and b' = m true in
      let pc x y = 100. *. (x -. y) /. x in
      if e.name = "draper" then
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
    Catalogue.table1;
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
      let build mbu = measure_family ~mbu "in-range" Adder.Cdkpm n in
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
        (measure_family ~mbu:true ~a:(p / 3) "modadd-const" Adder.Cdkpm n)
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
(* E-SIM: Monte-Carlo validation of the expectation cost model *)

module Json = Mbu_telemetry.Json

(* The BENCH files are [Json] documents holding only numbers a rerun
   reproduces: counts and seeded Monte-Carlo means, no wall-clock. A
   fraction is rounded to its table precision as a value, so every run
   prints the same digits. *)
let write_json path doc =
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string doc))

let fixed digits v =
  let scale = 10. ** float_of_int digits in
  Json.Num (Float.round (v *. scale) /. scale)

let int i = Json.Num (float_of_int i)

(* One seeded [fold_shots] over a catalogue spec: the mean executed
   Toffolis and gates per shot, the fraction of conditionals taken and the
   shots the oracle accepts. Executed counts are whole numbers, so the
   float sums are exact in any merge order. *)
let monte_carlo ~seed ~jobs ~shots (spec : Engine.spec) =
  let open Mbu_simulator in
  let stats = Sim.new_stats () in
  let toffoli, gates, correct =
    Sim.fold_shots ~seed ~jobs ~stats ~shots spec.circuit ~init:spec.init
      ~empty:(fun () -> (0., 0., 0))
      ~step:(fun (t, g, k) _ _ (r : Sim.run) ->
        ( t +. r.executed.Counts.toffoli,
          g +. Counts.total_gates r.executed,
          if Engine.classify_run spec r = Engine.Correct then k + 1 else k ))
      ~merge:(fun (t, g, k) (t', g', k') -> (t +. t', g +. g', k + k'))
  in
  let per_shot v = v /. float_of_int shots in
  ( per_shot toffoli, per_shot gates,
    Option.value (Sim.taken_frequency stats) ~default:0., correct )

let experiment_sim_bench () =
  header "E-SIM: Monte-Carlo vs analytic expected Toffolis, Table-1 rows";
  let shots = 1000 and seed = 1 in
  fpf "  %d seeded shots per row (seed %d) on the Fast engine; MBU on@." shots
    seed;
  fpf "  %-15s | %3s | %9s %9s %7s | %9s | %6s | %9s@." "row" "n" "analytic"
    "mean" "rel.err" "gates" "taken" "correct";
  (* The rows of table 1. Rows whose total width would exceed the
     simulator's 62-qubit cap at n = 16 run at the largest n that fits
     (shown in the n column). *)
  let rows =
    List.map
      (fun (id, n) ->
        let e = t1_row id in
        let spec = e.make ~n ~p:(modulus n) in
        let analytic =
          (Counts.of_instrs ~mode:(Counts.Expected 0.5) spec.circuit.Circuit.instrs)
            .Counts.toffoli
        in
        let cov = Engine.check_forced_branches spec in
        let exact = cov.Engine.expected_toffoli in
        if exact <> analytic || not (Engine.covered cov) then
          failwith
            (Printf.sprintf "E-SIM %s: exact Toffolis %g, analytic %g, covered %b"
               id exact analytic (Engine.covered cov));
        let ((toffoli, gates, taken, correct) as r) =
          monte_carlo ~seed ~jobs:1 ~shots spec
        in
        if monte_carlo ~seed ~jobs:2 ~shots spec <> r then
          failwith (Printf.sprintf "E-SIM %s: jobs = 2 differs from jobs = 1" id);
        (* Draper's adders have no Toffoli, so no relative error. *)
        let rel_err =
          if analytic = 0. then "-"
          else Printf.sprintf "%.4f" (Float.abs (toffoli -. analytic) /. analytic)
        in
        fpf "  %-15s | %3d | %9.3f %9.3f %7s | %9.3f | %6.4f | %4d/%4d@."
          e.title n analytic toffoli rel_err gates taken correct shots;
        Json.(
          Obj
            [ ("row", Str e.title); ("n", int n);
              ("toffoli_expected", Num analytic); ("toffoli_exact", Num exact);
              ("toffoli_per_shot", Num toffoli); ("gates_per_shot", Num gates);
              ("branch_taken_frac", fixed 4 taken);
              ("correct_shots", int correct) ]))
      [ ("vbe5", 15); ("vbe4", 15); ("cdkpm", 16); ("gidney", 14); ("mixed", 16);
        ("draper", 16) ]
  in
  write_json "BENCH_sim.json"
    Json.(
      Obj
        [ ("workload", Str "table1-modadd-montecarlo"); ("shots", int shots);
          ("seed", int seed); ("rows", Arr rows) ]);
  fpf "  (analytic = Counts in Expected 0.5 = the forced-branch runs' exact@.";
  fpf "   expectation; mean = executed per shot, the same at jobs = 1 and 2)@."

(* ------------------------------------------------------------------ *)
(* E-BUILD: hash-consed DAG size *)

(* What a memoized pass visits: the distinct shared nodes reachable from
   [instrs], and the own-level instructions of the top level plus each
   distinct node, where a [Call] counts one and spans are weightless (as in
   [Instr.count_instrs]). *)
let dag_size instrs =
  let seen = Hashtbl.create 64 in
  let rec own acc = function
    | [] -> acc
    | (Instr.Gate _ | Instr.Measure _) :: rest -> own (acc + 1) rest
    | Instr.If_bit { body; _ } :: rest -> own (own (acc + 1) body) rest
    | Instr.Span { body; _ } :: rest -> own (own acc body) rest
    | Instr.Call node :: rest ->
        let acc =
          if Hashtbl.mem seen node.Instr.id then acc + 1
          else begin
            Hashtbl.add seen node.Instr.id ();
            own (acc + 1) node.Instr.body
          end
        in
        own acc rest
  in
  let dag_instrs = own 0 instrs in
  (Hashtbl.length seen, dag_instrs)

let experiment_build_bench () =
  header "E-BUILD: hash-consed DAG size, Table-1 rows and mod_mul (MBU)";
  fpf "  instrs = the expanded tree; dag = what a memoized pass visits@.";
  let t1_rows =
    List.map
      (fun (e : Catalogue.entry) ->
        ( e.title, 32,
          fun b -> ignore (Catalogue.emit e ~mbu:true ~n:32 ~p:(modulus 32) b) ))
      Catalogue.table1
  in
  let modmul_row n =
    ( "mod_mul cmult_add", n,
      fun b ->
        let p = modulus n in
        ignore
          ((Catalogue.family "cmult").build b
             { style = Adder.Cdkpm; mbu = true; n; p; a = p / 3; x = 0; y = 0 }) )
  in
  fpf "  %-18s | %3s | %8s | %8s | %9s | %5s@." "row" "n" "gates" "instrs"
    "dag instr" "nodes";
  let rows =
    List.map
      (fun (name, n, emit) ->
        let b = Builder.create () in
        emit b;
        let instrs = (Builder.to_circuit b).Circuit.instrs in
        let gates =
          Counts.total_gates (Counts.of_instrs ~mode:Counts.Worst instrs)
        in
        let expanded = Instr.count_instrs instrs in
        let nodes, dag_instrs = dag_size instrs in
        fpf "  %-18s | %3d | %8.0f | %8d | %9d | %5d@." name n gates expanded
          dag_instrs nodes;
        Json.(
          Obj
            [ ("row", Str name); ("n", int n); ("gates", Num gates);
              ("instrs", int expanded); ("dag_instrs", int dag_instrs);
              ("nodes", int nodes) ]))
      (t1_rows @ List.map modmul_row [ 16; 32; 60 ])
  in
  write_json "BENCH_build.json"
    Json.(Obj [ ("workload", Str "table1+modmul-dag-build"); ("rows", Arr rows) ]);
  fpf "  (written to BENCH_build.json)@."

(* ------------------------------------------------------------------ *)
(* E-FAULT: fault-injection campaigns, forced branches, invariant lint *)

let experiment_faults () =
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
  let tally (r : Engine.result) =
    [ ("sites", int r.sites); ("runs", int r.runs); ("correct", int r.correct);
      ("detected", int r.detected); ("silent", int r.silent) ]
  in
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
           with the oracle holding on each, every outcome a fair coin. *)
        let cov = Engine.check_forced_branches spec in
        if not (Engine.covered cov) then
          failwith
            (Printf.sprintf
               "forced-branch coverage failed for %s (%d arms, %d uncovered, \
                %d runs, correct: %b, reconverged: %b, fair: %b)"
               e.Catalogue.name
               (List.length cov.Engine.arms)
               (List.length cov.Engine.uncovered)
               cov.Engine.runs cov.Engine.correct cov.Engine.reconverged
               cov.Engine.fair);
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
        Json.(
          Obj
            ((("family", Str e.Catalogue.title) :: tally r)
            @ [ ("detection_rate", fixed 4 (Engine.detection_rate r));
                ("silent_rate", fixed 4 (Engine.silent_rate r)) ])))
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
  write_json "BENCH_faults.json"
    Json.(
      Obj
        [ ("workload", Str "catalogue-fault-campaigns"); ("n", int n);
          ("p", int p); ("runs_per_family", int runs); ("seed", int seed);
          ("lint_clean", Bool true); ("exhaustive_x_vbe", Obj (tally rx));
          ("families", Arr rows) ]);
  fpf "  (correct = fault absorbed; detected = dirty ancilla or detector;@.";
  fpf "   silent = wrong output with nothing noticed; written to \
       BENCH_faults.json)@."

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock benchmarks *)

let bechamel_tests () =
  let open Bechamel in
  let t1 () =
    ignore
      (measure_t1 (t1_row "cdkpm") ~mbu:true ~n:16 ~p:(modulus 16))
  in
  let t2 () =
    List.iter (fun style -> ignore (measure_family "adder" style 16)) Adder.all_styles
  in
  let t3 () = ignore (measure_family "cadder" Adder.Gidney 16) in
  let t4 () = ignore (measure_family ~a:1234 "adder-const" Adder.Cdkpm 16) in
  let t5 () =
    ignore
      (measure_build ~n:16 (fun b ->
           let c = Builder.fresh_register b "c" 1 in
           let y = Builder.fresh_register b "y" 17 in
           Adder.add_const_controlled Adder.Cdkpm b ~ctrl:(Register.get c 0)
             ~a:(Mbu_bitstring.Bitstring.of_int ~width:16 1234) ~y))
  in
  let t6 () = ignore (measure_family "compare" Adder.Cdkpm 16) in
  let mc () =
    ignore
      (Resources.monte_carlo_toffoli ~shots:1
         ~build:(fun b ->
           (Catalogue.emit ~x:7 ~y:11 (t1_row "cdkpm") ~mbu:true ~n:4 ~p:13 b)
             .Catalogue.inits)
         ())
  in
  let two_sided () = ignore (measure_family ~mbu:true "in-range" Adder.Cdkpm 16) in
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

let () =
  (* `--sim-only`, `--build-only` and `--faults-only` run just the
     experiment that rewrites BENCH_sim.json, BENCH_build.json or
     BENCH_faults.json; with none of them, everything runs. *)
  let only =
    List.filter
      (fun (flag, _, _) -> Array.exists (String.equal flag) Sys.argv)
      [ ("--sim-only", "sim_bench", experiment_sim_bench);
        ("--build-only", "build_bench", experiment_build_bench);
        ("--faults-only", "faults", experiment_faults) ]
  in
  (match only with
  | _ :: _ -> List.iter (fun (_, name, f) -> timed name f) only
  | [] ->
      List.iter
        (fun (name, f) -> timed name f)
        [ ("table1", table1); ("table1_big", table1_big); ("table2", table2);
          ("table3", table3); ("table4", table4); ("table5", table5);
          ("table6", table6); ("savings", experiment_savings);
          ("two_sided", experiment_two_sided); ("modmul", experiment_modmul);
          ("qrom", experiment_qrom); ("coset", experiment_coset);
          ("tcount", experiment_tcount); ("pebble", experiment_pebble);
          ("aqft", experiment_aqft); ("depth", experiment_depth);
          ("ft", experiment_ft); ("ablations", experiment_ablations);
          ("build_bench", experiment_build_bench);
          ("sim_bench", experiment_sim_bench); ("faults", experiment_faults);
          ("bechamel", run_bechamel) ]);
  report_phase_times ();
  fpf "@.done.@."
