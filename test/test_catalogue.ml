(* The circuit catalogue: every family the CLI builds, at every style it
   distinguishes, with and without MBU, must compute its classical oracle
   on one seeded input, return its ancillas to |0>, lint clean, and have an
   oracle that agrees with the fault-free-run oracle of the campaign
   engine. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core
open Mbu_robustness

let n = 4
let p = 11

let styles (f : Catalogue.family) =
  if f.styled then Adder.all_styles else [ Adder.Cdkpm ]

let check_family (f : Catalogue.family) () =
  let rng = Random.State.make [| 0xca7; Hashtbl.hash f.name |] in
  List.iter
    (fun style ->
      List.iter
        (fun mbu ->
          let x = Random.State.int rng p and y = Random.State.int rng p in
          let what =
            Printf.sprintf "%s %s mbu=%b x=%d y=%d" f.name
              (Adder.style_name style) mbu x y
          in
          let b = Builder.create () in
          let built =
            f.build b { style; mbu; n; p; a = p / 3; x; y }
          in
          let c = Builder.to_circuit b in
          Alcotest.(check (list string))
            (what ^ ": oracle covers every register")
            (List.map Register.name built.registers)
            (List.map (fun (r, _) -> Register.name r) built.expect);
          let r =
            Sim.run ~rng ~engine:Sim.Fast c
              ~init:(Sim.init_registers ~num_qubits:(Builder.num_qubits b) built.inits)
          in
          List.iter
            (fun (reg, v) ->
              Alcotest.(check (option int))
                (Printf.sprintf "%s: register %s" what (Register.name reg))
                (Some v)
                (Sim.register_value r.Sim.state reg))
            built.expect;
          Alcotest.(check bool) (what ^ ": ancillas clean") true
            (Sim.wires_zero r.Sim.state ~except:built.registers);
          let report = Lint.check ~input_qubits:(Builder.input_qubits b) c in
          if not (Lint.is_clean report) then
            Alcotest.failf "%s: lint\n%s" what (Lint.to_string report);
          let spec = Catalogue.spec ~name:f.name b built in
          Alcotest.(check (list int))
            (what ^ ": oracle = fault-free run")
            (List.map snd (Engine.oracle_outputs spec built.registers))
            (List.map snd built.expect))
        [ false; true ])
    (styles f)

(* perfbench and the BENCH_faults baseline address the campaign entries by
   these names, titles and order; the Table-1 ones are table 1's rows. *)
let test_entries () =
  Alcotest.(check (list string)) "entry names"
    [ "vbe5"; "vbe4"; "cdkpm"; "gidney"; "mixed"; "draper"; "modadd-const";
      "takahashi" ]
    (List.map (fun (e : Catalogue.entry) -> e.name) Catalogue.all);
  Alcotest.(check (list string)) "table 1 titles"
    (List.filteri (fun i _ -> i < 6)
       (List.map (fun (r : Formulas.t1_row) -> r.t1_name) Formulas.table1))
    (List.map (fun (e : Catalogue.entry) -> e.title) Catalogue.table1)

let suite =
  ( "catalogue",
    Alcotest.test_case "campaign entries" `Quick test_entries
    :: List.map
         (fun (f : Catalogue.family) ->
           Alcotest.test_case ("family " ^ f.name) `Quick (check_family f))
         Catalogue.families )
