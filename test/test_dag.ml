(* The hash-consed DAG IR: memoized metric passes (Counts, Depth, Trace,
   Instr.scan) must be observationally identical to the materialized tree
   the program denotes (Instr.expand_calls), sharing must actually occur on
   the workloads that motivated it, and the structural operations (share,
   adjoint) must respect node identity. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core
open Mbu_robustness

let rng = Helpers.rng

let modulus n =
  (1 lsl (n - 1)) lor (0b1010101 land ((1 lsl (n - 1)) - 1)) lor 1

(* The controlled modular multiply-add: many per-bit shared blocks. *)
let build_mod_mul n =
  let p = modulus n in
  let b = Builder.create () in
  let c = Builder.fresh_register b "c" 1 in
  let x = Builder.fresh_register b "x" n in
  let t = Builder.fresh_register b "t" n in
  Mod_mul.cmult_add
    (Mod_mul.ripple_engine ~mbu:true Mod_add.spec_cdkpm)
    b ~ctrl:(Register.get c 0) ~a:(p / 3) ~p ~x ~target:t;
  Builder.to_circuit b

(* Every circuit family that emits shared blocks somewhere in its call
   graph: the six Table-1 modular adders, the controlled modular
   multiply-add, QROM lookup/unlookup, and a compiled pebbling strategy. *)
let circuits () =
  List.concat_map
    (fun (e : Catalogue.entry) ->
      List.map
        (fun mbu ->
          let n = 8 in
          let b = Builder.create () in
          ignore (Catalogue.emit e ~mbu ~n ~p:(modulus n) b);
          (Printf.sprintf "%s mbu:%b" e.name mbu, Builder.to_circuit b))
        [ true; false ])
    Catalogue.table1
  @ [ ("mod_mul", build_mod_mul 8);
      ( "qrom",
        let b = Builder.create () in
        let address = Builder.fresh_register b "a" 3 in
        let target = Builder.fresh_register b "t" 2 in
        let data = Array.init 8 (fun i -> (i * 5) land 3) in
        Qrom.lookup b ~address ~target ~data;
        Qrom.unlookup b ~address ~target ~data;
        Builder.to_circuit b );
      ( "pebble",
        let b = Builder.create () in
        let inp = Builder.fresh_register b "in" 1 in
        let chain = Array.init 6 (fun i -> (i land 1 = 0, i land 2 = 0)) in
        ignore
          (Pebble.compile b ~chain ~input:(Register.get inp 0)
             (Pebble.bennett ~chain_length:6));
        Builder.to_circuit b ) ]

(* The memoized passes vs the same pass on the expanded tree. Dyadic modes
   must agree bit-for-bit (the memo is only enabled when float sums are
   exact); non-dyadic Expected 0.3 takes the inline path and is trivially
   identical, but keep it in the matrix to pin that behaviour. *)
let test_metrics_match_tree () =
  List.iter
    (fun (name, c) ->
      let dag = c.Circuit.instrs in
      let tree = Instr.expand_calls dag in
      List.iter
        (fun (mname, mode) ->
          let msg = Printf.sprintf "%s/%s counts" name mname in
          Alcotest.(check bool)
            msg true
            (Counts.of_instrs ~mode dag = Counts.of_instrs ~mode tree))
        [ ("worst", Counts.Worst); ("best", Counts.Best);
          ("exp0.5", Counts.Expected 0.5); ("exp0.3", Counts.Expected 0.3) ];
      List.iter
        (fun (mname, mode) ->
          let d = Depth.of_instrs ~mode dag in
          let t = Depth.of_instrs ~mode tree in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s depth" name mname)
            true
            (d.Depth.total = t.Depth.total && d.Depth.toffoli = t.Depth.toffoli))
        [ ("worst", `Worst); ("exp0.5", `Expected 0.5) ];
      Alcotest.(check int) (name ^ " max_qubit") (Instr.max_qubit tree)
        (Instr.max_qubit dag);
      Alcotest.(check int) (name ^ " max_bit") (Instr.max_bit tree)
        (Instr.max_bit dag);
      Alcotest.(check int) (name ^ " count_instrs") (Instr.count_instrs tree)
        (Instr.count_instrs dag);
      Alcotest.(check int) (name ^ " count_spans") (Instr.count_spans tree)
        (Instr.count_spans dag);
      Alcotest.(check bool) (name ^ " is_unitary")
        (Instr.is_unitary tree) (Instr.is_unitary dag))
    (circuits ())

(* Trace profiles serialize identically whether walked through Call
   references (memoize + clock rebase) or on the materialized tree. *)
let test_trace_matches_tree () =
  List.iter
    (fun (name, c) ->
      let dag = c.Circuit.instrs in
      let tree = Instr.expand_calls dag in
      List.iter
        (fun span_depth ->
          List.iter
            (fun (mname, mode) ->
              Alcotest.(check string)
                (Printf.sprintf "%s/%s span_depth:%b" name mname span_depth)
                (Trace.to_json (Trace.profile ~mode ~span_depth tree))
                (Trace.to_json (Trace.profile ~mode ~span_depth dag)))
            [ ("worst", Counts.Worst); ("exp0.5", Counts.Expected 0.5);
              ("exp0.3", Counts.Expected 0.3) ])
        [ true; false ])
    (circuits ())

(* QASM emission expands shared blocks in place: same text as the tree. *)
let test_qasm_matches_tree () =
  List.iter
    (fun (name, c) ->
      let tree =
        Circuit.make ~num_qubits:c.Circuit.num_qubits
          ~num_bits:c.Circuit.num_bits
          (Instr.expand_calls c.Circuit.instrs)
      in
      Alcotest.(check string) (name ^ " qasm") (Qasm.to_string tree)
        (Qasm.to_string c))
    (circuits ())

let rec has_call = function
  | [] -> false
  | Instr.Call _ :: _ -> true
  | (Instr.Gate _ | Instr.Measure _) :: rest -> has_call rest
  | (Instr.If_bit { body; _ } | Instr.Span { body; _ }) :: rest ->
      has_call body || has_call rest

(* Sharing actually happens on the workloads that motivated the IR — the
   DAG is strictly smaller than its expansion. *)
let test_sharing_occurs () =
  List.iter
    (fun name ->
      let c = List.assoc name (circuits ()) in
      Alcotest.(check bool) (name ^ " has Call nodes") true
        (has_call c.Circuit.instrs))
    [ "mod_mul"; "qrom"; "pebble" ]

(* Structurally equal bodies intern to the physically same node; distinct
   bodies do not. *)
let test_interning_canonical () =
  let body q = [ Instr.Gate (Gate.X q); Instr.Gate (Gate.H q) ] in
  let a = Instr.share (body 3) and b = Instr.share (body 3) in
  (match (a, b) with
  | Instr.Call na, Instr.Call nb ->
      Alcotest.(check bool) "same node" true (na == nb);
      Alcotest.(check int) "same id" na.Instr.id nb.Instr.id
  | _ -> Alcotest.fail "share did not return Call");
  match (Instr.share (body 3), Instr.share (body 4)) with
  | Instr.Call na, Instr.Call nb ->
      Alcotest.(check bool) "distinct bodies distinct nodes" false (na == nb)
  | _ -> Alcotest.fail "share did not return Call"

(* adjoint maps shared blocks to shared blocks, and double adjoint returns
   the original node (interning the re-adjointed body finds it). *)
let test_adjoint_roundtrip () =
  let body =
    [ Instr.Gate (Gate.H 0); Instr.Gate (Gate.Cnot { control = 0; target = 1 });
      Instr.Gate (Gate.Phase (1, Phase.theta 3)) ]
  in
  let call = Instr.share body in
  let adj = Instr.adjoint [ call ] in
  (match adj with
  | [ Instr.Call _ ] -> ()
  | _ -> Alcotest.fail "adjoint of Call is not a Call");
  (match Instr.adjoint adj with
  | [ Instr.Call n ] ->
      let orig = match call with Instr.Call n -> n | _ -> assert false in
      Alcotest.(check bool) "double adjoint is the original node" true
        (n == orig)
  | _ -> Alcotest.fail "double adjoint shape");
  (* metric agreement through the adjoint, on a real circuit *)
  let c = List.assoc "mod_mul" (circuits ()) in
  if Circuit.is_unitary c then begin
    let adj = Circuit.adjoint c in
    let tree = Instr.expand_calls adj.Circuit.instrs in
    Alcotest.(check bool) "adjoint counts match tree" true
      (Counts.of_instrs ~mode:Counts.Worst adj.Circuit.instrs
      = Counts.of_instrs ~mode:Counts.Worst tree)
  end

(* Builder.shared is anonymous: no span wrapper, so rendered output is
   indistinguishable from inline emission. *)
let test_shared_anonymous () =
  let emit b q =
    Builder.x b q;
    Builder.h b q
  in
  let b1 = Builder.create () in
  let q1 = Builder.fresh_qubit b1 in
  Builder.shared b1 (fun () -> emit b1 q1);
  let b2 = Builder.create () in
  let q2 = Builder.fresh_qubit b2 in
  emit b2 q2;
  let c1 = Builder.to_circuit b1 and c2 = Builder.to_circuit b2 in
  Alcotest.(check bool) "shared emits a Call" true (has_call c1.Circuit.instrs);
  Alcotest.(check int) "no span added" (Instr.count_spans c2.Circuit.instrs)
    (Instr.count_spans c1.Circuit.instrs);
  Alcotest.(check string) "same qasm" (Qasm.to_string c2) (Qasm.to_string c1);
  (* emitting nothing pushes nothing *)
  let b3 = Builder.create () in
  Builder.shared b3 (fun () -> ());
  Alcotest.(check int) "empty shared emits nothing" 0
    (List.length (Builder.to_circuit b3).Circuit.instrs)

(* The intern set holds nodes weakly: once a circuit is dropped, a full
   major GC reclaims its nodes, so building and dropping does not grow the
   live node count. *)
let test_dropped_nodes_reclaimed () =
  let[@inline never] build_and_drop () =
    let c = build_mod_mul 16 in
    Alcotest.(check bool) "circuit has shared nodes" true
      (has_call c.Circuit.instrs && Instr.shared_nodes () > 0)
  in
  Gc.full_major ();
  let before = Instr.shared_nodes () in
  build_and_drop ();
  Gc.full_major ();
  let after = Instr.shared_nodes () in
  if after > before then
    Alcotest.failf "live nodes grew from %d to %d after the circuit was dropped"
      before after

(* Every node is valid by construction: share checks the body's own gates. *)
let test_share_validates () =
  Alcotest.check_raises "repeated wire rejected"
    (Invalid_argument "Gate: repeated wire") (fun () ->
      ignore
        (Instr.share [ Instr.Gate (Gate.Cnot { control = 3; target = 3 }) ]))

(* Two domains interning the same circuit at once agree on every summary
   the passes read off the nodes. *)
let test_parallel_build () =
  let results =
    Parallel.fold ~jobs:2 ~tasks:2
      ~init:(fun () -> [])
      ~step:(fun acc _ ->
        let instrs = (build_mod_mul 8).Circuit.instrs in
        acc
        @ [ ( Counts.of_instrs ~mode:(Counts.Expected 0.5) instrs,
              Fault.num_sites instrs,
              Instr.count_instrs instrs ) ])
      ~merge:( @ )
  in
  Alcotest.(check int) "one result per domain" 2 (List.length results);
  let c0, s0, i0 = List.nth results 0 and c1, s1, i1 = List.nth results 1 in
  Alcotest.(check bool) "equal counts" true (c0 = c1);
  Alcotest.(check int) "equal fault sites" s0 s1;
  Alcotest.(check int) "equal instruction counts" i0 i1;
  Alcotest.(check int) "sites match the expanded tree"
    (List.length (Fault.sites (Instr.expand_calls (build_mod_mul 8).Circuit.instrs)))
    s0

let suite =
  ( "dag",
    [ Alcotest.test_case "metrics match expanded tree" `Quick
        test_metrics_match_tree;
      Alcotest.test_case "trace matches expanded tree" `Quick
        test_trace_matches_tree;
      Alcotest.test_case "qasm matches expanded tree" `Quick
        test_qasm_matches_tree;
      Alcotest.test_case "sharing occurs on mod_mul/qrom/pebble" `Quick
        test_sharing_occurs;
      Alcotest.test_case "interning is canonical" `Quick
        test_interning_canonical;
      Alcotest.test_case "adjoint of shared round-trips" `Quick
        test_adjoint_roundtrip;
      Alcotest.test_case "anonymous shared is invisible" `Quick
        test_shared_anonymous;
      Alcotest.test_case "dropped nodes are reclaimed" `Quick
        test_dropped_nodes_reclaimed;
      Alcotest.test_case "share validates gates" `Quick test_share_validates;
      Alcotest.test_case "parallel builds agree" `Quick test_parallel_build ] )
