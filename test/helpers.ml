(* Shared test harness: build an arithmetic circuit, simulate it on
   computational-basis (and superposition) inputs, and compare register
   contents against the Bitstring reference semantics. *)

open Mbu_circuit
open Mbu_simulator

let rng = Random.State.make [| 0xadd; 0x2025 |]

type adder = Builder.t -> x:Register.t -> y:Register.t -> unit

(* Run one (x, y) case of a plain adder: x has n qubits, y has n+1 with the
   top qubit starting at 0. Returns (x', y', ancillas_clean). *)
let run_adder build n x_val y_val =
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" n in
  let y = Builder.fresh_register b "y" (n + 1) in
  build b ~x ~y;
  let r = Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val) ] in
  ( Sim.register_value_exn r.Sim.state x,
    Sim.register_value_exn r.Sim.state y,
    Sim.wires_zero r.Sim.state ~except:[ x; y ] )

(* Exhaustively check that [build] implements y <- x + y (definition 2.1),
   keeps x, and cleans its ancillas, for every input pair at width n.
   [reps] > 1 exercises different measurement outcomes in MBU circuits. *)
let check_adder_exhaustive ?(reps = 1) ~name build n =
  for x_val = 0 to (1 lsl n) - 1 do
    for y_val = 0 to (1 lsl n) - 1 do
      for _ = 1 to reps do
        let x', y', clean = run_adder build n x_val y_val in
        Alcotest.(check int)
          (Printf.sprintf "%s n=%d: x kept (x=%d y=%d)" name n x_val y_val)
          x_val x';
        Alcotest.(check int)
          (Printf.sprintf "%s n=%d: sum (x=%d y=%d)" name n x_val y_val)
          (x_val + y_val) y';
        Alcotest.(check bool)
          (Printf.sprintf "%s n=%d: ancillas clean (x=%d y=%d)" name n x_val y_val)
          true clean
      done
    done
  done

let check_adder_random ?(reps = 1) ?(cases = 40) ~name build n =
  for _ = 1 to cases do
    let x_val = Random.State.int rng (1 lsl n) in
    let y_val = Random.State.int rng (1 lsl n) in
    for _ = 1 to reps do
      let x', y', clean = run_adder build n x_val y_val in
      Alcotest.(check int)
        (Printf.sprintf "%s n=%d: x kept (x=%d y=%d)" name n x_val y_val)
        x_val x';
      Alcotest.(check int)
        (Printf.sprintf "%s n=%d: sum (x=%d y=%d)" name n x_val y_val)
        (x_val + y_val) y';
      Alcotest.(check bool) (Printf.sprintf "%s n=%d: clean" name n) true clean
    done
  done

(* Controlled adder: y <- y + ctrl*x (definition 2.8). *)
let check_controlled_adder_exhaustive ?(reps = 1) ~name build n =
  for ctrl_val = 0 to 1 do
    for x_val = 0 to (1 lsl n) - 1 do
      for y_val = 0 to (1 lsl n) - 1 do
        for _ = 1 to reps do
          let b = Builder.create () in
          let ctrl = Builder.fresh_register b "ctrl" 1 in
          let x = Builder.fresh_register b "x" n in
          let y = Builder.fresh_register b "y" (n + 1) in
          build b ~ctrl:(Register.get ctrl 0) ~x ~y;
          let r =
            Sim.run_builder ~rng b
              ~inits:[ (ctrl, ctrl_val); (x, x_val); (y, y_val) ]
          in
          let msg tag =
            Printf.sprintf "%s n=%d %s (c=%d x=%d y=%d)" name n tag ctrl_val
              x_val y_val
          in
          Alcotest.(check int) (msg "ctrl kept") ctrl_val
            (Sim.register_value_exn r.Sim.state ctrl);
          Alcotest.(check int) (msg "x kept") x_val
            (Sim.register_value_exn r.Sim.state x);
          Alcotest.(check int) (msg "sum")
            (y_val + (ctrl_val * x_val))
            (Sim.register_value_exn r.Sim.state y);
          Alcotest.(check bool) (msg "clean") true
            (Sim.wires_zero r.Sim.state ~except:[ ctrl; x; y ])
        done
      done
    done
  done

(* Comparator: target <- target XOR 1[x > y] (definition 2.24). *)
let check_comparator_exhaustive ?(reps = 1) ~name build n =
  for t_val = 0 to 1 do
    for x_val = 0 to (1 lsl n) - 1 do
      for y_val = 0 to (1 lsl n) - 1 do
        for _ = 1 to reps do
          let b = Builder.create () in
          let x = Builder.fresh_register b "x" n in
          let y = Builder.fresh_register b "y" n in
          let t = Builder.fresh_register b "t" 1 in
          build b ~x ~y ~target:(Register.get t 0);
          let r =
            Sim.run_builder ~rng b ~inits:[ (x, x_val); (y, y_val); (t, t_val) ]
          in
          let msg tag =
            Printf.sprintf "%s n=%d %s (x=%d y=%d t=%d)" name n tag x_val y_val t_val
          in
          let expect = t_val lxor (if x_val > y_val then 1 else 0) in
          Alcotest.(check int) (msg "x kept") x_val
            (Sim.register_value_exn r.Sim.state x);
          Alcotest.(check int) (msg "y kept") y_val
            (Sim.register_value_exn r.Sim.state y);
          Alcotest.(check int) (msg "compare") expect
            (Sim.register_value_exn r.Sim.state t);
          Alcotest.(check bool) (msg "clean") true
            (Sim.wires_zero r.Sim.state ~except:[ x; y; t ])
        done
      done
    done
  done

(* Controlled comparator: target <- target XOR ctrl.1[x > y] (def 2.29). *)
let check_controlled_comparator_exhaustive ?(reps = 1) ~name build n =
  for ctrl_val = 0 to 1 do
    for x_val = 0 to (1 lsl n) - 1 do
      for y_val = 0 to (1 lsl n) - 1 do
        for _ = 1 to reps do
          let b = Builder.create () in
          let c = Builder.fresh_register b "c" 1 in
          let x = Builder.fresh_register b "x" n in
          let y = Builder.fresh_register b "y" n in
          let t = Builder.fresh_register b "t" 1 in
          build b ~ctrl:(Register.get c 0) ~x ~y ~target:(Register.get t 0);
          let r =
            Sim.run_builder ~rng b
              ~inits:[ (c, ctrl_val); (x, x_val); (y, y_val); (t, 0) ]
          in
          let msg tag =
            Printf.sprintf "%s n=%d %s (c=%d x=%d y=%d)" name n tag ctrl_val x_val y_val
          in
          let expect = if ctrl_val = 1 && x_val > y_val then 1 else 0 in
          Alcotest.(check int) (msg "compare") expect
            (Sim.register_value_exn r.Sim.state t);
          Alcotest.(check int) (msg "x kept") x_val
            (Sim.register_value_exn r.Sim.state x);
          Alcotest.(check int) (msg "y kept") y_val
            (Sim.register_value_exn r.Sim.state y);
          Alcotest.(check bool) (msg "clean") true
            (Sim.wires_zero r.Sim.state ~except:[ c; x; y; t ])
        done
      done
    done
  done

(* Superposition check for a plain adder: feed x as a uniform superposition
   with y = y0 fixed; the output must be exactly
   sum_x |x>|x + y0> / sqrt(2^n) with flat phases. This is the test that
   catches MBU phase errors, which basis-state tests cannot see. *)
let check_adder_superposition ~name build n y0 =
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" n in
  let y = Builder.fresh_register b "y" (n + 1) in
  Array.iter (fun q -> Builder.h b q) (Register.qubits x);
  build b ~x ~y;
  let r = Sim.run_builder ~rng b ~inits:[ (y, y0) ] in
  let num_qubits = State.num_qubits r.Sim.state in
  let amp : Complex.t =
    { re = 1.0 /. sqrt (float_of_int (1 lsl n)); im = 0.0 }
  in
  let entry x_val =
    let idx = ref 0 in
    for i = 0 to n - 1 do
      if (x_val lsr i) land 1 = 1 then idx := !idx lor (1 lsl Register.get x i)
    done;
    let s = x_val + y0 in
    for i = 0 to n do
      if (s lsr i) land 1 = 1 then idx := !idx lor (1 lsl Register.get y i)
    done;
    (!idx, amp)
  in
  let expected =
    State.of_alist ~num_qubits (List.init (1 lsl n) entry)
  in
  let f = State.fidelity r.Sim.state expected in
  Alcotest.(check bool)
    (Printf.sprintf "%s n=%d superposition fidelity %.6f" name n f)
    true
    (f > 1.0 -. 1e-9)

(* Reference ASAP depth: a hash table of fronts per wire and per bit, each
   gate's wires read through [Gate.qubits], and the result folded out of the
   tables at the end. Independent of [Depth]'s array kernel, which must
   agree with it bit for bit in every mode. *)
let reference_depth ~mode instrs =
  let weight = match mode with `Worst -> 1. | `Expected p -> p in
  let qdepth = Hashtbl.create 64 and qtof = Hashtbl.create 64 in
  let bdepth = Hashtbl.create 8 and btof = Hashtbl.create 8 in
  let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0. in
  (* [w] is the product of branch probabilities enclosing the current
     instruction; a gate in such a context advances the front by [w]. *)
  let rec exec w extra_total extra_tof = function
    | [] -> ()
    | Instr.Gate g :: rest ->
        let qs = Gate.qubits g in
        let front tbl = List.fold_left (fun m q -> Float.max m (get tbl q)) 0. qs in
        let t = Float.max (front qdepth) extra_total +. w in
        let tof_step = if Gate.is_toffoli g then w else 0. in
        let tt = Float.max (front qtof) extra_tof +. tof_step in
        List.iter (fun q -> Hashtbl.replace qdepth q t) qs;
        List.iter (fun q -> Hashtbl.replace qtof q tt) qs;
        exec w extra_total extra_tof rest
    | Instr.Measure { qubit; bit; _ } :: rest ->
        let t = Float.max (get qdepth qubit) extra_total +. w in
        let tt = Float.max (get qtof qubit) extra_tof in
        Hashtbl.replace qdepth qubit t;
        Hashtbl.replace bdepth bit t;
        Hashtbl.replace qtof qubit tt;
        Hashtbl.replace btof bit tt;
        exec w extra_total extra_tof rest
    | Instr.If_bit { bit; body; _ } :: rest ->
        exec (w *. weight)
          (Float.max extra_total (get bdepth bit))
          (Float.max extra_tof (get btof bit))
          body;
        exec w extra_total extra_tof rest
    | (Instr.Span { body; _ } | Instr.Call { body; _ }) :: rest ->
        exec w extra_total extra_tof body;
        exec w extra_total extra_tof rest
  in
  exec 1. 0. 0. instrs;
  let max_of tbl = Hashtbl.fold (fun _ v m -> Float.max v m) tbl 0. in
  { Depth.total = Float.max (max_of qdepth) (max_of bdepth);
    toffoli = Float.max (max_of qtof) (max_of btof) }

(* The body of every [Span] in expanded pre-order ([Call]s expanded,
   conditional bodies included): the order of [Trace.flatten] after the
   root, and of [Depth.spans] after index 0. *)
let span_bodies instrs =
  let rec go acc = function
    | [] -> acc
    | Instr.Gate _ :: rest | Instr.Measure _ :: rest -> go acc rest
    | Instr.Span { body; _ } :: rest -> go (go (body :: acc) body) rest
    | (Instr.If_bit { body; _ } | Instr.Call { body; _ }) :: rest ->
        go (go acc body) rest
  in
  List.rev (go [] instrs)
