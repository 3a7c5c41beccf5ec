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

(* The list-based gate validation that [Gate.validate] replaced: every wire
   collected and [List.sort_uniq]ed. *)
let reference_validate g =
  let qs = Gate.qubits g in
  if List.exists (fun q -> q < 0) qs then invalid_arg "Gate: negative wire";
  let sorted = List.sort_uniq Stdlib.compare qs in
  if List.length sorted <> List.length qs then invalid_arg "Gate: repeated wire"

let counts_of_gate g =
  let z = Counts.zero in
  match g with
  | Gate.X _ -> { z with x = 1. }
  | Gate.Z _ -> { z with z = 1. }
  | Gate.H _ -> { z with h = 1. }
  | Gate.Phase _ -> { z with phase = 1. }
  | Gate.Cnot _ -> { z with cnot = 1. }
  | Gate.Cz _ -> { z with cz = 1. }
  | Gate.Swap _ -> { z with swap = 1. }
  | Gate.Toffoli _ -> { z with toffoli = 1. }
  | Gate.Cphase _ -> { z with cphase = 1. }

(* The record-building count that [Counts.of_instrs] replaced: a fresh
   [Counts.t] per gate, scaled and added, a shared node counted once at
   weight 1 in the dyadic modes. Its addition order is the one the
   accumulator walk must keep. *)
let reference_counts ~mode instrs =
  let branch_weight =
    match mode with Counts.Worst -> 1. | Best -> 0. | Expected p -> p
  in
  let memo : (int, Counts.t) Hashtbl.t = Hashtbl.create 64 in
  let use_memo = branch_weight = 0. || fst (Float.frexp branch_weight) = 0.5 in
  let rec count weight acc = function
    | [] -> acc
    | Instr.Gate g :: rest ->
        count weight (Counts.add acc (Counts.scale weight (counts_of_gate g))) rest
    | Instr.Measure _ :: rest ->
        count weight
          (Counts.add acc (Counts.scale weight { Counts.zero with measure = 1. }))
          rest
    | Instr.If_bit { body; _ } :: rest ->
        count weight (count (weight *. branch_weight) acc body) rest
    | Instr.Span { body; _ } :: rest -> count weight (count weight acc body) rest
    | Instr.Call node :: rest ->
        if use_memo then
          let c =
            match Hashtbl.find_opt memo node.Instr.id with
            | Some c -> c
            | None ->
                let c = count 1. Counts.zero node.Instr.body in
                Hashtbl.add memo node.Instr.id c;
                c
          in
          let c = if weight = 1. then c else Counts.scale weight c in
          count weight (Counts.add acc c) rest
        else count weight (count weight acc node.Instr.body) rest
  in
  count 1. Counts.zero instrs

(* The fold-based span walk that [Trace.profile] replaced, without depths
   (compare with [~span_depth:false]): each block returns its own
   [(flat, children)] pair, which the enclosing block adds to its own. *)
let reference_profile ~mode instrs =
  let branch_weight =
    match mode with Counts.Worst -> 1. | Best -> 0. | Expected p -> p
  in
  let cum_of flat children =
    List.fold_left (fun acc e -> Counts.add acc e.Trace.cum) flat children
  in
  let clock = ref 0. in
  let memo = Hashtbl.create 64 in
  let use_memo = branch_weight = 0. || fst (Float.frexp branch_weight) = 0.5 in
  let occurrences = Hashtbl.create 64 in
  let rec count_sites = function
    | Instr.Gate _ | Instr.Measure _ -> ()
    | Instr.If_bit { body; _ } | Instr.Span { body; _ } -> List.iter count_sites body
    | Instr.Call node ->
        let n = Option.value (Hashtbl.find_opt occurrences node.Instr.id) ~default:0 in
        Hashtbl.replace occurrences node.Instr.id (n + 1);
        if n = 0 then List.iter count_sites node.Instr.body
  in
  if use_memo then List.iter count_sites instrs;
  let rec rebase ~w ~at ~path (e : Trace.entry) =
    if w = 1. then
      { e with
        path = path @ e.path;
        start = at +. e.start;
        children = List.map (rebase ~w ~at ~path) e.children }
    else
      { e with
        path = path @ e.path;
        start = at +. (w *. e.start);
        dur = w *. e.dur;
        flat = Counts.scale w e.flat;
        cum = Counts.scale w e.cum;
        children = List.map (rebase ~w ~at ~path) e.children }
  in
  let rec walk path w instrs =
    let flat, rev_children =
      List.fold_left
        (fun (flat, kids) i ->
          match i with
          | Instr.Gate g ->
              clock := !clock +. w;
              (Counts.add flat (Counts.scale w (counts_of_gate g)), kids)
          | Instr.Measure _ ->
              clock := !clock +. w;
              (Counts.add flat (Counts.scale w { Counts.zero with measure = 1. }), kids)
          | Instr.If_bit { body; _ } ->
              let bflat, bkids = walk path (w *. branch_weight) body in
              (Counts.add flat bflat, List.rev_append bkids kids)
          | Instr.Span { label; peak_ancillas; body } ->
              let start = !clock in
              let cpath = path @ [ label ] in
              let bflat, bkids = walk cpath w body in
              let e =
                { Trace.label; path = cpath; start; dur = !clock -. start;
                  flat = bflat; cum = cum_of bflat bkids; peak_ancillas;
                  total_depth = 0.; toffoli_depth = 0.; calls = 1;
                  children = bkids }
              in
              (flat, e :: kids)
          | Instr.Call node ->
              if
                use_memo
                && Option.value (Hashtbl.find_opt occurrences node.Instr.id) ~default:0
                   > 1
              then begin
                let m_flat, m_dur, m_children = memo_of node in
                let at = !clock in
                clock := at +. (w *. m_dur);
                let bkids = List.map (rebase ~w ~at ~path) m_children in
                let mflat = if w = 1. then m_flat else Counts.scale w m_flat in
                (Counts.add flat mflat, List.rev_append bkids kids)
              end
              else
                let bflat, bkids = walk path w node.Instr.body in
                (Counts.add flat bflat, List.rev_append bkids kids))
        (Counts.zero, []) instrs
    in
    (flat, List.rev rev_children)
  and memo_of node =
    match Hashtbl.find_opt memo node.Instr.id with
    | Some m -> m
    | None ->
        let saved = !clock in
        clock := 0.;
        let flat, children = walk [] 1. node.Instr.body in
        let m = (flat, !clock, children) in
        clock := saved;
        Hashtbl.add memo node.Instr.id m;
        m
  in
  let flat, children = walk [] 1. instrs in
  { Trace.label = Trace.root_label; path = []; start = 0.; dur = !clock; flat;
    cum = cum_of flat children;
    peak_ancillas = List.fold_left (fun m e -> max m e.Trace.peak_ancillas) 0 children;
    total_depth = 0.; toffoli_depth = 0.; calls = 1; children }

(* Gates through the program kernel: each gate one slot of a compiled
   program, run in place by [State.run_slots] up to [stop]. Returns the
   stop reached, the tally and the opcodes. *)
let run_kernel s gates ~stop =
  let n = List.length gates in
  let code = Array.make n 0 and a = Array.make n 0 and b = Array.make n 0 in
  let c = Array.make n 0 and w = Array.make (2 * n) 0. in
  List.iteri (fun i g -> State.encode_gate g ~code ~a ~b ~c ~w i) gates;
  let tally = Array.make State.tally_size 0 in
  let j =
    State.run_slots s ~code ~a ~b ~c ~w ~gates:(Array.of_list gates) ~tally
      ~bits:[||] ~rng:(Random.State.make [| 0 |]) 0 ~stop
  in
  (j, tally, code)

(* One gate as a one-slot program, in place or on a copy. *)
let kernel_gate_inplace s g = ignore (run_kernel s [ g ] ~stop:1)

let kernel_gate s g =
  let s = State.copy s in
  kernel_gate_inplace s g;
  s
