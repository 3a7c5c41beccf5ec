type severity = Error | Warning

type finding = {
  check : string;
  severity : severity;
  message : string;
  qubit : int option;
  bit : int option;
}

type report = {
  num_qubits : int;
  num_bits : int;
  input_qubits : int;
  findings : finding list;
}

(* Abstract value of a wire / classical bit on the classical track. *)
type av = Zero | One | Top

let join a b = if a = b then a else Top
let neg = function Zero -> One | One -> Zero | Top -> Top
let of_bool b = if b then One else Zero

type st = {
  wires : av array;
  bits : av option array;  (* None = never written *)
  (* [Some b] when the wire was measured into bit [b] without reset and no
     conditional on [b] has run yet. *)
  collapsed : int option array;
}

let snapshot st =
  { wires = Array.copy st.wires;
    bits = Array.copy st.bits;
    collapsed = Array.copy st.collapsed }

(* Pointwise join of two control-flow arms, written into [st]. *)
let join_into st other =
  for i = 0 to Array.length st.wires - 1 do
    st.wires.(i) <- join st.wires.(i) other.wires.(i)
  done;
  for i = 0 to Array.length st.bits - 1 do
    st.bits.(i) <-
      (match (st.bits.(i), other.bits.(i)) with
      | None, o -> o
      | s, None -> s
      | Some a, Some b -> Some (join a b))
  done;
  (* A wire collapsed in either arm stays marked (conservative). *)
  for i = 0 to Array.length st.collapsed - 1 do
    if st.collapsed.(i) = None then st.collapsed.(i) <- other.collapsed.(i)
  done

let check_instrs ?input_qubits ~num_qubits ~num_bits instrs =
  let input_qubits =
    match input_qubits with Some k -> k | None -> num_qubits
  in
  let st =
    { wires = Array.init num_qubits (fun q -> if q < input_qubits then Top else Zero);
      bits = Array.make (max num_bits 1) None;
      collapsed = Array.make (max num_qubits 1) None }
  in
  let findings = ref [] in
  let seen = Hashtbl.create 32 in
  let emit ?qubit ?bit check severity message =
    let key = (check, qubit, bit) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      findings := { check; severity; message; qubit; bit } :: !findings
    end
  in
  let wire_ok q =
    if q < 0 || q >= num_qubits then begin
      emit ~qubit:q "wire-escape" Error
        (Printf.sprintf "wire %d outside the declared width %d" q num_qubits);
      false
    end
    else true
  in
  let bit_ok c =
    if c < 0 || c >= num_bits then begin
      emit ~bit:c "bit-escape" Error
        (Printf.sprintf "classical bit %d outside the declared width %d" c
           num_bits);
      false
    end
    else true
  in
  let get q = st.wires.(q) in
  let set q v = st.wires.(q) <- v in
  (* [ctx] is the set of classical bits whose conditional blocks we are
     inside: touching a wire collapsed into one of them is the correction
     itself, not a reuse. *)
  let use ctx q =
    if wire_ok q then
      match st.collapsed.(q) with
      | Some b when not (List.mem b ctx) ->
          emit ~qubit:q ~bit:b "use-after-measure" Warning
            (Printf.sprintf
               "wire %d is used after being measured into bit %d with no \
                conditional on that bit in scope"
               q b)
      | _ -> ()
  in
  let apply_gate ctx g =
    let in_range = ref true in
    for k = 0 to Gate.arity g - 1 do
      let q = Gate.qubit g k in
      use ctx q;
      if q < 0 || q >= num_qubits then in_range := false
    done;
    if !in_range then
      match g with
      | Gate.X q -> set q (neg (get q))
      | Gate.Z _ | Gate.Phase _ | Gate.Cz _ | Gate.Cphase _ -> ()
      | Gate.H q -> set q Top
      | Gate.Cnot { control; target } -> (
          match get control with
          | Zero -> ()
          | One -> set target (neg (get target))
          | Top -> set target Top)
      | Gate.Swap (a, b) ->
          let va = get a in
          set a (get b);
          set b va
      | Gate.Toffoli { c1; c2; target } -> (
          match (get c1, get c2) with
          | Zero, _ | _, Zero -> ()
          | One, One -> set target (neg (get target))
          | _ -> set target Top)
  in
  let rec walk ctx l = List.iter (walk_instr ctx) l
  and walk_instr ctx = function
    | Instr.Gate g -> apply_gate ctx g
    | Instr.Measure { qubit; bit; reset } ->
        if wire_ok qubit && bit_ok bit then begin
          use ctx qubit;
          (match st.bits.(bit) with
          | Some _ ->
              emit ~bit "bit-overwrite" Warning
                (Printf.sprintf "classical bit %d is written twice" bit)
          | None -> ());
          st.bits.(bit) <- Some (get qubit);
          if reset then begin
            set qubit Zero;
            st.collapsed.(qubit) <- None
          end
          else
            (* Only a genuinely indefinite wire collapses; measuring a
               known value is deterministic and leaves nothing dangling. *)
            st.collapsed.(qubit) <- (if get qubit = Top then Some bit else None)
        end
    | Instr.If_bit { bit; value; body } ->
        if bit_ok bit then begin
          (match st.bits.(bit) with
          | None ->
              emit ~bit "unwritten-bit" Error
                (Printf.sprintf
                   "conditional on classical bit %d, which no measurement \
                    writes"
                   bit);
              (* Analyse the body anyway (joined), for its own findings. *)
              let before = snapshot st in
              walk (bit :: ctx) body;
              join_into st before
          | Some bv -> (
              match (bv, value) with
              | One, false | Zero, true -> () (* provably dead branch *)
              | One, true | Zero, false -> walk (bit :: ctx) body
              | Top, _ ->
                  let before = snapshot st in
                  st.bits.(bit) <- Some (of_bool value);
                  walk (bit :: ctx) body;
                  st.bits.(bit) <- Some Top;
                  join_into st before));
          (* The conditional consumed the outcome: wires collapsed into
             this bit are considered handled from here on. *)
          Array.iteri
            (fun q c -> if c = Some bit then st.collapsed.(q) <- None)
            st.collapsed
        end
    | Instr.Span { body; _ } -> walk ctx body
    | Instr.Call n -> walk ctx n.Instr.body
  in
  walk [] instrs;
  for q = input_qubits to num_qubits - 1 do
    if st.wires.(q) = One then
      emit ~qubit:q "ancilla-leak" Error
        (Printf.sprintf "ancilla wire %d provably ends in |1>" q)
  done;
  { num_qubits; num_bits; input_qubits; findings = List.rev !findings }

let check ?input_qubits (c : Circuit.t) =
  check_instrs ?input_qubits ~num_qubits:c.Circuit.num_qubits
    ~num_bits:c.Circuit.num_bits c.Circuit.instrs

let errors r = List.filter (fun f -> f.severity = Error) r.findings
let is_clean r = errors r = []

let to_string r =
  let b = Buffer.create 128 in
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "%s: %s: %s\n"
           (match f.severity with Error -> "error" | Warning -> "warning")
           f.check f.message))
    r.findings;
  let errs = List.length (errors r) in
  let warns = List.length r.findings - errs in
  Buffer.add_string b
    (Printf.sprintf "%d error%s, %d warning%s (%d qubits, %d inputs, %d bits)\n"
       errs (if errs = 1 then "" else "s")
       warns (if warns = 1 then "" else "s")
       r.num_qubits r.input_qubits r.num_bits);
  Buffer.contents b
