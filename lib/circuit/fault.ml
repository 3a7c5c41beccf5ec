type pauli = X | Y | Z

type site =
  | Gate_site of { pos : int; gate : Gate.t; qubit : Gate.qubit }
  | Measure_site of { pos : int; qubit : Gate.qubit; bit : int }
  | Branch_site of { pos : int; bit : int; value : bool }

type t =
  | Pauli_after of { pos : int; qubit : Gate.qubit; pauli : pauli }
  | Flip_outcome of { bit : int }
  | Skip_block of { pos : int }

(* Site and slot (instruction position) counts of one instruction; a
   [Call] reads its node's stored summary. They differ because a k-wire
   gate is one slot but k sites. *)
let counts_of = function
  | Instr.Gate g -> (Gate.arity g, 1)
  | i ->
      let s = Instr.scan [ i ] in
      (s.Instr.site_count, s.Instr.instr_count)

let num_sites instrs = (Instr.scan instrs).Instr.site_count

let site instrs k0 =
  if k0 < 0 || k0 >= num_sites instrs then
    invalid_arg "Fault.site: index out of range";
  (* [go] relies on the precondition [k < num_sites l], so the
     list-exhausted case is unreachable. *)
  let rec go ~pos k = function
    | [] -> assert false
    | i :: rest ->
        let ns, slots = counts_of i in
        if k < ns then in_instr ~pos k i else go ~pos:(pos + slots) (k - ns) rest
  and in_instr ~pos k = function
    | Instr.Gate g -> Gate_site { pos; gate = g; qubit = Gate.qubit g k }
    | Instr.Measure { qubit; bit; _ } -> Measure_site { pos; qubit; bit }
    | Instr.If_bit { bit; value; body } ->
        if k = 0 then Branch_site { pos; bit; value }
        else go ~pos:(pos + 1) (k - 1) body
    | Instr.Span { body; _ } -> go ~pos k body
    | Instr.Call n -> go ~pos k n.Instr.body
  in
  go ~pos:0 k0 instrs

let sites instrs =
  let acc = ref [] in
  let rec walk pos l = List.fold_left walk_instr pos l
  and walk_instr pos = function
    | Instr.Gate g ->
        for k = 0 to Gate.arity g - 1 do
          acc := Gate_site { pos; gate = g; qubit = Gate.qubit g k } :: !acc
        done;
        pos + 1
    | Instr.Measure { qubit; bit; _ } ->
        acc := Measure_site { pos; qubit; bit } :: !acc;
        pos + 1
    | Instr.If_bit { bit; value; body } ->
        acc := Branch_site { pos; bit; value } :: !acc;
        walk (pos + 1) body
    | Instr.Span { body; _ } -> walk pos body
    | Instr.Call n -> walk pos n.Instr.body
  in
  ignore (walk 0 instrs);
  List.rev !acc

let of_site ?(pauli = X) = function
  | Gate_site { pos; qubit; _ } -> Pauli_after { pos; qubit; pauli }
  | Measure_site { bit; _ } -> Flip_outcome { bit }
  | Branch_site { pos; _ } -> Skip_block { pos }

let pauli_gates p q =
  match p with
  | X -> [ Gate.X q ]
  | Z -> [ Gate.Z q ]
  | Y -> [ Gate.Z q; Gate.X q ]

let pauli_name = function X -> "X" | Y -> "Y" | Z -> "Z"

let to_string = function
  | Pauli_after { pos; qubit; pauli } ->
      Printf.sprintf "%s on qubit %d after instr %d" (pauli_name pauli) qubit pos
  | Flip_outcome { bit } -> Printf.sprintf "flip outcome of bit %d" bit
  | Skip_block { pos } -> Printf.sprintf "skip conditional at instr %d" pos
