type t = { num_qubits : int; num_bits : int; instrs : Instr.t list }

let make ?(validate = true) ?num_qubits ?num_bits instrs =
  (* One fused traversal: gate validation (when requested) and the wire/bit
     maxima come out of the same pass; shared blocks contribute their
     nodes' stored summaries and were validated when interned. *)
  let s = Instr.scan ~validate instrs in
  let min_q = s.Instr.max_qubit + 1 and min_b = s.Instr.max_bit + 1 in
  let num_qubits = Option.value num_qubits ~default:min_q in
  let num_bits = Option.value num_bits ~default:min_b in
  if num_qubits < min_q || num_bits < min_b then
    invalid_arg "Circuit.make: declared width smaller than wires used";
  { num_qubits; num_bits; instrs }

let adjoint c = { c with instrs = Instr.adjoint c.instrs }
let counts ?(mode = Counts.Worst) c = Counts.of_instrs ~mode c.instrs
let num_gates c = Instr.count_instrs c.instrs
let is_unitary c = Instr.is_unitary c.instrs

let append a b =
  { num_qubits = max a.num_qubits b.num_qubits;
    num_bits = max a.num_bits b.num_bits;
    instrs = List.rev_append (List.rev a.instrs) b.instrs }

let pp fmt c =
  Format.fprintf fmt "@[<v>circuit: %d qubits, %d bits@,%a@]" c.num_qubits
    c.num_bits
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Instr.pp)
    c.instrs
