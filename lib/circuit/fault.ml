type pauli = X | Y | Z

type site =
  | Gate_site of { pos : int; gate : Gate.t; qubit : Gate.qubit }
  | Measure_site of { pos : int; qubit : Gate.qubit; bit : int }
  | Branch_site of { pos : int; bit : int; value : bool }

type t =
  | Pauli_after of { pos : int; qubit : Gate.qubit; pauli : pauli }
  | Flip_outcome of { bit : int }
  | Skip_block of { pos : int }

let num_sites instrs = (Instr.scan instrs).Instr.site_count

(* One walk counting [k] down past each site, with [pos] the slot of the
   instruction at hand. It descends into span and branch bodies as it meets
   them; only a [Call] reads its node's stored counts, to step over the
   block or descend into the one that holds the site. *)
let site instrs k0 =
  if k0 < 0 then invalid_arg "Fault.site: index out of range";
  let k = ref k0 and pos = ref 0 in
  let rec walk = function
    | [] -> None
    | i :: rest -> (
        match visit i with Some _ as found -> found | None -> walk rest)
  and visit = function
    | Instr.Gate g ->
        let arity = Gate.arity g in
        if !k < arity then
          Some (Gate_site { pos = !pos; gate = g; qubit = Gate.qubit g !k })
        else begin
          k := !k - arity;
          incr pos;
          None
        end
    | Instr.Measure { qubit; bit; _ } ->
        if !k = 0 then Some (Measure_site { pos = !pos; qubit; bit })
        else begin
          decr k;
          incr pos;
          None
        end
    | Instr.If_bit { bit; value; body } ->
        if !k = 0 then Some (Branch_site { pos = !pos; bit; value })
        else begin
          decr k;
          incr pos;
          walk body
        end
    | Instr.Span { body; _ } -> walk body
    | Instr.Call n ->
        let s = n.Instr.summary in
        if !k < s.Instr.site_count then walk n.Instr.body
        else begin
          k := !k - s.Instr.site_count;
          pos := !pos + s.Instr.instr_count;
          None
        end
  in
  match walk instrs with
  | Some found -> found
  | None -> invalid_arg "Fault.site: index out of range"

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

let pauli_name = function X -> "X" | Y -> "Y" | Z -> "Z"

let to_string = function
  | Pauli_after { pos; qubit; pauli } ->
      Printf.sprintf "%s on qubit %d after instr %d" (pauli_name pauli) qubit pos
  | Flip_outcome { bit } -> Printf.sprintf "flip outcome of bit %d" bit
  | Skip_block { pos } -> Printf.sprintf "skip conditional at instr %d" pos
