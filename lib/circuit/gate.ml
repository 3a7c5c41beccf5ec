type qubit = int

type t =
  | X of qubit
  | Z of qubit
  | H of qubit
  | Phase of qubit * Phase.t
  | Cnot of { control : qubit; target : qubit }
  | Cz of qubit * qubit
  | Swap of qubit * qubit
  | Toffoli of { c1 : qubit; c2 : qubit; target : qubit }
  | Cphase of { control : qubit; target : qubit; phase : Phase.t }

let qubits = function
  | X q | Z q | H q | Phase (q, _) -> [ q ]
  | Cnot { control; target } -> [ control; target ]
  | Cz (a, b) | Swap (a, b) -> [ a; b ]
  | Toffoli { c1; c2; target } -> [ c1; c2; target ]
  | Cphase { control; target; _ } -> [ control; target ]

let arity = function
  | X _ | Z _ | H _ | Phase _ -> 1
  | Cnot _ | Cz _ | Swap _ | Cphase _ -> 2
  | Toffoli _ -> 3

let qubit g k =
  match (g, k) with
  | (X q | Z q | H q | Phase (q, _)), 0 -> q
  | (Cnot { control = q; _ } | Cz (q, _) | Swap (q, _) | Cphase { control = q; _ }), 0
  | (Cnot { target = q; _ } | Cz (_, q) | Swap (_, q) | Cphase { target = q; _ }), 1
  | Toffoli { c1 = q; _ }, 0
  | Toffoli { c2 = q; _ }, 1
  | Toffoli { target = q; _ }, 2 ->
      q
  | _ -> invalid_arg "Gate.qubit: operand index out of range"

let adjoint = function
  | (X _ | Z _ | H _ | Cnot _ | Cz _ | Swap _ | Toffoli _) as g -> g
  | Phase (q, p) -> Phase (q, Phase.neg p)
  | Cphase { control; target; phase } ->
      Cphase { control; target; phase = Phase.neg phase }

(* Matched on the constructor, so validating a gate allocates nothing. A
   negative wire is reported before a repeated one. *)
let validate g =
  let negative () = invalid_arg "Gate: negative wire" in
  let repeated () = invalid_arg "Gate: repeated wire" in
  match g with
  | X q | Z q | H q | Phase (q, _) -> if q < 0 then negative ()
  | Cnot { control = a; target = b }
  | Cz (a, b)
  | Swap (a, b)
  | Cphase { control = a; target = b; _ } ->
      if a < 0 || b < 0 then negative ();
      if a = b then repeated ()
  | Toffoli { c1; c2; target } ->
      if c1 < 0 || c2 < 0 || target < 0 then negative ();
      if c1 = c2 || c1 = target || c2 = target then repeated ()

let is_toffoli = function Toffoli _ -> true | _ -> false

let equal a b =
  match a, b with
  | Cz (x, y), Cz (x', y') | Swap (x, y), Swap (x', y') ->
      (x = x' && y = y') || (x = y' && y = x')
  | Cphase { control = x; target = y; phase }, Cphase { control = x'; target = y'; phase = phase' } ->
      Phase.equal phase phase' && ((x = x' && y = y') || (x = y' && y = x'))
  | Toffoli { c1; c2; target }, Toffoli { c1 = c1'; c2 = c2'; target = t' } ->
      target = t' && ((c1 = c1' && c2 = c2') || (c1 = c2' && c2 = c1'))
  | _ -> a = b

let pp fmt = function
  | X q -> Format.fprintf fmt "X %d" q
  | Z q -> Format.fprintf fmt "Z %d" q
  | H q -> Format.fprintf fmt "H %d" q
  | Phase (q, p) -> Format.fprintf fmt "R(%a) %d" Phase.pp p q
  | Cnot { control; target } -> Format.fprintf fmt "CNOT %d -> %d" control target
  | Cz (a, b) -> Format.fprintf fmt "CZ %d %d" a b
  | Swap (a, b) -> Format.fprintf fmt "SWAP %d %d" a b
  | Toffoli { c1; c2; target } -> Format.fprintf fmt "TOF %d %d -> %d" c1 c2 target
  | Cphase { control; target; phase } ->
      Format.fprintf fmt "C-R(%a) %d -> %d" Phase.pp phase control target
