type summary = {
  max_qubit : int;
  max_bit : int;
  instr_count : int;
  span_count : int;
  site_count : int;
  unitary : bool;
}

type t =
  | Gate of Gate.t
  | Measure of { qubit : Gate.qubit; bit : int; reset : bool }
  | If_bit of { bit : int; value : bool; body : t list }
  | Span of { label : string; peak_ancillas : int; body : t list }
  | Call of node

and node = { id : int; hkey : int; body : t list; summary : summary }

(* ------------------------------------------------------------------ *)
(* Structural hash and equality of a body's own level. Nodes are       *)
(* interned bottom-up: the body of a node is built before the node     *)
(* itself, so any [Call] appearing inside a candidate body already     *)
(* points at a canonical node. Structural equality of [Call]s          *)
(* therefore reduces to physical equality of their nodes, which keeps  *)
(* both hashing and comparison O(size of the body's own level) instead *)
(* of O(size of the expanded tree).                                    *)
(* ------------------------------------------------------------------ *)

let combine h v = (h * 0x01000193) lxor (v land max_int)

let rec hash_instr = function
  | Gate g -> combine 0x9e3779b1 (Hashtbl.hash g)
  | Measure { qubit; bit; reset } ->
      combine (combine (combine 2 qubit) bit) (Bool.to_int reset)
  | If_bit { bit; value; body } ->
      combine (combine (combine 3 bit) (Bool.to_int value)) (hash_body body)
  | Span { label; peak_ancillas; body } ->
      combine
        (combine (combine 5 (Hashtbl.hash label)) peak_ancillas)
        (hash_body body)
  | Call n -> combine 7 n.hkey

and hash_body body =
  List.fold_left (fun h i -> combine h (hash_instr i)) 0x811c9dc5 body

let rec equal_instr a b =
  a == b
  ||
  match (a, b) with
  | Gate g, Gate h -> Gate.equal g h
  | Measure m, Measure m' ->
      m.qubit = m'.qubit && m.bit = m'.bit && m.reset = m'.reset
  | If_bit i, If_bit j ->
      i.bit = j.bit && i.value = j.value && equal_body i.body j.body
  | Span s, Span s' ->
      String.equal s.label s'.label
      && s.peak_ancillas = s'.peak_ancillas
      && equal_body s.body s'.body
  | Call n, Call m -> n == m
  | _ -> false

and equal_body a b =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> equal_instr x y && equal_body xs ys
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Fused scan: one walk computing wire/bit maxima, instruction, span   *)
(* and fault-site totals, and unitarity, with optional gate            *)
(* validation. A [Call] contributes its node's stored summary, so the  *)
(* walk never leaves the list's own level.                             *)
(* ------------------------------------------------------------------ *)

type scan_acc = {
  mutable mq : int;
  mutable mb : int;
  mutable ni : int;
  mutable ns : int;
  mutable nsite : int;
  mutable un : bool;
}

let note_wire acc q = if q > acc.mq then acc.mq <- q

(* One site per wire; the widest wire read off the constructor. *)
let scan_gate acc = function
  | Gate.X q | Gate.Z q | Gate.H q | Gate.Phase (q, _) ->
      note_wire acc q;
      acc.nsite <- acc.nsite + 1
  | Gate.Cnot { control = a; target = b }
  | Gate.Cz (a, b)
  | Gate.Swap (a, b)
  | Gate.Cphase { control = a; target = b; _ } ->
      note_wire acc a;
      note_wire acc b;
      acc.nsite <- acc.nsite + 2
  | Gate.Toffoli { c1; c2; target } ->
      note_wire acc c1;
      note_wire acc c2;
      note_wire acc target;
      acc.nsite <- acc.nsite + 3

let rec scan_into ~validate acc = function
  | [] -> ()
  | Gate g :: rest ->
      if validate then Gate.validate g;
      scan_gate acc g;
      acc.ni <- acc.ni + 1;
      scan_into ~validate acc rest
  | Measure { qubit; bit; _ } :: rest ->
      if qubit > acc.mq then acc.mq <- qubit;
      if bit > acc.mb then acc.mb <- bit;
      acc.ni <- acc.ni + 1;
      acc.nsite <- acc.nsite + 1;
      acc.un <- false;
      scan_into ~validate acc rest
  | If_bit { bit; body; _ } :: rest ->
      if bit > acc.mb then acc.mb <- bit;
      acc.ni <- acc.ni + 1;
      acc.nsite <- acc.nsite + 1;
      acc.un <- false;
      scan_into ~validate acc body;
      scan_into ~validate acc rest
  | Span { body; _ } :: rest ->
      acc.ns <- acc.ns + 1;
      scan_into ~validate acc body;
      scan_into ~validate acc rest
  | Call { summary = s; _ } :: rest ->
      if s.max_qubit > acc.mq then acc.mq <- s.max_qubit;
      if s.max_bit > acc.mb then acc.mb <- s.max_bit;
      acc.ni <- acc.ni + s.instr_count;
      acc.ns <- acc.ns + s.span_count;
      acc.nsite <- acc.nsite + s.site_count;
      acc.un <- acc.un && s.unitary;
      scan_into ~validate acc rest

let scan ?(validate = false) instrs =
  let acc = { mq = -1; mb = -1; ni = 0; ns = 0; nsite = 0; un = true } in
  scan_into ~validate acc instrs;
  { max_qubit = acc.mq;
    max_bit = acc.mb;
    instr_count = acc.ni;
    span_count = acc.ns;
    site_count = acc.nsite;
    unitary = acc.un }

let max_qubit instrs = (scan instrs).max_qubit
let max_bit instrs = (scan instrs).max_bit

(* Spans are weightless bookkeeping: they never count as instructions, and
   neither does a [Call] — a reference counts as its expanded body. *)
let count_instrs instrs = (scan instrs).instr_count
let count_spans instrs = (scan instrs).span_count
let is_unitary instrs = (scan instrs).unitary

(* ------------------------------------------------------------------ *)
(* Hash-consing. The intern set holds its nodes weakly, so a node      *)
(* lives exactly as long as some circuit references it; one mutex      *)
(* guards lookup, insertion and the id counter, so domains may build   *)
(* circuits concurrently. A miss computes the node's summary and       *)
(* validates its own gates once, so every node is valid by             *)
(* construction.                                                       *)
(* ------------------------------------------------------------------ *)

module Node_set = Weak.Make (struct
  type nonrec t = node

  let hash n = n.hkey
  let equal a b = equal_body a.body b.body
end)

let intern_set = Node_set.create 1024
let intern_lock = Mutex.create ()
let next_node_id = ref 0

let with_lock f =
  Mutex.lock intern_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock intern_lock) f

(* Hash-cons hit rate: interned / (interned + allocated). *)
let m_nodes_interned =
  Mbu_telemetry.Telemetry.counter
    ~help:"share calls resolved to an existing hash-consed node"
    "mbu_builder_nodes_interned"

let m_nodes_allocated =
  Mbu_telemetry.Telemetry.counter
    ~help:"share calls that allocated a fresh hash-consed node"
    "mbu_builder_nodes_allocated"

(* Lookups go through a probe record: only [hkey] and [body] are read. *)
let probe_summary = scan []

let share body =
  let probe = { id = -1; hkey = hash_body body; body; summary = probe_summary } in
  with_lock (fun () ->
      match Node_set.find_opt intern_set probe with
      | Some n ->
          Mbu_telemetry.Telemetry.incr m_nodes_interned;
          Call n
      | None ->
          let summary = scan ~validate:true body in
          Mbu_telemetry.Telemetry.incr m_nodes_allocated;
          let n = { probe with id = !next_node_id; summary } in
          incr next_node_id;
          Node_set.add intern_set n;
          Call n)

let shared_nodes () = with_lock (fun () -> Node_set.count intern_set)

(* ------------------------------------------------------------------ *)
(* Adjoint. The adjoint of a shared node is itself shared; a memo      *)
(* local to the call visits each distinct node once. Double adjoint    *)
(* returns the original node because interning the re-adjointed body   *)
(* finds it.                                                           *)
(* ------------------------------------------------------------------ *)

let adjoint instrs =
  let memo : (int, t) Hashtbl.t = Hashtbl.create 16 in
  let rec adj l = List.rev_map adj_one l
  and adj_one = function
    | Gate g -> Gate (Gate.adjoint g)
    | Span { label; peak_ancillas; body } ->
        Span { label; peak_ancillas; body = adj body }
    | Call n -> (
        match Hashtbl.find_opt memo n.id with
        | Some a -> a
        | None ->
            let a = share (adj n.body) in
            Hashtbl.add memo n.id a;
            a)
    | Measure _ | If_bit _ ->
        invalid_arg "Instr.adjoint: circuit contains a measurement"
  in
  adj instrs

let rec iter_gates f = function
  | [] -> ()
  | Gate g :: rest ->
      f g;
      iter_gates f rest
  | Measure _ :: rest -> iter_gates f rest
  | (If_bit { body; _ } | Span { body; _ } | Call { body; _ }) :: rest ->
      iter_gates f body;
      iter_gates f rest

(* Both rewrites below use a reversed accumulator ([go] conses onto [acc]
   and the caller reverses once) so splicing a body is rev-append-style
   O(|body|) instead of the quadratic [strip body @ strip rest]. *)

let rec strip_spans instrs =
  let rec go acc = function
    | [] -> acc
    | (Span { body; _ } | Call { body; _ }) :: rest -> go (go acc body) rest
    | If_bit { bit; value; body } :: rest ->
        go (If_bit { bit; value; body = strip_spans body } :: acc) rest
    | ((Gate _ | Measure _) as i) :: rest -> go (i :: acc) rest
  in
  List.rev (go [] instrs)

let rec expand_calls instrs =
  let rec go acc = function
    | [] -> acc
    | Call { body; _ } :: rest -> go (go acc body) rest
    | Span { label; peak_ancillas; body } :: rest ->
        go (Span { label; peak_ancillas; body = expand_calls body } :: acc) rest
    | If_bit { bit; value; body } :: rest ->
        go (If_bit { bit; value; body = expand_calls body } :: acc) rest
    | ((Gate _ | Measure _) as i) :: rest -> go (i :: acc) rest
  in
  List.rev (go [] instrs)

let rec pp fmt = function
  | Gate g -> Gate.pp fmt g
  | Measure { qubit; bit; reset } ->
      Format.fprintf fmt "M%s %d -> c%d" (if reset then "r" else "") qubit bit
  | If_bit { bit; value; body } ->
      Format.fprintf fmt "@[<v 2>if c%d = %b {%a}@]" bit value
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") pp)
        body
  | Span { label; body; _ } ->
      Format.fprintf fmt "@[<v 2>span %S {%a}@]" label
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") pp)
        body
  | Call { id; body; _ } ->
      Format.fprintf fmt "@[<v 2>call #%d {%a}@]" id
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") pp)
        body
