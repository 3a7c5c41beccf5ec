let disjoint g h =
  let shared = ref false in
  for i = 0 to Gate.arity g - 1 do
    for j = 0 to Gate.arity h - 1 do
      if Gate.qubit g i = Gate.qubit h j then shared := true
    done
  done;
  not !shared

(* Try to fuse [g] with an earlier gate, walking back through gates on
   disjoint wires. Gates carry their span path (a list of span instances,
   outermost first) so the tree can be rebuilt afterwards; the path never
   blocks fusion — spans are weightless and must not change what the
   optimizer can cancel. A merged rotation stays at the earlier gate's
   position and keeps its span. Returns the updated reversed-prefix when
   something happened. *)
let rec fuse_back rev_prefix ((g, _) as tagged) =
  match rev_prefix with
  | [] -> None
  | ((h, ph) as th) :: rest -> (
      match g, h with
      (* merge single-qubit rotations on the same wire *)
      | Gate.Phase (q, p), Gate.Phase (q', p') when q = q' ->
          let p'' = Phase.add p p' in
          if Phase.is_zero p'' then Some rest
          else Some ((Gate.Phase (q, p''), ph) :: rest)
      (* merge controlled rotations on the same wire pair *)
      | ( Gate.Cphase { control = c; target = t; phase = p },
          Gate.Cphase { control = c'; target = t'; phase = p' } )
        when (c = c' && t = t') || (c = t' && t = c') ->
          let p'' = Phase.add p p' in
          if Phase.is_zero p'' then Some rest
          else Some ((Gate.Cphase { control = c; target = t; phase = p'' }, ph) :: rest)
      (* adjacent inverse pair *)
      | _ when Gate.equal h (Gate.adjoint g) -> Some rest
      (* slide past disjoint gates *)
      | _ when disjoint g h -> (
          match fuse_back rest tagged with
          | Some rest' -> Some (th :: rest')
          | None -> None)
      | _ -> None)

let optimize_gates tagged_gates =
  let step acc tg =
    match fuse_back acc tg with Some acc' -> acc' | None -> tg :: acc
  in
  List.rev (List.fold_left step [] tagged_gates)

(* One span instance on a gate's path: a unique id (so two sibling spans
   with the same label stay distinct) plus what is needed to rebuild the
   node. *)
type span_id = { id : int; label : string; peak_ancillas : int }

type item =
  | G of Gate.t * span_id list
  | Barrier of Instr.t * span_id list  (* Measure or If_bit *)

(* Erase span brackets, tagging every gate and barrier with its span path.
   If_bit bodies are optimized recursively here (they really are barriers:
   whether they execute depends on a run-time bit). *)
let rec flatten_items instrs =
  let next_id = ref 0 in
  let rec go path acc = function
    | [] -> acc
    | Instr.Gate g :: rest -> go path (G (g, path) :: acc) rest
    | (Instr.Measure _ as i) :: rest -> go path (Barrier (i, path) :: acc) rest
    | Instr.If_bit { bit; value; body } :: rest ->
        let body = optimize_instrs body in
        go path (Barrier (Instr.If_bit { bit; value; body }, path) :: acc) rest
    | Instr.Span { label; peak_ancillas; body } :: rest ->
        let id = !next_id in
        incr next_id;
        let acc = go (path @ [ { id; label; peak_ancillas } ]) acc body in
        go path acc rest
    | Instr.Call { body; _ } :: rest ->
        (* The optimizer works on the expansion: each reference is inlined
           (fusion may rewrite one occurrence differently from another, so
           sharing cannot survive optimization). *)
        let acc = go path acc body in
        go path acc rest
  in
  List.rev (go [] [] instrs)

(* Inverse of [flatten_items]: regroup a tagged item sequence into nested
   spans by longest-common-prefix of the paths. Optimization can tear a
   span instance apart (a surviving gate of span A between gates of span B);
   such an instance reappears as several nodes with the same label, which
   profiling merges back into one row. *)
and rebuild items =
  let cur = ref [] in (* open span instances, innermost first *)
  let stack = ref [ [] ] in (* reversed bodies, innermost first *)
  let push i =
    match !stack with
    | top :: rest -> stack := (i :: top) :: rest
    | [] -> assert false
  in
  let close () =
    match !cur, !stack with
    | { label; peak_ancillas; _ } :: ctail, body :: srest ->
        cur := ctail;
        stack := srest;
        push (Instr.Span { label; peak_ancillas; body = List.rev body })
    | _ -> assert false
  in
  let open_span sp =
    cur := sp :: !cur;
    stack := [] :: !stack
  in
  let sync path =
    let cur_out = List.rev !cur in
    let rec common a b =
      match a, b with
      | x :: a', y :: b' when x.id = y.id -> 1 + common a' b'
      | _ -> 0
    in
    let k = common cur_out path in
    for _ = 1 to List.length cur_out - k do
      close ()
    done;
    List.iteri (fun i sp -> if i >= k then open_span sp) path
  in
  List.iter
    (function
      | G (g, path) ->
          sync path;
          push (Instr.Gate g)
      | Barrier (i, path) ->
          sync path;
          push i)
    items;
  sync [];
  match !stack with [ top ] -> List.rev top | _ -> assert false

(* Split into maximal gate runs; measurements and conditionals are
   barriers, spans are transparent. *)
and optimize_instrs instrs =
  let items = flatten_items instrs in
  let flush run acc =
    if run = [] then acc
    else
      List.rev_append
        (List.map (fun (g, p) -> G (g, p)) (optimize_gates (List.rev run)))
        acc
  in
  let rec go run acc = function
    | [] -> List.rev (flush run acc)
    | G (g, p) :: rest -> go ((g, p) :: run) acc rest
    | (Barrier _ as i) :: rest -> go [] (i :: flush run acc) rest
  in
  rebuild (go [] [] items)

let rec fixpoint prev =
  let next = optimize_instrs prev in
  if Instr.count_instrs next = Instr.count_instrs prev then next
  else fixpoint next

let instrs = fixpoint

let circuit (c : Circuit.t) =
  Circuit.make ~num_qubits:c.Circuit.num_qubits ~num_bits:c.Circuit.num_bits
    (instrs c.Circuit.instrs)
