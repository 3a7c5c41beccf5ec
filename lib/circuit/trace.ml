type entry = {
  label : string;
  path : string list;
  start : float;
  dur : float;
  flat : Counts.t;
  cum : Counts.t;
  peak_ancillas : int;
  total_depth : float;
  toffoli_depth : float;
  calls : int;
  children : entry list;
}

let root_label = "(root)"

let cum_of flat children =
  List.fold_left (fun acc e -> Counts.add acc e.cum) flat children

(* Memo of one shared node's profile, computed once in a neutral frame
   (clock 0, weight 1, empty path). Every reference rebases it into its own
   context: starts shift by the reference's clock, counts and durations
   scale by the enclosing branch weight, paths get the reference's prefix.
   When the branch weight is a power of two (Worst/Best/Expected 0.5) all
   quantities are integers scaled by exact powers of two, so the rescaling
   is exact and the rebased entries are bit-identical to an inline walk; a
   non-dyadic branch weight (e.g. Expected 0.3) pollutes every accumulator
   with rounding, so those modes inline-walk all references instead. *)
type node_memo = { m_flat : Counts.t; m_dur : float; m_children : entry list }

type clock = { mutable c : float }

(* The children of the span being walked, in reverse emission order. *)
type frame = { mutable kids : entry list }

let profile ?(mode = Counts.Expected 0.5) ?(span_depth = true) instrs =
  let branch_weight =
    match mode with Counts.Worst -> 1. | Best -> 0. | Expected p -> p
  in
  (* Isolated depths of the root and of every span, in expanded pre-order,
     from one walk; [ix] is the pre-order index of the last span entered.
     Isolated depth does not depend on context, so a memoized subtree keeps
     the depths of its first visit and a later reference only skips its
     node's spans. *)
  let depths =
    if span_depth then Depth.spans (Depth.of_counts_mode mode) instrs
    else
      Array.make ((Instr.scan instrs).span_count + 1) { Depth.total = 0.; toffoli = 0. }
  in
  let ix = ref 0 in
  (* [clock] is the running weighted instruction count — the span timeline's
     time axis; a gate or measurement under branch probability [w] advances
     it by [w]. *)
  (* an all-float record keeps the clock unboxed: updating a [float ref]
     allocates a fresh box per gate, which dominates large walks *)
  let clock = { c = 0. } in
  let memo : (int, node_memo) Hashtbl.t = Hashtbl.create 64 in
  let use_memo = branch_weight = 0. || fst (Float.frexp branch_weight) = 0.5 in
  (* Number of syntactic Call sites per node in the deduplicated walk (each
     distinct body visited once, so the prepass is O(dag), allocation-free).
     A node referenced from a single site gains nothing from the
     neutral-frame memo — memoize-then-rebase would materialize its span
     entries twice — so the walk below inlines those and memoizes only
     nodes with two or more sites. *)
  let occurrences : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec count_sites = function
    | Instr.Gate _ | Instr.Measure _ -> ()
    | Instr.If_bit { body; _ } | Instr.Span { body; _ } ->
        List.iter count_sites body
    | Instr.Call node ->
        let n = try Hashtbl.find occurrences node.Instr.id with Not_found -> 0 in
        Hashtbl.replace occurrences node.Instr.id (n + 1);
        if n = 0 then List.iter count_sites node.Instr.body
  in
  if use_memo then List.iter count_sites instrs;
  let rec rebase ~w ~at ~path e =
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
  (* One [Counts.acc] per block: a span's body, a conditional body and an
     inlined [Call] are each tallied on their own, then added to the
     enclosing block's tally. Non-dyadic modes (e.g. [Expected 0.3]) round
     differently under any other association. [frame] collects the children
     of the innermost span (reversed); conditionals and inlined [Call]s push
     into their enclosing span's frame. *)
  let rec walk path w tally frame = function
    | [] -> ()
    | Instr.Gate g :: rest ->
        clock.c <- clock.c +. w;
        Counts.add_gate tally g;
        walk path w tally frame rest
    | Instr.Measure _ :: rest ->
        clock.c <- clock.c +. w;
        Counts.add_measure tally;
        walk path w tally frame rest
    | Instr.If_bit { body; _ } :: rest ->
        (* a conditional block is not a span: its contents attribute to
           the enclosing span, discounted by the branch probability *)
        let bw = w *. branch_weight in
        let btally = Counts.acc bw in
        walk path bw btally frame body;
        Counts.add_acc tally btally;
        walk path w tally frame rest
    | Instr.Span { label; peak_ancillas; body } :: rest ->
        let start = clock.c in
        let cpath = path @ [ label ] in
        incr ix;
        let d = depths.(!ix) in
        let btally = Counts.acc w and bframe = { kids = [] } in
        walk cpath w btally bframe body;
        let bflat = Counts.of_acc btally and bkids = List.rev bframe.kids in
        frame.kids <-
          { label; path = cpath; start; dur = clock.c -. start; flat = bflat;
            cum = cum_of bflat bkids; peak_ancillas;
            total_depth = d.Depth.total; toffoli_depth = d.Depth.toffoli;
            calls = 1; children = bkids }
          :: frame.kids;
        walk path w tally frame rest
    | Instr.Call node :: rest ->
        if
          use_memo
          && (try Hashtbl.find occurrences node.Instr.id with Not_found -> 0) > 1
        then begin
          let m = memo_of node in
          let at = clock.c in
          clock.c <- at +. (w *. m.m_dur);
          frame.kids <-
            List.rev_append (List.map (rebase ~w ~at ~path) m.m_children) frame.kids;
          Counts.add_scaled tally m.m_flat
        end
        else begin
          let btally = Counts.acc w in
          walk path w btally frame node.Instr.body;
          Counts.add_acc tally btally
        end;
        walk path w tally frame rest
  and memo_of node =
    match Hashtbl.find_opt memo node.Instr.id with
    | Some m ->
        ix := !ix + node.Instr.summary.span_count;
        m
    | None ->
        let saved = clock.c in
        clock.c <- 0.;
        let tally = Counts.acc 1. and frame = { kids = [] } in
        walk [] 1. tally frame node.Instr.body;
        let m =
          { m_flat = Counts.of_acc tally; m_dur = clock.c;
            m_children = List.rev frame.kids }
        in
        clock.c <- saved;
        Hashtbl.add memo node.Instr.id m;
        m
  in
  let tally = Counts.acc 1. and frame = { kids = [] } in
  walk [] 1. tally frame instrs;
  let flat = Counts.of_acc tally and children = List.rev frame.kids in
  let d = depths.(0) in
  let peak =
    List.fold_left (fun m e -> max m e.peak_ancillas) 0 children
  in
  { label = root_label; path = []; start = 0.; dur = clock.c; flat;
    cum = cum_of flat children; peak_ancillas = peak;
    total_depth = d.Depth.total; toffoli_depth = d.Depth.toffoli; calls = 1;
    children }

let of_circuit ?mode ?span_depth (c : Circuit.t) =
  profile ?mode ?span_depth c.Circuit.instrs

let rec flatten e = e :: List.concat_map flatten e.children

let find root label =
  List.find_opt (fun e -> e.label = label) (flatten root)

let sum_flat root =
  List.fold_left (fun acc e -> Counts.add acc e.flat) Counts.zero (flatten root)

(* ------------------------------------------------------------------ *)
(* Rendering *)

(* Collapse runs of same-labelled siblings (e.g. the n [and.compute] leaves
   of a Gidney adder) into one row: counts and durations sum, ancilla peaks
   max, children merge recursively. *)
let rec merge_siblings entries =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl e.label with
      | None ->
          Hashtbl.replace tbl e.label e;
          order := e.label :: !order
      | Some m ->
          Hashtbl.replace tbl e.label
            { m with
              dur = m.dur +. e.dur;
              flat = Counts.add m.flat e.flat;
              cum = Counts.add m.cum e.cum;
              peak_ancillas = max m.peak_ancillas e.peak_ancillas;
              total_depth = m.total_depth +. e.total_depth;
              toffoli_depth = m.toffoli_depth +. e.toffoli_depth;
              calls = m.calls + e.calls;
              children = m.children @ e.children })
    entries;
  List.rev_map
    (fun label ->
      let m = Hashtbl.find tbl label in
      { m with children = merge_siblings m.children })
    !order

let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.1f" v

let render ?(merge = true) ?max_depth root =
  let root = if merge then { root with children = merge_siblings root.children } else root in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "%-44s %5s %9s %9s %7s %7s %5s %9s %9s\n" "span" "calls"
       "flat Tof" "cum Tof" "CNOT+CZ" "X" "anc" "Tof-depth" "gates");
  let rec go prefix child_prefix e =
    let name = prefix ^ e.label in
    let name =
      if String.length name > 44 then String.sub name 0 41 ^ "..." else name
    in
    Buffer.add_string buf
      (Printf.sprintf "%-44s %5d %9s %9s %7s %7s %5d %9s %9s\n" name e.calls
         (fnum e.flat.Counts.toffoli)
         (fnum e.cum.Counts.toffoli)
         (fnum (Counts.cnot_cz e.cum))
         (fnum e.cum.Counts.x)
         e.peak_ancillas
         (fnum e.toffoli_depth)
         (fnum (Counts.total_gates e.cum +. e.cum.Counts.measure)));
    let deep =
      match max_depth with
      | Some d -> List.length e.path >= d
      | None -> false
    in
    if not deep then begin
      let rec kids = function
        | [] -> ()
        | [ last ] -> go (child_prefix ^ "`- ") (child_prefix ^ "   ") last
        | k :: rest ->
            go (child_prefix ^ "|- ") (child_prefix ^ "|  ") k;
            kids rest
      in
      kids e.children
    end
  in
  go "" "" root;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON *)

(* One complete ("ph":"X") event per span, on a weighted-gate-count time
   axis; loads directly into chrome://tracing / Perfetto / speedscope.
   [counters] (e.g. [Telemetry.counters_alist ()]) are appended as counter
   ("ph":"C") events pinned to the root span's end, so runtime metrics
   overlay the span timeline in the same viewer. *)
let to_json ?(counters = []) root =
  let open Mbu_telemetry.Json in
  let span e =
    Obj
      [ ("name", Str e.label); ("cat", Str "span"); ("ph", Str "X");
        ("pid", Num 1.); ("tid", Num 1.); ("ts", Num e.start); ("dur", Num e.dur);
        ( "args",
          Obj
            [ ("path", Str (String.concat "/" e.path));
              ("toffoli", Num e.cum.Counts.toffoli);
              ("cnot_cz", Num (Counts.cnot_cz e.cum));
              ("x", Num e.cum.Counts.x);
              ("measure", Num e.cum.Counts.measure);
              ("flat_toffoli", Num e.flat.Counts.toffoli);
              ("flat_cnot_cz", Num (Counts.cnot_cz e.flat));
              ("peak_ancillas", Num (float_of_int e.peak_ancillas));
              ("toffoli_depth", Num e.toffoli_depth);
              ("total_depth", Num e.total_depth) ] ) ]
  in
  let counter (name, v) =
    Obj
      [ ("name", Str name); ("cat", Str "telemetry"); ("ph", Str "C");
        ("pid", Num 1.); ("tid", Num 1.); ("ts", Num (root.start +. root.dur));
        ("args", Obj [ ("value", Num v) ]) ]
  in
  to_string
    (Obj
       [ ("displayTimeUnit", Str "ms");
         ("traceEvents", Arr (List.map span (flatten root) @ List.map counter counters)) ])
