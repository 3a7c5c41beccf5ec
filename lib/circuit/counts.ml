type t = {
  x : float;
  z : float;
  h : float;
  phase : float;
  cnot : float;
  cz : float;
  swap : float;
  toffoli : float;
  cphase : float;
  measure : float;
}

type mode = Worst | Best | Expected of float

let zero =
  { x = 0.; z = 0.; h = 0.; phase = 0.; cnot = 0.; cz = 0.; swap = 0.;
    toffoli = 0.; cphase = 0.; measure = 0. }

let add a b =
  { x = a.x +. b.x; z = a.z +. b.z; h = a.h +. b.h; phase = a.phase +. b.phase;
    cnot = a.cnot +. b.cnot; cz = a.cz +. b.cz; swap = a.swap +. b.swap;
    toffoli = a.toffoli +. b.toffoli; cphase = a.cphase +. b.cphase;
    measure = a.measure +. b.measure }

let scale k a =
  { x = k *. a.x; z = k *. a.z; h = k *. a.h; phase = k *. a.phase;
    cnot = k *. a.cnot; cz = k *. a.cz; swap = k *. a.swap;
    toffoli = k *. a.toffoli; cphase = k *. a.cphase; measure = k *. a.measure }

(* A mutable all-float record is stored flat, so updating a field or the
   weight boxes nothing. Each update adds to a field exactly what the
   record-building [add]/[scale] folds added to it: a gate's unit times the
   weight to its own field (the other fields gained an exact [0.]), and
   [weight *. k] per field for a block total [k]. *)
type acc = {
  mutable ax : float;
  mutable az : float;
  mutable ah : float;
  mutable aphase : float;
  mutable acnot : float;
  mutable acz : float;
  mutable aswap : float;
  mutable atoffoli : float;
  mutable acphase : float;
  mutable ameasure : float;
  mutable weight : float;
}

let acc weight =
  { ax = 0.; az = 0.; ah = 0.; aphase = 0.; acnot = 0.; acz = 0.; aswap = 0.;
    atoffoli = 0.; acphase = 0.; ameasure = 0.; weight }

let add_gate a g =
  let w = a.weight in
  match g with
  | Gate.X _ -> a.ax <- a.ax +. w
  | Gate.Z _ -> a.az <- a.az +. w
  | Gate.H _ -> a.ah <- a.ah +. w
  | Gate.Phase _ -> a.aphase <- a.aphase +. w
  | Gate.Cnot _ -> a.acnot <- a.acnot +. w
  | Gate.Cz _ -> a.acz <- a.acz +. w
  | Gate.Swap _ -> a.aswap <- a.aswap +. w
  | Gate.Toffoli _ -> a.atoffoli <- a.atoffoli +. w
  | Gate.Cphase _ -> a.acphase <- a.acphase +. w

let add_measure a = a.ameasure <- a.ameasure +. a.weight

let add_scaled a c =
  let w = a.weight in
  a.ax <- a.ax +. (w *. c.x);
  a.az <- a.az +. (w *. c.z);
  a.ah <- a.ah +. (w *. c.h);
  a.aphase <- a.aphase +. (w *. c.phase);
  a.acnot <- a.acnot +. (w *. c.cnot);
  a.acz <- a.acz +. (w *. c.cz);
  a.aswap <- a.aswap +. (w *. c.swap);
  a.atoffoli <- a.atoffoli +. (w *. c.toffoli);
  a.acphase <- a.acphase +. (w *. c.cphase);
  a.ameasure <- a.ameasure +. (w *. c.measure)

let add_acc a b =
  a.ax <- a.ax +. b.ax;
  a.az <- a.az +. b.az;
  a.ah <- a.ah +. b.ah;
  a.aphase <- a.aphase +. b.aphase;
  a.acnot <- a.acnot +. b.acnot;
  a.acz <- a.acz +. b.acz;
  a.aswap <- a.aswap +. b.aswap;
  a.atoffoli <- a.atoffoli +. b.atoffoli;
  a.acphase <- a.acphase +. b.acphase;
  a.ameasure <- a.ameasure +. b.ameasure

let of_acc a =
  { x = a.ax; z = a.az; h = a.ah; phase = a.aphase; cnot = a.acnot; cz = a.acz;
    swap = a.aswap; toffoli = a.atoffoli; cphase = a.acphase;
    measure = a.ameasure }

let of_instrs ~mode instrs =
  let branch_weight =
    match mode with Worst -> 1. | Best -> 0. | Expected p -> p
  in
  (* Per-invocation memo for shared blocks: a node's counts are evaluated
     once at weight 1 and every reference scales that total by its own
     enclosing weight. When the weight is a power of two (always the case
     for Worst/Best and the canonical Expected 0.5 — nested If_bit
     halvings) and the per-gate unit contributions are integers, all
     intermediate sums are dyadic rationals far below 2^53 — float
     arithmetic is exact in any association and the memoized result is
     bit-identical to the inline tree walk. A non-dyadic branch weight
     (e.g. Expected 0.3) pollutes every accumulator with rounding, making
     w*k differ from k additions of w in the last ulp, so those modes fall
     back to the inline walk throughout. *)
  let memo : (int, t) Hashtbl.t = Hashtbl.create 64 in
  let use_memo = branch_weight = 0. || fst (Float.frexp branch_weight) = 0.5 in
  (* One accumulator for the whole walk; a conditional body multiplies its
     weight in place and restores it on exit. *)
  let rec count a = function
    | [] -> ()
    | Instr.Gate g :: rest ->
        add_gate a g;
        count a rest
    | Instr.Measure _ :: rest ->
        add_measure a;
        count a rest
    | Instr.If_bit { body; _ } :: rest ->
        let w = a.weight in
        a.weight <- w *. branch_weight;
        count a body;
        a.weight <- w;
        count a rest
    | Instr.Span { body; _ } :: rest ->
        count a body;
        count a rest
    | Instr.Call node :: rest ->
        (if use_memo then
           let c =
             match Hashtbl.find_opt memo node.Instr.id with
             | Some c -> c
             | None ->
                 let na = acc 1. in
                 count na node.Instr.body;
                 let c = of_acc na in
                 Hashtbl.add memo node.Instr.id c;
                 c
           in
           add_scaled a c
         else count a node.Instr.body);
        count a rest
  in
  let a = acc 1. in
  count a instrs;
  of_acc a

let cnot_cz c = c.cnot +. c.cz
let two_qubit c = c.cnot +. c.cz +. c.swap +. c.cphase
let total_gates c = c.x +. c.z +. c.h +. c.phase +. two_qubit c +. c.toffoli

let qft_gates m =
  { zero with h = float_of_int m; cphase = float_of_int (m * (m - 1) / 2) }

let qft_units ~m c =
  let rot c = c.h +. c.phase +. c.cphase in
  rot c /. rot (qft_gates m)

let approx_equal ?(eps = 1e-9) a b =
  let close x y = Float.abs (x -. y) <= eps in
  close a.x b.x && close a.z b.z && close a.h b.h && close a.phase b.phase
  && close a.cnot b.cnot && close a.cz b.cz && close a.swap b.swap
  && close a.toffoli b.toffoli && close a.cphase b.cphase
  && close a.measure b.measure

let pp fmt c =
  let field name v =
    if v <> 0. then Some (Printf.sprintf "%s=%g" name v) else None
  in
  let fields =
    List.filter_map Fun.id
      [ field "Tof" c.toffoli; field "CNOT" c.cnot; field "CZ" c.cz;
        field "X" c.x; field "Z" c.z; field "H" c.h; field "R" c.phase;
        field "C-R" c.cphase; field "SWAP" c.swap; field "M" c.measure ]
  in
  Format.fprintf fmt "{%s}" (String.concat "; " fields)
