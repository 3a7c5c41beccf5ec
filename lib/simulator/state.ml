open Mbu_circuit

(* Two representations ("tracks"):

   - [Product]: a product of Z-basis wires and equatorial wires
     (|0> + e^{2 pi i phi}|1>)/sqrt 2, with a global phase. Wires outside
     [xmask] hold the bits of [idx]. An equatorial wire (in [xmask]) holds
     its phase phi as an exact fixed-point turn over 2^61: its half turn
     is its bit of [idx] and the rest, below a half turn, its cell of
     [fine] (so |+> and |-> are phi = 0 and phi = 1/2, and [fine] is
     allocated only once a phase below a half turn appears). The global
     factor is [amp] turned by [turn], a turn held the same way. The
     state denotes the 2^k basis terms |base lor sub>, [base] the Z-basis
     bits and [sub] a subset of [xmask], each with amplitude
     amp * 2^(-k/2) * e^{2 pi i (turn + sum of phi over sub)}.
     X / CNOT / Toffoli with Z-basis controls, Swap, H at phi in
     {0, 1/2}, and Z, Phase, CZ and Cphase with at most one equatorial
     wire are O(1) updates with no allocation; measuring an equatorial
     wire is an exact coin flip. MBU circuits on basis inputs stay here
     (the garbage qubit of the H.U_g.H.X correction is only ever a target
     while it is in |->, and the AND erasure is H, measure), and so do
     Draper's QFT adders, whose controls are all in the Z basis.
   - [Sparse]: the general finite map from basis index to amplitude.
     Permutation and diagonal gates mutate the table in place; only H
     double-buffers into a fresh table.

   Any other operation on an equatorial wire (a control on it, a CZ or
   Cphase on two of them, H at any other phase, clearing it) promotes the
   product to the sparse table holding its 2^k terms, then applies the
   sparse kernel. Whenever a sparse table collapses back to a single term
   (H recombination, projection, reset) the state demotes to a product
   with no equatorial wire — unless [pinned] was set, which keeps a state
   on the sparse track so tests and benchmarks can exercise the sparse
   kernel on circuits that would otherwise stay on the product track. *)

type product = {
  mutable idx : int;
  mutable xmask : int;
  mutable fine : int array;
  mutable turn : int;
  mutable amp : Complex.t;
}

type repr = Product of product | Sparse of (int, Complex.t) Hashtbl.t
type t = { num_qubits : int; mutable repr : repr; mutable pinned : bool }

let eps = 1e-12
let num_qubits s = s.num_qubits

(* The product track keeps a wire per bit of one [int]. *)
let max_qubits = 62

let check_width ~subsystem num_qubits =
  if num_qubits > max_qubits then
    Mbu_error.resource_limit ~subsystem ~limit:max_qubits ~actual:num_qubits
      "more wires than the simulator holds";
  if num_qubits < 0 then
    Mbu_error.invalid ~subsystem
      (Printf.sprintf "negative wire count %d" num_qubits)

let check_index ~subsystem ~num_qubits idx =
  if idx < 0 || (num_qubits < max_qubits && idx >= 1 lsl num_qubits) then
    Mbu_error.invalid ~subsystem
      (Printf.sprintf "basis index %d out of range for %d wires" idx num_qubits)

(* No phase below a half turn yet: the [fine] of every product until one
   appears. *)
let no_fine = [||]

let basis_product idx amp =
  Product { idx; xmask = 0; fine = no_fine; turn = 0; amp }

let basis ~num_qubits idx =
  let subsystem = "State.basis" in
  check_width ~subsystem num_qubits;
  check_index ~subsystem ~num_qubits idx;
  { num_qubits; repr = basis_product idx Complex.one; pinned = false }

let maybe_demote s =
  if not s.pinned then
    match s.repr with
    | Product _ -> ()
    | Sparse tbl ->
        if Hashtbl.length tbl = 1 then
          Hashtbl.iter (fun k v -> s.repr <- basis_product k v) tbl

let of_alist ~num_qubits l =
  let subsystem = "State.of_alist" in
  check_width ~subsystem num_qubits;
  let amps = Hashtbl.create (max 16 (List.length l)) in
  List.iter
    (fun (idx, a) ->
      check_index ~subsystem ~num_qubits idx;
      if Hashtbl.mem amps idx then
        Mbu_error.invalid ~subsystem (Printf.sprintf "repeated index %d" idx);
      Hashtbl.replace amps idx a)
    l;
  let s = { num_qubits; repr = Sparse amps; pinned = false } in
  maybe_demote s;
  s

let bit idx q = (idx lsr q) land 1 = 1

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* The support of a product with equatorial wires [xmask]: 2^k terms. *)
let product_support xmask =
  let k = popcount xmask in
  if k >= Sys.int_size - 1 then max_int else 1 lsl k

let inv_sqrt2 = 1.0 /. sqrt 2.0

(* Phases are fixed-point turns: an int over 2^61, so that adding two is
   one integer add (modulo [turn_mask]) and every [Phase.t] is exact. *)
let half_turn = 1 lsl 60
let turn_mask = (1 lsl 61) - 1
let fine_mask = half_turn - 1
let turn_of_phase ph = Phase.num ph lsl (61 - Phase.log2_den ph)

(* [z] turned by [t]: exact for no turn and a half turn. *)
let rotate t z =
  if t = 0 then z
  else if t = half_turn then Complex.neg z
  else
    Complex.mul
      (Complex.polar 1.0 (Float.of_int t *. (2.0 *. Float.pi /. 0x1p61)))
      z

(* The wire of a one-wire mask: [(m * debruijn) lsr 57] is a distinct
   6-bit key for each of the 62 one-wire masks (a de Bruijn sequence). *)
let debruijn = 0x03f79d71b4cb0a89

let wire_table =
  let t = Array.make 64 0 in
  for q = 0 to max_qubits - 1 do
    t.(((1 lsl q) * debruijn) lsr 57) <- q
  done;
  t

let[@inline] wire_of_bit m = Array.unsafe_get wire_table ((m * debruijn) lsr 57)

(* The phase of the equatorial wire [m] of [p] below a half turn, and
   all of it: a half turn for its bit of [idx], plus that. *)
let fine_at p m = if Array.length p.fine = 0 then 0 else p.fine.(wire_of_bit m)
let wire_turn p m = (if p.idx land m = 0 then 0 else half_turn) + fine_at p m

(* The phase of the term |base lor sub> of a product, for [sub] a subset
   of [xmask]: the global [turn] and the phase of each wire of [sub]. *)
let term_turn p sub =
  let rec fine_sum s t =
    if s = 0 then t
    else
      let m = s land (-s) in
      fine_sum (s lxor m) (t + Array.unsafe_get p.fine (wire_of_bit m))
  in
  let halves = (popcount (sub land p.idx) land 1) * half_turn in
  let t = p.turn + halves in
  (if Array.length p.fine = 0 then t else fine_sum sub t) land turn_mask

let product_scaled p =
  let scale = Float.pow inv_sqrt2 (float_of_int (popcount p.xmask)) in
  { Complex.re = p.amp.re *. scale; im = p.amp.im *. scale }

(* The basis terms a product denotes, in increasing order of [sub]
   ([(sub - m) land m] steps through the subsets of [m]). *)
let iter_product p f =
  let scaled = product_scaled p in
  let base = p.idx land lnot p.xmask in
  let rec go sub =
    f (base lor sub) (rotate (term_turn p sub) scaled);
    let next = (sub - p.xmask) land p.xmask in
    if next <> 0 then go next
  in
  go 0

let iter_amps s f =
  match s.repr with
  | Product p -> iter_product p f
  | Sparse tbl -> Hashtbl.iter f tbl

let to_alist s =
  let acc = ref [] in
  iter_amps s (fun k v -> if Complex.norm v > eps then acc := (k, v) :: !acc);
  List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) !acc

let num_terms s = List.length (to_alist s)

let support_size s =
  match s.repr with
  | Product p -> product_support p.xmask
  | Sparse tbl -> Hashtbl.length tbl

let norm2 s =
  match s.repr with
  | Product p -> Complex.norm2 p.amp
  | Sparse tbl -> Hashtbl.fold (fun _ v acc -> acc +. Complex.norm2 v) tbl 0.

let norm s = sqrt (norm2 s)

let copy s =
  { s with
    repr =
      (match s.repr with
      | Product p -> Product { p with fine = Array.copy p.fine }
      | Sparse tbl -> Sparse (Hashtbl.copy tbl)) }

let is_classical s =
  match s.repr with Product p -> p.xmask = 0 | Sparse _ -> false

let table_of_product p =
  let tbl = Hashtbl.create (max 16 (2 lsl popcount p.xmask)) in
  iter_product p (Hashtbl.replace tbl);
  tbl

let force_sparse s =
  (match s.repr with
  | Sparse _ -> ()
  | Product p -> s.repr <- Sparse (table_of_product p));
  s.pinned <- true

let phase_of p = Complex.polar 1.0 (Phase.to_radians p)

(* ------------------------------------------------------------------ *)
(* Product-track kernel *)

let on_x p q = p.xmask land (1 lsl q) <> 0

(* Opcodes: the gates in [Counts] field order, so that an opcode indexes a
   tally, then measurements and conditionals. *)
let op_measure = 9
let op_if = 10
let tally_taken = 11
let tally_peak = 12
let tally_size = 13

(* X, CNOT and Toffoli are one operation, an X on the wires of [b] when
   every wire of [a] is 1; Z, Phase, CZ and Cphase likewise turn [b] by
   the phase [c] (a half turn for Z and CZ). CZ, Cphase and Swap name
   their two wires in [a] and [b]. *)
let encode_gate g ~code ~a ~b ~c i =
  let op, ma, mb, turn =
    match g with
    | Gate.X q -> (0, 0, 1 lsl q, 0)
    | Gate.Z q -> (1, 0, 1 lsl q, half_turn)
    | Gate.H q -> (2, 0, 1 lsl q, 0)
    | Gate.Phase (q, ph) -> (3, 0, 1 lsl q, turn_of_phase ph)
    | Gate.Cnot { control; target } -> (4, 1 lsl control, 1 lsl target, 0)
    | Gate.Cz (q, r) -> (5, 1 lsl q, 1 lsl r, half_turn)
    | Gate.Swap (q, r) -> (6, 1 lsl q, 1 lsl r, 0)
    | Gate.Toffoli { c1; c2; target } ->
        (7, (1 lsl c1) lor (1 lsl c2), 1 lsl target, 0)
    | Gate.Cphase { control; target; phase } ->
        (8, 1 lsl control, 1 lsl target, turn_of_phase phase)
  in
  code.(i) <- op;
  a.(i) <- ma;
  b.(i) <- mb;
  c.(i) <- turn

let imin (x : int) y = if x < y then x else y

(* All ones when [c] is 0, else 0, for [c] >= 0: [c - 1] is negative
   exactly when [c] is 0. *)
let[@inline] ones_if_zero c = (c - 1) asr (Sys.int_size - 1)

(* Exchange the bits of [v] under the one-wire masks [ma] and [mb]. *)
let[@inline] swap_masks v ma mb =
  if (v land ma = 0) <> (v land mb = 0) then v lxor (ma lor mb) else v

(* The product track's gate slots from [i] to the first one it cannot
   take in its loop, below [limit], which must not exceed any array's
   length: a gate on Z-basis wires, or H and Swap while no wire has a
   phase below a half turn. The masks live in locals for the whole run
   and go back to [p] once; the loop makes no call and never allocates,
   so they stay in registers. The result is that first slot, times 2,
   plus 1 when it is a gate on an equatorial wire, for
   [equatorial_gate]. *)
let product_gates p ~code ~a ~b ~c ~tally i ~limit =
  let idx = ref p.idx and xm = ref p.xmask in
  let k = ref i and limit = ref limit in
  while !k < !limit do
    let j = !k in
    let op = Array.unsafe_get code j in
    let ma = Array.unsafe_get a j and mb = Array.unsafe_get b j in
    (* [limit] at -1 ends the loop and flags the slot. *)
    let taken =
      match op with
      | 0 | 4 | 7 ->
          (* X on [b] if the controls [a] are all 1: whether the gate
             fires is data, so it is a mask, not a branch. *)
          if !xm land (ma lor mb) = 0 then begin
            idx := !idx lxor (mb land ones_if_zero ((!idx land ma) lxor ma));
            true
          end
          else begin
            limit := -1;
            false
          end
      | 1 | 3 | 5 | 8 ->
          (* Turn |1..1> on the wires of [a] and [b] by [c]: on Z-basis
             wires, a global turn when they all hold 1. *)
          if !xm land (ma lor mb) = 0 then begin
            if !idx land (ma lor mb) = ma lor mb then
              p.turn <- (p.turn + Array.unsafe_get c j) land turn_mask;
            true
          end
          else begin
            limit := -1;
            false
          end
      | 2 ->
          (* H|0> = |+> and H|1> = |->: the bit stays and becomes the half
             turn, and back from phi in {0, 1/2}, which is no [fine]. *)
          if Array.length p.fine = 0 then begin
            xm := !xm lxor mb;
            true
          end
          else begin
            limit := -1;
            false
          end
      | 6 ->
          if Array.length p.fine = 0 then begin
            idx := swap_masks !idx ma mb;
            xm := swap_masks !xm ma mb;
            true
          end
          else begin
            limit := -1;
            false
          end
      | _ -> false
    in
    if taken then begin
      Array.unsafe_set tally op (Array.unsafe_get tally op + 1);
      k := j + 1
    end
    else if !limit >= 0 then limit := j
  done;
  p.idx <- !idx;
  p.xmask <- !xm;
  (!k lsl 1) lor Bool.to_int (!limit < 0)

(* The equatorial wire [m] of [p] turned by [t]. [fine] is allocated
   here, the first time a phase below a half turn lands. *)
let turn_wire p m t =
  let phi = (wire_turn p m + t) land turn_mask in
  let f = phi land fine_mask in
  if f <> 0 && Array.length p.fine = 0 then p.fine <- Array.make max_qubits 0;
  if Array.length p.fine > 0 then p.fine.(wire_of_bit m) <- f;
  p.idx <- (if phi land half_turn = 0 then p.idx land lnot m else p.idx lor m)

(* The gates [product_gates] leaves out, one slot on [p]: [false] when it
   needs the sparse table (a control on an equatorial wire, a diagonal on
   two, H at a phase other than 0 or 1/2). *)
let equatorial_gate p op ma mb th =
  let xm = p.xmask in
  match op with
  | 0 | 4 | 7 ->
      if xm land ma <> 0 then false
      else begin
        (* X (|0> + e^{i phi}|1>) = e^{i phi} (|0> + e^{-i phi}|1>) *)
        (if p.idx land ma = ma then
           let phi = wire_turn p mb in
           p.turn <- (p.turn + phi) land turn_mask;
           turn_wire p mb (-2 * phi));
        true
      end
  | 1 | 3 | 5 | 8 ->
      (* The equatorial one of [a] and [b] takes the turn when the other
         is a Z-basis 1 (a one-wire gate has no other). *)
      if xm land ma = 0 then begin
        if p.idx land ma = ma then turn_wire p mb th;
        true
      end
      else if xm land mb = 0 then begin
        if p.idx land mb <> 0 then turn_wire p ma th;
        true
      end
      else false
  | 2 ->
      if fine_at p mb <> 0 then false
      else begin
        p.xmask <- xm lxor mb;
        true
      end
  | _ (* Swap *) ->
      if Array.length p.fine > 0 then begin
        let qa = wire_of_bit ma and qb = wire_of_bit mb in
        let fa = p.fine.(qa) in
        p.fine.(qa) <- p.fine.(qb);
        p.fine.(qb) <- fa
      end;
      p.idx <- swap_masks p.idx ma mb;
      p.xmask <- swap_masks xm ma mb;
      true

(* Project the equatorial wire [m] onto [v]: both values have amplitude
   1/sqrt 2, and |1> carries the wire's phase into the global turn. *)
let collapse p m v =
  if v then p.turn <- (p.turn + wire_turn p m) land turn_mask;
  if Array.length p.fine > 0 then p.fine.(wire_of_bit m) <- 0;
  p.idx <- (if v then p.idx lor m else p.idx land lnot m);
  p.xmask <- p.xmask land lnot m

(* The product track's program: runs of gates, and when [adaptive] the
   measurements and conditionals between them. *)
let product_slots p ~code ~a ~b ~c ~tally ~bits ~rng ~adaptive i ~stop =
  if i < 0 || Array.length tally < tally_size then
    invalid_arg "State.run_slots";
  (* Clamped to the arrays, so [product_gates] reads them unchecked. *)
  let n = imin (Array.length code) (Array.length c) in
  let n = imin n (imin (Array.length a) (Array.length b)) in
  let limit = imin stop n in
  (* Whether |amp| is exactly 1, read at the first measurement: -1 before.
     The pass never changes [amp], so the answer holds to its end. *)
  let unit_amp = ref (-1) in
  let k = ref i and go = ref true in
  while !go && !k < limit do
    let r = product_gates p ~code ~a ~b ~c ~tally !k ~limit in
    let j = r asr 1 in
    k := j;
    if r land 1 = 1 then begin
      let op = code.(j) in
      if equatorial_gate p op a.(j) b.(j) c.(j) then begin
        tally.(op) <- tally.(op) + 1;
        k := j + 1
      end
      else go := false
    end
    else if j < limit then begin
      let op = code.(j) in
      if op = op_measure && !unit_amp < 0 then
        unit_amp := Bool.to_int (Complex.norm p.amp = 1.0);
      if adaptive && op = op_measure && !unit_amp = 1 then begin
        (* As [project_inplace] with |amp| = 1, which leaves [amp]
           unscaled: an equatorial wire is a fair coin, drawn as [Sim]'s
           [draw_outcome] draws p = 1/2; a Z-basis wire draws nothing. *)
        let support = product_support p.xmask in
        if support > tally.(tally_peak) then tally.(tally_peak) <- support;
        let m = 1 lsl a.(j) in
        let outcome =
          if p.xmask land m = 0 then p.idx land m <> 0
          else begin
            let v = Random.State.float rng 1.0 < 0.5 in
            collapse p m v;
            v
          end
        in
        bits.(b.(j)) <- outcome;
        (* A reset that read 1 clears the wire. *)
        if outcome && c.(j) = 1 then p.idx <- p.idx land lnot m;
        tally.(op) <- tally.(op) + 1;
        k := j + 1
      end
      else if adaptive && op = op_if then begin
        tally.(op) <- tally.(op) + 1;
        if bits.(a.(j)) = (b.(j) = 1) then begin
          tally.(tally_taken) <- tally.(tally_taken) + 1;
          k := j + 1
        end
        else k := c.(j)
      end
      else go := false
    end
  done;
  !k

let on_product_track s =
  match s.repr with Product _ -> true | Sparse _ -> false

let run_slots s ~code ~a ~b ~c ~tally ~bits ~rng ~adaptive i ~stop =
  match s.repr with
  | Product p ->
      product_slots p ~code ~a ~b ~c ~tally ~bits ~rng ~adaptive i ~stop
  | Sparse _ -> i

(* Apply [g] on the product track as a one-slot program; [false] when it
   needs the sparse table. *)
let product_gate p g =
  let code = [| 0 |] and a = [| 0 |] and b = [| 0 |] and c = [| 0 |] in
  encode_gate g ~code ~a ~b ~c 0;
  let tally = Array.make op_measure 0 in
  match product_gates p ~code ~a ~b ~c ~tally 0 ~limit:1 with
  | 2 -> true
  | 1 -> equatorial_gate p code.(0) a.(0) b.(0) c.(0)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Sparse-track kernel *)

(* In-place permutation kernel. Every permutation gate we support (X, CNOT,
   Toffoli, Swap) is an involution whose firing condition is invariant under
   the move: index [k] with [cond k] swaps with [k lxor mask]. Snapshot the
   key set once, then exchange amplitudes pairwise inside the same table —
   no rebuild. A snapshot key can only disappear before its visit by being
   the source of an earlier move, in which case its pair is already done. *)
let permute_involution tbl cond mask =
  let keys = Array.make (Hashtbl.length tbl) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun k _ ->
      keys.(!i) <- k;
      incr i)
    tbl;
  Array.iter
    (fun k ->
      if cond k then
        let k2 = k lxor mask in
        match (Hashtbl.find_opt tbl k, Hashtbl.find_opt tbl k2) with
        | Some v, Some v2 ->
            if k < k2 then begin
              Hashtbl.replace tbl k v2;
              Hashtbl.replace tbl k2 v
            end
        | Some v, None ->
            Hashtbl.remove tbl k;
            Hashtbl.replace tbl k2 v
        | None, _ -> ())
    keys

(* H double-buffers: the only gate that can merge or split terms. *)
let h_table src q =
  let r = inv_sqrt2 in
  let amps = Hashtbl.create (2 * Hashtbl.length src) in
  let accum k v =
    if Complex.norm v > eps then
      match Hashtbl.find_opt amps k with
      | Some prev ->
          let sum = Complex.add prev v in
          if Complex.norm sum > eps then Hashtbl.replace amps k sum
          else Hashtbl.remove amps k
      | None -> Hashtbl.replace amps k v
  in
  Hashtbl.iter
    (fun k v ->
      let scaled = Complex.mul { Complex.re = r; im = 0. } v in
      if bit k q then begin
        accum (k lxor (1 lsl q)) scaled;
        accum k (Complex.neg scaled)
      end
      else begin
        accum k scaled;
        accum (k lxor (1 lsl q)) scaled
      end)
    src;
  amps

let sparse_gate s tbl g =
  match g with
  | Gate.X q -> permute_involution tbl (fun _ -> true) (1 lsl q)
  | Gate.Cnot { control; target } ->
      permute_involution tbl (fun k -> bit k control) (1 lsl target)
  | Gate.Toffoli { c1; c2; target } ->
      permute_involution tbl (fun k -> bit k c1 && bit k c2) (1 lsl target)
  | Gate.Swap (a, b) ->
      permute_involution tbl
        (fun k -> bit k a <> bit k b)
        ((1 lsl a) lor (1 lsl b))
  | Gate.Z q ->
      Hashtbl.filter_map_inplace
        (fun k v -> Some (if bit k q then Complex.neg v else v))
        tbl
  | Gate.Cz (a, b) ->
      Hashtbl.filter_map_inplace
        (fun k v -> Some (if bit k a && bit k b then Complex.neg v else v))
        tbl
  | Gate.Phase (q, p) ->
      let w = phase_of p in
      Hashtbl.filter_map_inplace
        (fun k v -> Some (if bit k q then Complex.mul w v else v))
        tbl
  | Gate.Cphase { control; target; phase } ->
      let w = phase_of phase in
      Hashtbl.filter_map_inplace
        (fun k v ->
          Some (if bit k control && bit k target then Complex.mul w v else v))
        tbl
  | Gate.H q ->
      s.repr <- Sparse (h_table tbl q);
      maybe_demote s

let promote s p =
  let tbl = table_of_product p in
  s.repr <- Sparse tbl;
  tbl

let apply_gate_inplace s g =
  match s.repr with
  | Product p -> if not (product_gate p g) then sparse_gate s (promote s p) g
  | Sparse tbl -> sparse_gate s tbl g

let apply_gate s g =
  let s = copy s in
  apply_gate_inplace s g;
  s

let prob_bit_one s q =
  match s.repr with
  | Product p ->
      (* Exact: an equatorial wire is a fair coin, a Z-basis wire definite. *)
      if on_x p q then 0.5 else if bit p.idx q then 1.0 else 0.0
  | Sparse tbl ->
      let p1 = ref 0. in
      Hashtbl.iter (fun k v -> if bit k q then p1 := !p1 +. Complex.norm2 v) tbl;
      !p1 /. norm2 s

let project_inplace s ~qubit ~value =
  match s.repr with
  | Product p ->
      let equatorial = on_x p qubit in
      if (not equatorial) && bit p.idx qubit <> value then
        invalid_arg "State.project: zero-probability outcome";
      let n = Complex.norm p.amp in
      if n < eps then invalid_arg "State.project: zero-probability outcome";
      if n <> 1.0 then p.amp <- Complex.div p.amp { re = n; im = 0. };
      if equatorial then collapse p (1 lsl qubit) value
  | Sparse tbl ->
      Hashtbl.filter_map_inplace
        (fun k v -> if bit k qubit = value then Some v else None)
        tbl;
      let n2 = Hashtbl.fold (fun _ v acc -> acc +. Complex.norm2 v) tbl 0. in
      if sqrt n2 < eps then
        invalid_arg "State.project: zero-probability outcome";
      let inv = 1. /. sqrt n2 in
      Hashtbl.filter_map_inplace
        (fun _ v -> Some (Complex.mul { Complex.re = inv; im = 0. } v))
        tbl;
      maybe_demote s

(* Clearing a wire is NOT a permutation: when the support holds both values
   of the wire, indices [k] and [k lxor mask] collide on the cleared index,
   so the colliding amplitudes must be accumulated (the map is linear, not
   bijective). The seed implementation routed this through [permute], whose
   [Hashtbl.replace] silently dropped one of the two amplitudes. *)
let sparse_set_bit_zero s tbl ~qubit =
  let mask = 1 lsl qubit in
  let moved = ref [] in
  Hashtbl.iter
    (fun k v -> if k land mask <> 0 then moved := (k, v) :: !moved)
    tbl;
  List.iter (fun (k, _) -> Hashtbl.remove tbl k) !moved;
  List.iter
    (fun (k, v) ->
      let k' = k land lnot mask in
      let sum =
        match Hashtbl.find_opt tbl k' with
        | Some prev -> Complex.add prev v
        | None -> v
      in
      if Complex.norm sum > eps then Hashtbl.replace tbl k' sum
      else Hashtbl.remove tbl k')
    !moved;
  maybe_demote s

let set_bit_zero_inplace s ~qubit =
  match s.repr with
  | Product p when not (on_x p qubit) -> p.idx <- p.idx land lnot (1 lsl qubit)
  | Product p -> sparse_set_bit_zero s (promote s p) ~qubit
  | Sparse tbl -> sparse_set_bit_zero s tbl ~qubit

let set_bit_zero s ~qubit =
  let s = copy s in
  set_bit_zero_inplace s ~qubit;
  s

(* Amplitude of basis term [k] in [s], if stored. *)
let amp_at s k =
  match s.repr with
  | Product p ->
      if k land lnot p.xmask <> p.idx land lnot p.xmask then None
      else Some (rotate (term_turn p (k land p.xmask)) (product_scaled p))
  | Sparse tbl -> Hashtbl.find_opt tbl k

let fidelity a b =
  if a.num_qubits <> b.num_qubits then invalid_arg "State.fidelity";
  let na = norm a and nb = norm b in
  let dot = ref Complex.zero in
  iter_amps a (fun k va ->
      match amp_at b k with
      | Some vb -> dot := Complex.add !dot (Complex.mul (Complex.conj va) vb)
      | None -> ());
  Complex.norm !dot /. (na *. nb)

let classical_value s =
  match s.repr with
  | Product { idx; xmask = 0; amp; _ } ->
      if Complex.norm amp > eps then Some idx else None
  | Product _ | Sparse _ -> (
      match to_alist s with [ (k, _) ] -> Some k | _ -> None)

let bit_value s q =
  match s.repr with
  | Product { idx; xmask = 0; amp; _ } ->
      if Complex.norm amp > eps then Some (bit idx q) else None
  | Product _ | Sparse _ -> (
      match to_alist s with
      | [] -> None
      | (k0, _) :: rest ->
          let v = bit k0 q in
          if List.for_all (fun (k, _) -> bit k q = v) rest then Some v else None)

(* ------------------------------------------------------------------ *)
(* Reference engine: the seed's pure rebuild-per-gate algorithms, kept as
   the oracle for the property tests comparing backends, and as the
   "before" baseline in the simulator benchmark. Always returns a sparse
   state; [pinned] is inherited so it never demotes mid-circuit. *)

module Reference = struct
  let sparse_of s =
    let tbl = Hashtbl.create 16 in
    iter_amps s (fun k v -> Hashtbl.replace tbl k v);
    tbl

  let wrap s tbl = { num_qubits = s.num_qubits; repr = Sparse tbl; pinned = s.pinned }

  let permute s f =
    let src = sparse_of s in
    let amps = Hashtbl.create (Hashtbl.length src) in
    Hashtbl.iter (fun k v -> Hashtbl.replace amps (f k) v) src;
    wrap s amps

  let map_amps s f =
    let src = sparse_of s in
    let amps = Hashtbl.create (Hashtbl.length src) in
    Hashtbl.iter
      (fun k v ->
        let v = f k v in
        if Complex.norm v > eps then Hashtbl.replace amps k v)
      src;
    wrap s amps

  let apply_gate s g =
    match g with
    | Gate.X q -> permute s (fun k -> k lxor (1 lsl q))
    | Gate.Cnot { control; target } ->
        permute s (fun k -> if bit k control then k lxor (1 lsl target) else k)
    | Gate.Toffoli { c1; c2; target } ->
        permute s (fun k ->
            if bit k c1 && bit k c2 then k lxor (1 lsl target) else k)
    | Gate.Swap (a, b) ->
        permute s (fun k ->
            if bit k a <> bit k b then k lxor (1 lsl a) lxor (1 lsl b) else k)
    | Gate.Z q -> map_amps s (fun k v -> if bit k q then Complex.neg v else v)
    | Gate.Cz (a, b) ->
        map_amps s (fun k v -> if bit k a && bit k b then Complex.neg v else v)
    | Gate.Phase (q, p) ->
        let w = phase_of p in
        map_amps s (fun k v -> if bit k q then Complex.mul w v else v)
    | Gate.Cphase { control; target; phase } ->
        let w = phase_of phase in
        map_amps s (fun k v ->
            if bit k control && bit k target then Complex.mul w v else v)
    | Gate.H q -> wrap s (h_table (sparse_of s) q)

  let project s ~qubit ~value =
    let src = sparse_of s in
    let amps = Hashtbl.create (Hashtbl.length src) in
    Hashtbl.iter
      (fun k v -> if bit k qubit = value then Hashtbl.replace amps k v)
      src;
    let s = wrap s amps in
    if norm s < eps then invalid_arg "State.project: zero-probability outcome";
    let n = norm s in
    map_amps s (fun _ v -> Complex.div v { re = n; im = 0. })

  let set_bit_zero s ~qubit =
    let mask = 1 lsl qubit in
    let src = sparse_of s in
    let amps = Hashtbl.create (Hashtbl.length src) in
    Hashtbl.iter
      (fun k v ->
        let k' = k land lnot mask in
        let sum =
          match Hashtbl.find_opt amps k' with
          | Some prev -> Complex.add prev v
          | None -> v
        in
        if Complex.norm sum > eps then Hashtbl.replace amps k' sum
        else Hashtbl.remove amps k')
      src;
    wrap s amps
end

let pp fmt s =
  let entries = to_alist s in
  let bits k =
    String.init s.num_qubits (fun i ->
        if bit k (s.num_qubits - 1 - i) then '1' else '0')
  in
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (k, (v : Complex.t)) ->
      Format.fprintf fmt "|%s> -> %.4f%+.4fi@," (bits k) v.re v.im)
    entries;
  Format.fprintf fmt "@]"
