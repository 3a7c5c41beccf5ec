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
   - the sparse track: the general finite map from basis index to
     amplitude, in one of two layouts.
     - [Cube] ([cube] below): dense arrays indexed by the wires whose
       value varies across the terms, the other wires constant. Every
       gate runs in place: X, CNOT and Toffoli exchange entry pairs (or
       flip a constant wire), diagonals scale entries, H is a butterfly,
       and a projection or a cleared wire folds the cube in half.
     - [Map]: the [Reference] oracle's own hash table, for supports too
       thin for a cube, run by the oracle's rebuild-per-gate algorithms.
     A cube grows its arrays only while its 2^k cells, k the varying
     wires, stay at most 4 times its terms, so they never hold more than
     4 times the terms it had when they last grew; within them it grows
     freely. A gate that would break that, or that the cube does not
     take, hands the state to a map, which then runs it: an H splitting
     a constant wire into a cube that cancellation has left thinner than
     the rule, a CNOT fanning a varying control out onto a constant
     wire, when either would outgrow the arrays; a Swap of a varying wire
     with a constant one. A map never turns back into a cube.

   Any other operation on an equatorial wire (a control on it, a CZ or
   Cphase on two of them, H at any other phase, clearing it) promotes the
   product to the cube holding its 2^k terms, then applies the sparse
   kernel. Whenever a sparse state collapses back to a single term (H
   recombination, projection, reset) the state demotes to a product with
   no equatorial wire — unless [pinned] was set, which keeps a state on
   the sparse track so tests and benchmarks can exercise the sparse
   kernel on circuits that would otherwise stay on the product track. *)

type product = {
  mutable idx : int;
  mutable xmask : int;
  mutable fine : int array;
  mutable turn : int;
  mutable amp : Complex.t;
}

(* The cube: the terms |base lor sub> for [sub] a subset of [wires], the
   wires whose value varies; [base] holds the others' values and has no
   bit of [wires]. Entry [i] of [cre] and [cim] (the first [dim] = 2^k
   cells, k the wires of [wires]) is the amplitude of the [i]-th subset
   in increasing order, so bit [j] of [i] is the [j]-th lowest wire of
   [wires]. An entry of exactly zero is an absent term and [nonzero]
   counts the others: the size of the oracle's map for the same terms.
   The arrays only grow. *)
type cube = {
  mutable base : int;
  mutable wires : int;
  mutable dim : int;
  mutable cre : float array;
  mutable cim : float array;
  mutable nonzero : int;
}

(* A map: the oracle's hash table from basis index to amplitude. *)
type amps = (int, Complex.t) Hashtbl.t

type repr = Product of product | Cube of cube | Map of amps
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

let bit idx q = (idx lsr q) land 1 = 1

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* The support of a product with equatorial wires [xmask]: 2^k terms. *)
let product_support xmask =
  let k = popcount xmask in
  if k >= Sys.int_size - 1 then max_int else 1 lsl k

(* [Complex.norm z > eps] for z = re + i im, unboxed: [Complex.norm] is
   [Float.hypot], which is at least the larger of |re| and |im|, so the
   common term well above [eps] needs no [hypot]; and when both are at
   most 0.7e-12 it is at most 0.99e-12, so a cancelled pair or a zero
   entry needs none either. *)
let[@inline] above_eps re im =
  let ar = Float.abs re and ai = Float.abs im in
  ar > eps || ai > eps
  || ((ar > 0.7e-12 || ai > 0.7e-12) && Float.hypot re im > eps)

(* ------------------------------------------------------------------ *)
(* The cube *)

(* The bits of the mask [m] under the wires [w], packed down: the local
   mask of [m] in a cube over [w]. *)
let local_of w m =
  let w = ref w and bit = ref 1 and l = ref 0 in
  while !w <> 0 do
    let low = !w land - !w in
    if m land low <> 0 then l := !l lor !bit;
    w := !w lxor low;
    bit := !bit lsl 1
  done;
  !l

(* The inverse: the wires of [w] under the local mask [l]. *)
let global_of w l =
  let w = ref w and l = ref l and m = ref 0 in
  while !l <> 0 do
    let low = !w land - !w in
    if !l land 1 = 1 then m := !m lor low;
    w := !w lxor low;
    l := !l lsr 1
  done;
  !m

(* The rule for building a cube or growing its arrays: its [dim] cells at
   most 4 times its [terms]. *)
let dense ~dim ~terms = dim <= 4 * terms

(* Whether a cube may grow to [dim] cells holding [terms] terms: within
   the arrays it holds, or by the rule. So its arrays never hold more
   than 4 times the terms it had when they last grew. *)
let may_grow cb ~dim ~terms = dim <= Array.length cb.cre || dense ~dim ~terms

let[@inline] is_zero re im = re = 0. && im = 0.

let iter_cube cb f =
  let sub = ref 0 in
  for i = 0 to cb.dim - 1 do
    let re = cb.cre.(i) and im = cb.cim.(i) in
    if not (is_zero re im) then f (cb.base lor !sub) { Complex.re; im };
    sub := (!sub - cb.wires) land cb.wires
  done

(* Room for [dim] entries, the first [cb.dim] kept. *)
let reserve cb dim =
  if Array.length cb.cre < dim then begin
    let re = Array.create_float dim and im = Array.create_float dim in
    Array.blit cb.cre 0 re 0 cb.dim;
    Array.blit cb.cim 0 im 0 cb.dim;
    cb.cre <- re;
    cb.cim <- im
  end

(* Drop the local wires [drop], each constant over the nonzero entries at
   its bit of [ones]: entry [j] of the result comes from an entry at an
   index at least [j], so the entries move down in place, and the wires
   join [base]. *)
let compact cb ~drop ~ones =
  if drop <> 0 then begin
    let keep = (cb.dim - 1) land lnot drop in
    let re = cb.cre and im = cb.cim in
    let sub = ref 0 and j = ref 0 and go = ref true in
    while !go do
      let src = !sub lor ones in
      Array.unsafe_set re !j (Array.unsafe_get re src);
      Array.unsafe_set im !j (Array.unsafe_get im src);
      incr j;
      sub := (!sub - keep) land keep;
      go := !sub <> 0
    done;
    cb.dim <- !j;
    cb.base <- cb.base lor global_of cb.wires ones;
    cb.wires <- cb.wires land lnot (global_of cb.wires drop)
  end

(* Drop the local wire [lb], which every nonzero entry holds at [at],
   and every other wire they hold constant, given the OR [any] and the
   AND [all] of their indices. *)
let settle cb ~lb ~at ~any ~all =
  if cb.nonzero = 0 then compact cb ~drop:lb ~ones:at
  else compact cb ~drop:((cb.dim - 1) land (lnot any lor all)) ~ones:all

(* Add the constant wire [m] to the cube: its entries move to the half
   where [m] holds its value, in place from the top down (an entry moves
   to an index at least its own), and the other half is zero. *)
let insert_wire cb m =
  let lb = local_of (cb.wires lor m) m in
  let dim = cb.dim in
  reserve cb (2 * dim);
  let re = cb.cre and im = cb.cim in
  let lo = lb - 1 in
  let hit = if cb.base land m <> 0 then lb else 0 in
  for i = dim - 1 downto 0 do
    let i0 = ((i land lnot lo) lsl 1) lor (i land lo) in
    let vr = Array.unsafe_get re i and vi = Array.unsafe_get im i in
    Array.unsafe_set re (i0 lor hit) vr;
    Array.unsafe_set im (i0 lor hit) vi;
    Array.unsafe_set re (i0 lor (lb - hit)) 0.;
    Array.unsafe_set im (i0 lor (lb - hit)) 0.
  done;
  cb.dim <- 2 * dim;
  cb.wires <- cb.wires lor m;
  cb.base <- cb.base land lnot m

(* The squared norm of the cube's terms, and of those with the wires of
   [m] all 1. *)
let cube_norm2 cb m =
  let consts = m land lnot cb.wires in
  let hit = cb.base land consts = consts in
  let lm = local_of cb.wires m in
  let all = ref 0. and ones = ref 0. in
  for i = 0 to cb.dim - 1 do
    let re = Array.unsafe_get cb.cre i and im = Array.unsafe_get cb.cim i in
    let n2 = (re *. re) +. (im *. im) in
    all := !all +. n2;
    if hit && i land lm = lm then ones := !ones +. n2
  done;
  (!all, !ones)

(* The terms of a map, in a cube when they fill one densely enough and
   none is zero. *)
let cube_of_map (tbl : amps) =
  let first = ref (-1) and wires = ref 0 and zero = ref false in
  Hashtbl.iter
    (fun k (v : Complex.t) ->
      if !first < 0 then first := k;
      wires := !wires lor (k lxor !first);
      if is_zero v.re v.im then zero := true)
    tbl;
  let terms = Hashtbl.length tbl in
  let dim = product_support !wires in
  if terms = 0 || !zero || not (dense ~dim ~terms) then None
  else begin
    let cb =
      { base = !first land lnot !wires; wires = !wires; dim;
        cre = Array.make dim 0.; cim = Array.make dim 0.; nonzero = terms }
    in
    Hashtbl.iter
      (fun k (v : Complex.t) ->
        let i = local_of cb.wires k in
        cb.cre.(i) <- v.re;
        cb.cim.(i) <- v.im)
      tbl;
    Some cb
  end

let map_of_cube cb : amps =
  let tbl = Hashtbl.create cb.nonzero in
  iter_cube cb (Hashtbl.replace tbl);
  tbl

let maybe_demote s =
  if not s.pinned then
    match s.repr with
    | Product _ -> ()
    | Cube cb ->
        if cb.nonzero = 1 then iter_cube cb (fun k v -> s.repr <- basis_product k v)
    | Map tbl ->
        if Hashtbl.length tbl = 1 then
          Hashtbl.iter (fun k v -> s.repr <- basis_product k v) tbl

(* A cube if the keys fill one, else a map. *)
let of_alist ~num_qubits l =
  let subsystem = "State.of_alist" in
  check_width ~subsystem num_qubits;
  let tbl = Hashtbl.create (List.length l) in
  List.iter
    (fun (idx, a) ->
      check_index ~subsystem ~num_qubits idx;
      if Hashtbl.mem tbl idx then
        Mbu_error.invalid ~subsystem (Printf.sprintf "repeated index %d" idx);
      Hashtbl.replace tbl idx a)
    l;
  let repr = match cube_of_map tbl with Some cb -> Cube cb | None -> Map tbl in
  let s = { num_qubits; repr; pinned = false } in
  maybe_demote s;
  s

let inv_sqrt2 = 1.0 /. sqrt 2.0

(* Phases are fixed-point turns: an int over 2^61, so that adding two is
   one integer add (modulo [turn_mask]) and every [Phase.t] is exact. *)
let half_turn = 1 lsl 60
let turn_mask = (1 lsl 61) - 1
let fine_mask = half_turn - 1
let turn_of_phase ph = Phase.num ph lsl (61 - Phase.log2_den ph)

(* Radians per unit of turn. A turn [t] of [turn_of_phase ph] is
   [t * turn_radians], bit for bit [Phase.to_radians ph]: both round
   [2 pi * num] once and scale it by a power of two. *)
let turn_radians = 2.0 *. Float.pi /. 0x1p61

(* [z] turned by [t]: exact for no turn and a half turn. *)
let rotate t z =
  if t = 0 then z
  else if t = half_turn then Complex.neg z
  else Complex.mul (Complex.polar 1.0 (Float.of_int t *. turn_radians)) z

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
  | Cube cb -> iter_cube cb f
  | Map tbl -> Hashtbl.iter f tbl

let to_alist s =
  let acc = ref [] in
  iter_amps s (fun k v -> if Complex.norm v > eps then acc := (k, v) :: !acc);
  List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) !acc

(* [f k] for each term of [to_alist], in storage order. *)
let iter_terms s f =
  match s.repr with
  | Product p -> iter_product p (fun k v -> if Complex.norm v > eps then f k)
  | Cube cb ->
      let sub = ref 0 in
      for i = 0 to cb.dim - 1 do
        if above_eps cb.cre.(i) cb.cim.(i) then f (cb.base lor !sub);
        sub := (!sub - cb.wires) land cb.wires
      done
  | Map tbl ->
      Hashtbl.iter (fun k (v : Complex.t) -> if above_eps v.re v.im then f k) tbl

let num_terms s =
  let n = ref 0 in
  iter_terms s (fun _ -> incr n);
  !n

let support_size s =
  match s.repr with
  | Product p -> product_support p.xmask
  | Cube cb -> cb.nonzero
  | Map tbl -> Hashtbl.length tbl

(* The squared norm of the map's terms, and of those with the wires of
   [m] all 1. *)
let map_norm2 (tbl : amps) m =
  let all = ref 0. and ones = ref 0. in
  Hashtbl.iter
    (fun k (v : Complex.t) ->
      let n2 = (v.re *. v.re) +. (v.im *. v.im) in
      all := !all +. n2;
      if k land m = m then ones := !ones +. n2)
    tbl;
  (!all, !ones)

let norm2 s =
  match s.repr with
  | Product p -> Complex.norm2 p.amp
  | Cube cb -> fst (cube_norm2 cb 0)
  | Map tbl -> fst (map_norm2 tbl 0)

let norm s = sqrt (norm2 s)

let copy s =
  { s with
    repr =
      (match s.repr with
      | Product p -> Product { p with fine = Array.copy p.fine }
      | Cube cb ->
          Cube
            { cb with cre = Array.sub cb.cre 0 cb.dim;
              cim = Array.sub cb.cim 0 cb.dim }
      | Map tbl -> Map (Hashtbl.copy tbl))
    }

let is_classical s =
  match s.repr with Product p -> p.xmask = 0 | Cube _ | Map _ -> false

(* The 2^k terms of [p] in a cube over its equatorial wires, whose
   subsets [iter_product] visits in the cube's order: its amplitudes, bit
   for bit ([Complex.polar 1.0] is [cos] and [sin] times 1.0, which is
   exact). *)
let cube_of_product p =
  let dim = product_support p.xmask in
  let re = Array.create_float dim and im = Array.create_float dim in
  let scaled = product_scaled p in
  let sub = ref 0 and nonzero = ref 0 in
  for i = 0 to dim - 1 do
    let turn = term_turn p !sub in
    if turn = 0 then begin
      re.(i) <- scaled.re;
      im.(i) <- scaled.im
    end
    else if turn = half_turn then begin
      re.(i) <- -.scaled.re;
      im.(i) <- -.scaled.im
    end
    else begin
      let th = Float.of_int turn *. turn_radians in
      let wr = cos th and wi = sin th in
      re.(i) <- (wr *. scaled.re) -. (wi *. scaled.im);
      im.(i) <- (wr *. scaled.im) +. (wi *. scaled.re)
    end;
    if not (is_zero re.(i) im.(i)) then incr nonzero;
    sub := (!sub - p.xmask) land p.xmask
  done;
  { base = p.idx land lnot p.xmask; wires = p.xmask; dim; cre = re; cim = im;
    nonzero = !nonzero }

let promote s p =
  let cb = cube_of_product p in
  s.repr <- Cube cb;
  cb

let force_sparse s =
  (match s.repr with Product p -> ignore (promote s p) | Cube _ | Map _ -> ());
  s.pinned <- true

(* ------------------------------------------------------------------ *)
(* Measurement outcomes *)

let zero_probability p1 v = if v then p1 <= 1e-12 else p1 >= 1.0 -. 1e-12

let draw_outcome rng p1 =
  if zero_probability p1 true then false
  else if zero_probability p1 false then true
  else Rng.below rng p1

(* ------------------------------------------------------------------ *)
(* The program kernel: opcodes, then the product track's passes *)

let on_x p q = p.xmask land (1 lsl q) <> 0

(* Opcodes: the gates in [Counts] field order, so that an opcode indexes a
   tally, then measurements and conditionals. *)
let op_measure = 9
let op_if = 10
let tally_taken = 11
let tally_peak = 12
let tally_promotions = 13
let tally_fallbacks = 14
let tally_size = 15

(* X, CNOT and Toffoli are one operation, an X on the wires of [b] when
   every wire of [a] is 1; Z, Phase, CZ and Cphase likewise turn [b] by
   the phase [c] (a half turn for Z and CZ), and Phase and Cphase write
   its factor into [w], the cosine and sine of its angle (the other
   gates leave [w] alone). CZ, Cphase and Swap name their two wires in
   [a] and [b]. *)
let encode_gate g ~code ~a ~b ~c ~w i =
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
  c.(i) <- turn;
  if op = 3 || op = 8 then begin
    let th = Float.of_int turn *. turn_radians in
    w.(2 * i) <- cos th;
    w.((2 * i) + 1) <- sin th
  end

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
   needs the sparse track (a control on an equatorial wire, a diagonal on
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

(* Scale [amp] to norm 1: [true] when it was exactly 1, and left. *)
let normalize p =
  let n = Complex.norm p.amp in
  if n < eps then invalid_arg "State.project: zero-probability outcome";
  if n <> 1.0 then p.amp <- Complex.div p.amp { re = n; im = 0. };
  n = 1.0

(* Project the equatorial wire [m] onto [v]: both values have amplitude
   1/sqrt 2, and |1> carries the wire's phase into the global turn. *)
let collapse p m v =
  if v then p.turn <- (p.turn + wire_turn p m) land turn_mask;
  if Array.length p.fine > 0 then p.fine.(wire_of_bit m) <- 0;
  p.idx <- (if v then p.idx lor m else p.idx land lnot m);
  p.xmask <- p.xmask land lnot m

(* The product track's program: runs of gates, and the measurements and
   conditionals between them, up to [limit], which must not exceed any
   array's length. *)
let product_slots p ~code ~a ~b ~c ~tally ~bits ~rng i ~limit =
  (* Whether |amp| is known to be exactly 1. The pass changes [amp] only
     to normalize it, so once read as 1 it holds to the pass's end. *)
  let unit_amp = ref false in
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
      if op = op_measure then begin
        (* As [project_inplace]: an equatorial wire is a fair coin, drawn
           as [draw_outcome] draws p = 1/2; a Z-basis wire draws nothing. *)
        let support = product_support p.xmask in
        if support > tally.(tally_peak) then tally.(tally_peak) <- support;
        let m = 1 lsl a.(j) in
        let equatorial = p.xmask land m <> 0 in
        let outcome =
          if equatorial then draw_outcome rng 0.5 else p.idx land m <> 0
        in
        if not !unit_amp then unit_amp := normalize p;
        if equatorial then collapse p m outcome;
        bits.(b.(j)) <- outcome;
        (* A reset that read 1 clears the wire. *)
        if outcome && c.(j) = 1 then p.idx <- p.idx land lnot m;
        tally.(op) <- tally.(op) + 1;
        k := j + 1
      end
      else begin
        tally.(op) <- tally.(op) + 1;
        if bits.(a.(j)) = (b.(j) = 1) then begin
          tally.(tally_taken) <- tally.(tally_taken) + 1;
          k := j + 1
        end
        else k := c.(j)
      end
    end
  done;
  !k

(* ------------------------------------------------------------------ *)
(* Reference engine: the seed's pure rebuild-per-gate algorithms over a
   hash table, kept as the oracle for the property tests comparing
   backends, as the "before" baseline in the simulator benchmark, and as
   the sparse track's kernel for a map. Each operation reads the state's
   terms into a hash table (a map's own, which no operation here writes)
   and returns its result as a new map; [pinned] is inherited, and the
   result never demotes. *)

module Reference = struct
  let phase_of p = Complex.polar 1.0 (Phase.to_radians p)

  let permute src f : amps =
    let amps = Hashtbl.create (Hashtbl.length src) in
    Hashtbl.iter (fun k v -> Hashtbl.replace amps (f k) v) src;
    amps

  let map_table src f : amps =
    let amps = Hashtbl.create (Hashtbl.length src) in
    Hashtbl.iter
      (fun k v ->
        let v = f k v in
        if Complex.norm v > eps then Hashtbl.replace amps k v)
      src;
    amps

  (* H double-buffers: the only gate that can merge or split terms. *)
  let h_table src q : amps =
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

  let gate_amps src g =
    match g with
    | Gate.X q -> permute src (fun k -> k lxor (1 lsl q))
    | Gate.Cnot { control; target } ->
        permute src (fun k -> if bit k control then k lxor (1 lsl target) else k)
    | Gate.Toffoli { c1; c2; target } ->
        permute src (fun k ->
            if bit k c1 && bit k c2 then k lxor (1 lsl target) else k)
    | Gate.Swap (a, b) ->
        permute src (fun k ->
            if bit k a <> bit k b then k lxor (1 lsl a) lxor (1 lsl b) else k)
    | Gate.Z q -> map_table src (fun k v -> if bit k q then Complex.neg v else v)
    | Gate.Cz (a, b) ->
        map_table src (fun k v ->
            if bit k a && bit k b then Complex.neg v else v)
    | Gate.Phase (q, p) ->
        let w = phase_of p in
        map_table src (fun k v -> if bit k q then Complex.mul w v else v)
    | Gate.Cphase { control; target; phase } ->
        let w = phase_of phase in
        map_table src (fun k v ->
            if bit k control && bit k target then Complex.mul w v else v)
    | Gate.H q -> h_table src q

  let project_amps src ~qubit ~value =
    let amps = Hashtbl.create (Hashtbl.length src) in
    Hashtbl.iter
      (fun k v -> if bit k qubit = value then Hashtbl.replace amps k v)
      src;
    let n = sqrt (Hashtbl.fold (fun _ v acc -> acc +. Complex.norm2 v) amps 0.) in
    if n < eps then invalid_arg "State.project: zero-probability outcome";
    map_table amps (fun _ v -> Complex.div v { re = n; im = 0. })

  let set_bit_zero_amps src ~qubit : amps =
    let mask = 1 lsl qubit in
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
    amps

  let sparse_of s : amps =
    match s.repr with
    | Map tbl -> tbl
    | Product _ | Cube _ ->
        let tbl = Hashtbl.create 16 in
        iter_amps s (fun k v -> Hashtbl.replace tbl k v);
        tbl

  let wrap s tbl = { s with repr = Map tbl }
  let apply_gate s g = wrap s (gate_amps (sparse_of s) g)

  let project s ~qubit ~value =
    wrap s (project_amps (sparse_of s) ~qubit ~value)

  let set_bit_zero s ~qubit = wrap s (set_bit_zero_amps (sparse_of s) ~qubit)
end

(* ------------------------------------------------------------------ *)
(* Sparse-track kernel: the cube

   Each gate writes what the oracle's writes for the same terms, an
   absent key a zero entry: the same rules for dropping a term, the same
   rounding, and [nonzero] the size of the oracle's map. *)

(* Exchange the entries [i] and [i lxor flip] for every [i] whose bits
   under [fixed] are [value], in place. *)
let exchange cb ~fixed ~value ~flip =
  let re = cb.cre and im = cb.cim and dim = cb.dim in
  let i = ref value in
  while !i < dim do
    let i0 = !i in
    let i1 = i0 lxor flip in
    let r0 = Array.unsafe_get re i0 and m0 = Array.unsafe_get im i0 in
    Array.unsafe_set re i0 (Array.unsafe_get re i1);
    Array.unsafe_set im i0 (Array.unsafe_get im i1);
    Array.unsafe_set re i1 r0;
    Array.unsafe_set im i1 m0;
    i := (((i0 lor fixed) + 1) land lnot fixed) lor value
  done

(* Drop every wire the nonzero entries hold constant. *)
let settle_all cb =
  let any = ref 0 and all = ref (cb.dim - 1) in
  for i = 0 to cb.dim - 1 do
    if not (is_zero (Array.unsafe_get cb.cre i) (Array.unsafe_get cb.cim i))
    then begin
      any := !any lor i;
      all := !all land i
    end
  done;
  settle cb ~lb:0 ~at:0 ~any:!any ~all:!all

(* X, CNOT and Toffoli: the pairs that differ in the target, under the
   controls, exchange. A control on a constant wire reading 0 stops the
   gate, and one reading 1 drops out. With no varying control a constant
   target just flips in [base]; with one, the target joins the cube (a
   fan-out), or the cube declines ([false]) when that would break the
   rule. A varying target that the gate leaves constant leaves the
   cube. *)
let cube_flip cb ma mb =
  let consts = ma land lnot cb.wires in
  if cb.base land consts <> consts then true
  else begin
    let mc = ma land cb.wires in
    if mb land cb.wires = 0 then
      if mc = 0 then begin
        cb.base <- cb.base lxor mb;
        true
      end
      else if not (may_grow cb ~dim:(2 * cb.dim) ~terms:cb.nonzero) then false
      else begin
        insert_wire cb mb;
        let lc = local_of cb.wires mc and lt = local_of cb.wires mb in
        exchange cb ~fixed:(lc lor lt) ~value:lc ~flip:lt;
        true
      end
    else begin
      let lc = local_of cb.wires mc and lt = local_of cb.wires mb in
      exchange cb ~fixed:(lc lor lt) ~value:lc ~flip:lt;
      if lc <> 0 then settle_all cb;
      true
    end
  end

(* Swap: two constant wires exchange their bits of [base] and two
   varying ones their entries; a varying wire and a constant one decline
   ([false]). *)
let cube_swap cb ma mb =
  match (ma land cb.wires <> 0, mb land cb.wires <> 0) with
  | false, false ->
      cb.base <- swap_masks cb.base ma mb;
      true
  | true, true ->
      let la = local_of cb.wires ma and lb = local_of cb.wires mb in
      exchange cb ~fixed:(la lor lb) ~value:la ~flip:(la lor lb);
      true
  | _ -> false

(* Z and CZ (ops 1 and 5) negate the entries whose varying wires of [m]
   are all 1, when its constant wires all are. Phase and Cphase multiply
   them by the factor [wr] + i [wi] of their turn ([cos] and [sin] of its
   angle, which is [Complex.polar 1.0 (Phase.to_radians ph)]), as
   [Complex.mul] rounds it, read from cells [2 slot] and [2 slot + 1] of
   [w] (in the loop's own function, so the floats are never boxed). *)
let cube_diagonal cb op m w slot =
  let consts = m land lnot cb.wires in
  if cb.base land consts = consts then begin
    let lm = local_of cb.wires m in
    let re = cb.cre and im = cb.cim and dim = cb.dim in
    let i = ref lm in
    if op = 1 || op = 5 then
      while !i < dim do
        let j = !i in
        Array.unsafe_set re j (-.Array.unsafe_get re j);
        Array.unsafe_set im j (-.Array.unsafe_get im j);
        i := (j + 1) lor lm
      done
    else
      let wr = w.(2 * slot) and wi = w.((2 * slot) + 1) in
      while !i < dim do
        let j = !i in
        let vr = Array.unsafe_get re j and vi = Array.unsafe_get im j in
        Array.unsafe_set re j ((wr *. vr) -. (wi *. vi));
        Array.unsafe_set im j ((wr *. vi) +. (wi *. vr));
        i := (j + 1) lor lm
      done
  end

(* H on the wire [m]: a butterfly over the entry pairs, each pair k0,
   k1 = k0 lor m giving (v0 + v1)/sqrt 2 at k0 and (v0 - v1)/sqrt 2 at
   k1. Each entry is scaled as [Complex.mul] by (1/sqrt 2, 0) rounds it,
   a scaled entry of norm at most [eps] adds nothing (an absent term is a
   zero entry, whose scaled value never is above it), and a sum of norm
   at most [eps] is dropped: the rules of the oracle's [h_table], which
   adds at most two terms per key, so the order it adds them in cannot
   change a bit. A constant wire first joins the cube, its other half
   zero: the split, each term becoming two. A wire the butterfly leaves
   constant leaves the cube. *)
let cube_hadamard cb m =
  if cb.wires land m = 0 then insert_wire cb m;
  let lb = local_of cb.wires m in
  let re = cb.cre and im = cb.cim and dim = cb.dim in
  let r = inv_sqrt2 in
  let nonzero = ref 0 and seen = ref 0 in
  let blk = ref 0 in
  while !blk < dim do
    for i0 = !blk to !blk + lb - 1 do
      let i1 = i0 + lb in
      let ar = Array.unsafe_get re i0 and ai = Array.unsafe_get im i0 in
      let br = Array.unsafe_get re i1 and bi = Array.unsafe_get im i1 in
      let sr = (r *. ar) -. (0. *. ai) and si = (r *. ai) +. (0. *. ar) in
      let tr = (r *. br) -. (0. *. bi) and ti = (r *. bi) +. (0. *. br) in
      let has_s = above_eps sr si and has_t = above_eps tr ti in
      if has_s && has_t then begin
        let ur = sr +. tr and ui = si +. ti in
        if above_eps ur ui then begin
          Array.unsafe_set re i0 ur;
          Array.unsafe_set im i0 ui;
          incr nonzero;
          seen := !seen lor 1
        end
        else begin
          Array.unsafe_set re i0 0.;
          Array.unsafe_set im i0 0.
        end;
        let vr = sr -. tr and vi = si -. ti in
        if above_eps vr vi then begin
          Array.unsafe_set re i1 vr;
          Array.unsafe_set im i1 vi;
          incr nonzero;
          seen := !seen lor 2
        end
        else begin
          Array.unsafe_set re i1 0.;
          Array.unsafe_set im i1 0.
        end
      end
      else if has_s || has_t then begin
        let vr = if has_s then sr else tr and vi = if has_s then si else ti in
        Array.unsafe_set re i0 vr;
        Array.unsafe_set im i0 vi;
        Array.unsafe_set re i1 (if has_s then vr else -.vr);
        Array.unsafe_set im i1 (if has_s then vi else -.vi);
        nonzero := !nonzero + 2;
        seen := 3
      end
      else begin
        Array.unsafe_set re i0 0.;
        Array.unsafe_set im i0 0.;
        Array.unsafe_set re i1 0.;
        Array.unsafe_set im i1 0.
      end
    done;
    blk := !blk + (2 * lb)
  done;
  cb.nonzero <- !nonzero;
  if !seen = 1 then compact cb ~drop:lb ~ones:0
  else if !seen = 2 then compact cb ~drop:lb ~ones:lb

(* The half where [m] reads [value] (all of the cube when [m] is
   constant and holds it, none when it holds the other), its norm summed
   and the entries scaled in place by 1/norm, as [Complex.mul] by
   (1/norm, 0) rounds it (the oracle divides, so the two may differ in an
   ulp); then the cube drops [m] and every other wire the kept half holds
   constant. *)
let cube_project cb m value =
  let varying = cb.wires land m <> 0 in
  let lb = if varying then local_of cb.wires m else 0 in
  let want = if value then lb else 0 in
  let kept = varying || (cb.base land m <> 0) = value in
  let re = cb.cre and im = cb.cim and dim = cb.dim in
  let n2 = ref 0. in
  if kept then
    for i = 0 to dim - 1 do
      if i land lb = want then begin
        let vr = Array.unsafe_get re i and vi = Array.unsafe_get im i in
        n2 := !n2 +. ((vr *. vr) +. (vi *. vi))
      end
    done;
  if sqrt !n2 < eps then invalid_arg "State.project: zero-probability outcome";
  let inv = 1. /. sqrt !n2 in
  let nonzero = ref 0 and any = ref 0 and all = ref (dim - 1) in
  for i = 0 to dim - 1 do
    if i land lb = want then begin
      let vr = Array.unsafe_get re i and vi = Array.unsafe_get im i in
      let sr = (inv *. vr) -. (0. *. vi) and si = (inv *. vi) +. (0. *. vr) in
      Array.unsafe_set re i sr;
      Array.unsafe_set im i si;
      if not (is_zero sr si) then begin
        incr nonzero;
        any := !any lor i;
        all := !all land i
      end
    end
  done;
  cb.nonzero <- !nonzero;
  settle cb ~lb ~at:want ~any:!any ~all:!all

(* Clearing a wire is not a permutation: the terms k and k lor m land on
   one index, so their amplitudes add, and a sum of norm at most [eps] is
   dropped, as the oracle's [set_bit_zero] does. A varying wire folds the
   pairs into the half where it reads 0 and leaves the cube with every
   other wire that half holds constant; a constant 1 becomes 0, dropping
   the terms of norm at most [eps]; a constant 0 leaves every term as it
   is. *)
let cube_clear cb m =
  let re = cb.cre and im = cb.cim and dim = cb.dim in
  if cb.wires land m <> 0 then begin
    let lb = local_of cb.wires m in
    let nonzero = ref 0 and any = ref 0 and all = ref (dim - 1) in
    let blk = ref 0 in
    while !blk < dim do
      for i0 = !blk to !blk + lb - 1 do
        let i1 = i0 + lb in
        let ar = Array.unsafe_get re i0 and ai = Array.unsafe_get im i0 in
        let br = Array.unsafe_get re i1 and bi = Array.unsafe_get im i1 in
        if not (is_zero br bi) then begin
          let sr = if is_zero ar ai then br else ar +. br in
          let si = if is_zero ar ai then bi else ai +. bi in
          let keep = above_eps sr si in
          Array.unsafe_set re i0 (if keep then sr else 0.);
          Array.unsafe_set im i0 (if keep then si else 0.)
        end;
        if not (is_zero (Array.unsafe_get re i0) (Array.unsafe_get im i0))
        then begin
          incr nonzero;
          any := !any lor i0;
          all := !all land i0
        end
      done;
      blk := !blk + (2 * lb)
    done;
    cb.nonzero <- !nonzero;
    settle cb ~lb ~at:0 ~any:!any ~all:!all
  end
  else if cb.base land m <> 0 then begin
    cb.base <- cb.base lxor m;
    for i = 0 to dim - 1 do
      let vr = Array.unsafe_get re i and vi = Array.unsafe_get im i in
      if (not (is_zero vr vi)) && not (above_eps vr vi) then begin
        Array.unsafe_set re i 0.;
        Array.unsafe_set im i 0.;
        cb.nonzero <- cb.nonzero - 1
      end
    done
  end

(* One gate on the cube: [false] when it declines. An H split doubles
   the cells and the terms: past the cube's arrays it keeps the rule when
   the cube does now, and on a cube that cancellation has left thinner it
   declines. *)
let cube_gate cb op ma mb w j =
  match op with
  | 0 | 4 | 7 -> cube_flip cb ma mb
  | 6 -> cube_swap cb ma mb
  | 1 | 3 | 5 | 8 ->
      cube_diagonal cb op (ma lor mb) w j;
      true
  | _ ->
      if cb.wires land mb = 0
         && not (may_grow cb ~dim:(2 * cb.dim) ~terms:(2 * cb.nonzero))
      then false
      else begin
        cube_hadamard cb mb;
        true
      end

(* The cube's terms handed to a map, counted in [tally]. *)
let hand_off s cb tally =
  let tbl = map_of_cube cb in
  s.repr <- Map tbl;
  tally.(tally_fallbacks) <- tally.(tally_fallbacks) + 1;
  tbl

(* The oracle's gate [g] on a map, in place of it. *)
let map_gate s tbl g =
  s.repr <- Map (Reference.gate_amps tbl g);
  maybe_demote s

(* [ones /. all], unless every amplitude has cancelled: a zero state has
   no outcome to draw, and the projection after it would blame the
   outcome. *)
let ratio_of_norms q (all, ones) =
  if sqrt all < eps then
    Mbu_error.invalid ~subsystem:"State.prob_bit_one" ~qubit:q
      "the state is zero (every amplitude has cancelled)";
  ones /. all

let prob_bit_one s q =
  match s.repr with
  | Product p ->
      (* Exact: an equatorial wire is a fair coin, a Z-basis wire definite. *)
      if on_x p q then 0.5 else if bit p.idx q then 1.0 else 0.0
  | Cube cb -> ratio_of_norms q (cube_norm2 cb (1 lsl q))
  | Map tbl -> ratio_of_norms q (map_norm2 tbl (1 lsl q))

let project_inplace s ~qubit ~value =
  match s.repr with
  | Product p ->
      let equatorial = on_x p qubit in
      if (not equatorial) && bit p.idx qubit <> value then
        invalid_arg "State.project: zero-probability outcome";
      ignore (normalize p);
      if equatorial then collapse p (1 lsl qubit) value
  | Cube cb ->
      cube_project cb (1 lsl qubit) value;
      maybe_demote s
  | Map tbl ->
      s.repr <- Map (Reference.project_amps tbl ~qubit ~value);
      maybe_demote s

let set_bit_zero_inplace s ~qubit =
  match s.repr with
  | Product p when not (on_x p qubit) -> p.idx <- p.idx land lnot (1 lsl qubit)
  | Product p ->
      cube_clear (promote s p) (1 lsl qubit);
      maybe_demote s
  | Cube cb ->
      cube_clear cb (1 lsl qubit);
      maybe_demote s
  | Map tbl ->
      s.repr <- Map (Reference.set_bit_zero_amps tbl ~qubit);
      maybe_demote s

let set_bit_zero s ~qubit =
  let s = copy s in
  set_bit_zero_inplace s ~qubit;
  s

(* The sparse track's program: as [product_slots], up to [limit] or the
   first slot after which the state has demoted. A cube that declines a
   gate hands its terms to a map, and a map runs the oracle's gate
   [gates.(j)]. A measurement runs as [Sim]'s one-slot measurement
   does. *)
let sparse_slots s ~code ~a ~b ~c ~w ~gates ~tally ~bits ~rng i ~limit =
  let k = ref i and go = ref true in
  while !go && !k < limit do
    let j = !k in
    let op = code.(j) in
    if op < op_measure then begin
      let ma = a.(j) and mb = b.(j) in
      (match s.repr with
      | Cube cb ->
          if not (cube_gate cb op ma mb w j) then
            map_gate s (hand_off s cb tally) gates.(j)
          else if op = 2 then maybe_demote s
      | Map tbl -> map_gate s tbl gates.(j)
      | Product _ -> ());
      tally.(op) <- tally.(op) + 1;
      k := j + 1
    end
    else if op = op_measure then begin
      let qubit = a.(j) in
      let support = support_size s in
      if support > tally.(tally_peak) then tally.(tally_peak) <- support;
      let outcome = draw_outcome rng (prob_bit_one s qubit) in
      project_inplace s ~qubit ~value:outcome;
      bits.(b.(j)) <- outcome;
      if outcome && c.(j) = 1 then set_bit_zero_inplace s ~qubit;
      tally.(op) <- tally.(op) + 1;
      k := j + 1
    end
    else begin
      tally.(op) <- tally.(op) + 1;
      if bits.(a.(j)) = (b.(j) = 1) then begin
        tally.(tally_taken) <- tally.(tally_taken) + 1;
        k := j + 1
      end
      else k := c.(j)
    end;
    match s.repr with Cube _ | Map _ -> () | Product _ -> go := false
  done;
  !k

let on_product_track s =
  match s.repr with Product _ -> true | Cube _ | Map _ -> false

(* Passes on whichever track the state is on. A product pass that stops
   short stops at a gate it needs the sparse track for: promote, and the
   cube takes it. A sparse pass that stops short has demoted. *)
let run_slots s ~code ~a ~b ~c ~w ~gates ~tally ~bits ~rng i ~stop =
  if i < 0 || Array.length tally < tally_size then
    invalid_arg "State.run_slots";
  (* Clamped to the arrays, so the passes read them unchecked. *)
  let n = imin (Array.length code) (Array.length c) in
  let n = imin n (imin (Array.length a) (Array.length b)) in
  let limit = imin stop n in
  let k = ref i in
  while !k < limit do
    match s.repr with
    | Product p ->
        k := product_slots p ~code ~a ~b ~c ~tally ~bits ~rng !k ~limit;
        if !k < limit then begin
          ignore (promote s p);
          tally.(tally_promotions) <- tally.(tally_promotions) + 1
        end
    | Cube _ | Map _ ->
        k := sparse_slots s ~code ~a ~b ~c ~w ~gates ~tally ~bits ~rng !k ~limit
  done;
  !k

(* Amplitude of basis term [k] in [s], if stored. *)
let amp_at s k =
  match s.repr with
  | Product p ->
      if k land lnot p.xmask <> p.idx land lnot p.xmask then None
      else Some (rotate (term_turn p (k land p.xmask)) (product_scaled p))
  | Cube cb ->
      if k land lnot cb.wires <> cb.base then None
      else
        let i = local_of cb.wires k in
        let re = cb.cre.(i) and im = cb.cim.(i) in
        if is_zero re im then None else Some { Complex.re; im }
  | Map tbl -> Hashtbl.find_opt tbl k

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
  | Product _ | Cube _ | Map _ ->
      let terms = ref 0 and last = ref 0 in
      iter_terms s (fun k ->
          incr terms;
          last := k);
      if !terms = 1 then Some !last else None

let bit_value s q =
  match s.repr with
  | Product { idx; xmask = 0; amp; _ } ->
      if Complex.norm amp > eps then Some (bit idx q) else None
  | Product _ | Cube _ | Map _ -> (
      (* Bit 0 of [seen]: a term reads 0; bit 1: a term reads 1. *)
      let seen = ref 0 in
      iter_terms s (fun k -> seen := !seen lor if bit k q then 2 else 1);
      match !seen with 1 -> Some false | 2 -> Some true | _ -> None)

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
