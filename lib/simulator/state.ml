open Mbu_circuit

(* Two representations ("tracks"):

   - [Product]: a product of Z-basis and X-basis wires, stored as three
     masks and an amplitude. Wires outside [xmask] hold the bits of [idx];
     a wire in [xmask] is |+> or |->, with [smask] marking the |-> ones
     ([idx] and [smask] are zero outside their wires). The state denotes
     the 2^popcount(xmask) basis terms |idx lor sub>, sub a subset of
     [xmask], each with amplitude
     amp * 2^(-k/2) * (-1)^popcount(sub land smask). X / CNOT / Toffoli
     with Z-basis controls, Z, Swap, H and CZ are O(1) mask operations
     with no allocation, and measuring an X-basis wire is an exact coin
     flip. MBU circuits on basis inputs stay here: the garbage qubit of
     the H.U_g.H.X correction is only ever a target while it is in |->,
     and the AND erasure is H, measure.
   - [Sparse]: the general finite map from basis index to amplitude.
     Permutation and diagonal gates mutate the table in place; only H
     double-buffers into a fresh table.

   Any other operation touching an X-basis wire (a control on it, a Phase
   or Cphase on it, a CZ between two X-basis wires, clearing it) promotes
   the product to the sparse table holding its 2^k terms, then applies the
   sparse kernel. Whenever a sparse table collapses back to a single term
   (H recombination, projection, reset) the state demotes to a product
   with no X-basis wire — unless [pinned] was set, which keeps a state on
   the sparse track so tests and benchmarks can exercise the sparse kernel
   on circuits that would otherwise stay on the product track. *)

type product = {
  mutable idx : int;
  mutable xmask : int;
  mutable smask : int;
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

let basis_product idx amp = Product { idx; xmask = 0; smask = 0; amp }

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

(* The support of a product with X-basis wires [xmask]: 2^k terms. *)
let product_support xmask =
  let k = popcount xmask in
  if k >= Sys.int_size - 1 then max_int else 1 lsl k

let inv_sqrt2 = 1.0 /. sqrt 2.0

(* Amplitude of the term |idx lor sub> of a product, for [sub] a subset of
   [xmask]; [scaled] is [amp * 2^(-k/2)]. *)
let product_term p ~scaled sub =
  if popcount (sub land p.smask) land 1 = 1 then Complex.neg scaled else scaled

let product_scaled p =
  let scale = Float.pow inv_sqrt2 (float_of_int (popcount p.xmask)) in
  { Complex.re = p.amp.re *. scale; im = p.amp.im *. scale }

(* The basis terms a product denotes, in increasing order of [sub]
   ([(sub - m) land m] steps through the subsets of [m]). *)
let iter_product p f =
  let scaled = product_scaled p in
  let rec go sub =
    f (p.idx lor sub) (product_term p ~scaled sub);
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
      | Product p -> Product { p with idx = p.idx }
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
   every wire of [a] is 1, and Z and CZ likewise a Z on [b]; CZ and Swap
   name their two wires in [a] and [b]. *)
let encode_gate g ~code ~a ~b i =
  let op, ma, mb =
    match g with
    | Gate.X q -> (0, 0, 1 lsl q)
    | Gate.Z q -> (1, 0, 1 lsl q)
    | Gate.H q -> (2, 0, 1 lsl q)
    | Gate.Phase (q, _) -> (3, 0, 1 lsl q)
    | Gate.Cnot { control; target } -> (4, 1 lsl control, 1 lsl target)
    | Gate.Cz (q, r) -> (5, 1 lsl q, 1 lsl r)
    | Gate.Swap (q, r) -> (6, 1 lsl q, 1 lsl r)
    | Gate.Toffoli { c1; c2; target } ->
        (7, (1 lsl c1) lor (1 lsl c2), 1 lsl target)
    | Gate.Cphase { control; target; _ } -> (8, 1 lsl control, 1 lsl target)
  in
  code.(i) <- op;
  a.(i) <- ma;
  b.(i) <- mb

let imin (x : int) y = if x < y then x else y

(* All ones when [c] is 0, else 0, for [c] >= 0: [c - 1] is negative
   exactly when [c] is 0. *)
let[@inline] ones_if_zero c = (c - 1) asr (Sys.int_size - 1)

(* Exchange the bits of [v] under the one-wire masks [ma] and [mb]. *)
let[@inline] swap_masks v ma mb =
  if (v land ma = 0) <> (v land mb = 0) then v lxor (ma lor mb) else v

(* The product track's gate slots from [i] to the first one it cannot
   take, below [limit], which must not exceed any array's length. The masks
   live in locals for the whole run and go back to [p] once; the loop makes
   no call, so they stay in registers. The result is that first slot, times
   2, plus 1 when the run negated [amp]: the caller owns the sign, since a
   negation is exact and flipping once per odd count gives the same floats
   as flipping per gate. On a wire in [xmask], [idx] holds 0 and [smask]
   the sign; on any other wire [smask] holds 0. *)
let product_gates p ~code ~a ~b ~tally i ~limit =
  let idx = ref p.idx and xm = ref p.xmask and sm = ref p.smask in
  let neg = ref false in
  let k = ref i and limit = ref limit in
  while !k < !limit do
    let j = !k in
    let op = Array.unsafe_get code j in
    let taken =
      match op with
      | 0 | 4 | 7 ->
          (* X on [b] if the Z-basis controls [a] are all 1; X|-> = -|->.
             With every wire in the Z basis, the common case, whether the
             gate fires is data, so it is a mask, not a branch. *)
          let ma = Array.unsafe_get a j and mb = Array.unsafe_get b j in
          if !xm land (ma lor mb) = 0 then begin
            idx := !idx lxor (mb land ones_if_zero ((!idx land ma) lxor ma));
            true
          end
          else if !xm land ma <> 0 then false
          else begin
            if !idx land ma = ma && !sm land mb <> 0 then neg := not !neg;
            true
          end
      | 1 | 5 ->
          (* Z on one wire when the other is a Z-basis 1 (Z has no other
             wire): Z|+> = |->, and Z on a Z-basis 1 is a sign. *)
          let ma = Array.unsafe_get a j and mb = Array.unsafe_get b j in
          if !xm land ma = 0 then begin
            (if !idx land ma = ma then
               if !xm land mb <> 0 then sm := !sm lxor mb
               else if !idx land mb <> 0 then neg := not !neg);
            true
          end
          else if !xm land mb = 0 then begin
            if !idx land mb <> 0 then sm := !sm lxor ma;
            true
          end
          else false
      | 2 ->
          (* H|0> = |+>, H|1> = |->, and back: the bit and the sign trade
             places. *)
          let mb = Array.unsafe_get b j in
          let t = (!idx lxor !sm) land mb in
          idx := !idx lxor t;
          sm := !sm lxor t;
          xm := !xm lxor mb;
          true
      | 6 ->
          let ma = Array.unsafe_get a j and mb = Array.unsafe_get b j in
          idx := swap_masks !idx ma mb;
          xm := swap_masks !xm ma mb;
          sm := swap_masks !sm ma mb;
          true
      | _ -> false
    in
    if taken then begin
      Array.unsafe_set tally op (Array.unsafe_get tally op + 1);
      k := j + 1
    end
    else limit := j
  done;
  p.idx <- !idx;
  p.xmask <- !xm;
  p.smask <- !sm;
  (!k lsl 1) lor Bool.to_int !neg

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
     The pass only ever negates [amp], so the answer holds to its end. *)
  let unit_amp = ref (-1) in
  let neg = ref false in
  let k = ref i and go = ref true in
  while !go && !k < limit do
    let r = product_gates p ~code ~a ~b ~tally !k ~limit in
    let j = r asr 1 in
    if r land 1 = 1 then neg := not !neg;
    k := j;
    if j < limit then begin
      let op = code.(j) in
      if op = op_measure && !unit_amp < 0 then
        unit_amp := Bool.to_int (Complex.norm p.amp = 1.0);
      if adaptive && op = op_measure && !unit_amp = 1 then begin
        (* As [project_inplace] with |amp| = 1, which leaves [amp]
           unscaled: an X-basis wire is a fair coin, drawn as [Sim]'s
           [draw_outcome] draws p = 1/2, and |-> has amplitude -1/sqrt 2
           on |1>; a Z-basis wire draws nothing. *)
        let support = product_support p.xmask in
        if support > tally.(tally_peak) then tally.(tally_peak) <- support;
        let m = 1 lsl a.(j) in
        let outcome =
          if p.xmask land m = 0 then p.idx land m <> 0
          else begin
            let v = Random.State.float rng 1.0 < 0.5 in
            if v then begin
              p.idx <- p.idx lor m;
              if p.smask land m <> 0 then neg := not !neg
            end;
            p.xmask <- p.xmask land lnot m;
            p.smask <- p.smask land lnot m;
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
  if !neg then p.amp <- Complex.neg p.amp;
  !k

let on_product_track s =
  match s.repr with Product _ -> true | Sparse _ -> false

let run_slots s ~code ~a ~b ~c ~tally ~bits ~rng ~adaptive i ~stop =
  match s.repr with
  | Product p ->
      product_slots p ~code ~a ~b ~c ~tally ~bits ~rng ~adaptive i ~stop
  | Sparse _ -> i

(* Apply [g] on the product track; [false] when it needs the sparse table
   (an X-basis wire used as a control or under a non-Pauli phase). Phases
   carry an angle, not a mask, so they are the only gates
   [product_gates] leaves to this function. *)
let product_gate p g =
  match g with
  | Gate.Phase (q, ph) ->
      if on_x p q then false
      else begin
        if bit p.idx q then p.amp <- Complex.mul (phase_of ph) p.amp;
        true
      end
  | Gate.Cphase { control; target; phase } ->
      if on_x p control || on_x p target then false
      else begin
        if bit p.idx control && bit p.idx target then
          p.amp <- Complex.mul (phase_of phase) p.amp;
        true
      end
  | Gate.X _ | Gate.Z _ | Gate.H _ | Gate.Cnot _ | Gate.Cz _ | Gate.Swap _
  | Gate.Toffoli _ ->
      let code = [| 0 |] and a = [| 0 |] and b = [| 0 |] in
      encode_gate g ~code ~a ~b 0;
      let r =
        product_gates p ~code ~a ~b ~tally:(Array.make op_measure 0) 0 ~limit:1
      in
      if r land 1 = 1 then p.amp <- Complex.neg p.amp;
      r asr 1 = 1

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

let apply_gate_inplace s g =
  match s.repr with
  | Product p ->
      if not (product_gate p g) then begin
        let tbl = table_of_product p in
        s.repr <- Sparse tbl;
        sparse_gate s tbl g
      end
  | Sparse tbl -> sparse_gate s tbl g

let apply_gate s g =
  let s = copy s in
  apply_gate_inplace s g;
  s

let prob_bit_one s q =
  match s.repr with
  | Product p ->
      (* Exact: an X-basis wire is a fair coin, a Z-basis wire definite. *)
      if on_x p q then 0.5 else if bit p.idx q then 1.0 else 0.0
  | Sparse tbl ->
      let p1 = ref 0. in
      Hashtbl.iter (fun k v -> if bit k q then p1 := !p1 +. Complex.norm2 v) tbl;
      !p1 /. norm2 s

let project_inplace s ~qubit ~value =
  match s.repr with
  | Product p ->
      let m = 1 lsl qubit in
      let x_basis = p.xmask land m <> 0 in
      if (not x_basis) && bit p.idx qubit <> value then
        invalid_arg "State.project: zero-probability outcome";
      let n = Complex.norm p.amp in
      if n < eps then invalid_arg "State.project: zero-probability outcome";
      if n <> 1.0 then p.amp <- Complex.div p.amp { re = n; im = 0. };
      if x_basis then begin
        (* |+> and |-> both have amplitude 1/sqrt 2 on |0>; |-> has
           -1/sqrt 2 on |1>. *)
        if value then begin
          p.idx <- p.idx lor m;
          if p.smask land m <> 0 then p.amp <- Complex.neg p.amp
        end;
        p.xmask <- p.xmask land lnot m;
        p.smask <- p.smask land lnot m
      end
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
  | Product p ->
      let tbl = table_of_product p in
      s.repr <- Sparse tbl;
      sparse_set_bit_zero s tbl ~qubit
  | Sparse tbl -> sparse_set_bit_zero s tbl ~qubit

let set_bit_zero s ~qubit =
  let s = copy s in
  set_bit_zero_inplace s ~qubit;
  s

(* Amplitude of basis term [k] in [s], if stored. *)
let amp_at s k =
  match s.repr with
  | Product p ->
      if k land lnot p.xmask <> p.idx then None
      else Some (product_term p ~scaled:(product_scaled p) (k land p.xmask))
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
