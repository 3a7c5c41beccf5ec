type r = { total : float; toffoli : float }

type mode = [ `Worst | `Expected of float ]

let of_counts_mode : Counts.mode -> mode = function
  | Counts.Worst -> `Worst
  | Counts.Best -> `Expected 0.
  | Counts.Expected p -> `Expected p

(* One level of the walk: the root, or one open span scored in isolation.
   A level sees only the instructions inside it, so its fronts read 0 when
   it opens. Opening a level hands it a fresh [epoch] instead of clearing
   its arrays: a front stamped with another epoch reads as 0. *)
type level = {
  mutable epoch : int;
  sc : float array;
      (* [cur_w; extra_total; extra_tof; max_total; max_tof]: the product of the
         branch probabilities of the conditionals enclosing the current
         instruction inside this level, the bit fronts those conditionals
         wait for, and the running maxima of every front written *)
  qf : float array;  (* wire q: total front at [2q], Toffoli front at [2q+1] *)
  qs : int array;  (* wire q: epoch of its last write *)
  bf : float array;  (* classical bit, as [qf] *)
  bs : int array;
}

type walk = {
  weight : float;  (* branch probability of a conditional body *)
  nq : int;
  nb : int;
  track : bool;  (* open a level per [Span] *)
  mutable levels : level array;
  mutable open_levels : int;  (* [levels.(0 .. open_levels - 1)] are open *)
  mutable epochs : int;  (* last epoch handed out *)
  mutable saved : float array;  (* [If_bit] save stack of [sc.(0..2)] *)
  mutable sp : int;
  results : r array;  (* per span, in expanded pre-order; root at 0 *)
  mutable next : int;  (* pre-order index of the next span *)
}

let cur_w = 0
let extra_total = 1
let extra_tof = 2
let max_total = 3
let max_tof = 4

let new_level nq nb =
  { epoch = 0; sc = [| 1.; 0.; 0.; 0.; 0. |];
    qf = Array.make (2 * nq) 0.; qs = Array.make nq 0;
    bf = Array.make (2 * nb) 0.; bs = Array.make nb 0 }

(* Fronts are non-negative and never NaN for a probability weight, so this
   agrees with [Float.max] and stays unboxed. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

let[@inline] front lv q k = if lv.qs.(q) = lv.epoch then lv.qf.((2 * q) + k) else 0.
let[@inline] bit_front lv b k = if lv.bs.(b) = lv.epoch then lv.bf.((2 * b) + k) else 0.

(* Every front is a write, and a wire's fronts never decrease (a bit's
   front equals the front written to its measured wire), so the running
   maximum of the writes is the maximum over all fronts at the end. *)
let[@inline] write lv q t tt =
  lv.qs.(q) <- lv.epoch;
  lv.qf.(2 * q) <- t;
  lv.qf.((2 * q) + 1) <- tt;
  let sc = lv.sc in
  sc.(max_total) <- fmax sc.(max_total) t;
  sc.(max_tof) <- fmax sc.(max_tof) tt

let gate s (g : Gate.t) =
  for l = 0 to s.open_levels - 1 do
    let lv = s.levels.(l) in
    let sc = lv.sc in
    let w = sc.(cur_w) and et = sc.(extra_total) and ef = sc.(extra_tof) in
    match g with
    | X q | Z q | H q | Phase (q, _) ->
        write lv q (fmax (front lv q 0) et +. w) (fmax (front lv q 1) ef)
    | Cnot { control = a; target = b }
    | Cz (a, b)
    | Swap (a, b)
    | Cphase { control = a; target = b; _ } ->
        let t = fmax (fmax (front lv a 0) (front lv b 0)) et +. w in
        let tt = fmax (fmax (front lv a 1) (front lv b 1)) ef in
        write lv a t tt;
        write lv b t tt
    | Toffoli { c1; c2; target } ->
        let t =
          fmax (fmax (fmax (front lv c1 0) (front lv c2 0)) (front lv target 0)) et
          +. w
        in
        let tt =
          fmax (fmax (fmax (front lv c1 1) (front lv c2 1)) (front lv target 1)) ef
          +. w
        in
        write lv c1 t tt;
        write lv c2 t tt;
        write lv target t tt
  done

let measure s q b =
  for l = 0 to s.open_levels - 1 do
    let lv = s.levels.(l) in
    let sc = lv.sc in
    let t = fmax (front lv q 0) sc.(extra_total) +. sc.(cur_w) in
    let tt = fmax (front lv q 1) sc.(extra_tof) in
    write lv q t tt;
    lv.bs.(b) <- lv.epoch;
    lv.bf.(2 * b) <- t;
    lv.bf.((2 * b) + 1) <- tt
  done

let push s v =
  if s.sp = Array.length s.saved then begin
    let a = Array.make (2 * s.sp + 24) 0. in
    Array.blit s.saved 0 a 0 s.sp;
    s.saved <- a
  end;
  s.saved.(s.sp) <- v;
  s.sp <- s.sp + 1

(* Open a level for a span: fresh epoch, weight 1, no enclosing bits. *)
let open_level s =
  if s.open_levels = Array.length s.levels then
    s.levels <-
      Array.append s.levels
        (Array.init (s.open_levels + 1) (fun _ -> new_level s.nq s.nb));
  let lv = s.levels.(s.open_levels) in
  s.epochs <- s.epochs + 1;
  lv.epoch <- s.epochs;
  let sc = lv.sc in
  sc.(cur_w) <- 1.;
  sc.(extra_total) <- 0.;
  sc.(extra_tof) <- 0.;
  sc.(max_total) <- 0.;
  sc.(max_tof) <- 0.;
  s.open_levels <- s.open_levels + 1;
  lv

(* Calls are transparent: [\[Call n\]] is [n]'s body. *)
let rec single_span = function
  | [ Instr.Span _ ] -> true
  | [ Instr.Call { body; _ } ] -> single_span body
  | _ -> false

let rec exec s = function
  | [] -> ()
  | Instr.Gate g :: rest ->
      gate s g;
      exec s rest
  | Instr.Measure { qubit; bit; _ } :: rest ->
      measure s qubit bit;
      exec s rest
  | Instr.If_bit { bit; body; _ } :: rest ->
      let base = s.sp in
      for l = 0 to s.open_levels - 1 do
        let lv = s.levels.(l) in
        let sc = lv.sc in
        push s sc.(cur_w);
        push s sc.(extra_total);
        push s sc.(extra_tof);
        sc.(cur_w) <- sc.(cur_w) *. s.weight;
        sc.(extra_total) <- fmax sc.(extra_total) (bit_front lv bit 0);
        sc.(extra_tof) <- fmax sc.(extra_tof) (bit_front lv bit 1)
      done;
      exec s body;
      for l = 0 to s.open_levels - 1 do
        let sc = s.levels.(l).sc and at = base + (3 * l) in
        sc.(cur_w) <- s.saved.(at);
        sc.(extra_total) <- s.saved.(at + 1);
        sc.(extra_tof) <- s.saved.(at + 2)
      done;
      s.sp <- base;
      exec s rest
  | Instr.Span { body; _ } :: rest when s.track ->
      let ix = s.next in
      s.next <- ix + 1;
      if single_span body then begin
        (* A span around exactly one span (a stage wrapping one adder, the
           root around one constructor) has that span's isolated depth,
           and that span is the next in pre-order: no level of its own. *)
        exec s body;
        s.results.(ix) <- s.results.(ix + 1)
      end
      else begin
        let lv = open_level s in
        exec s body;
        s.results.(ix) <- { total = lv.sc.(max_total); toffoli = lv.sc.(max_tof) };
        s.open_levels <- s.open_levels - 1
      end;
      exec s rest
  | (Instr.Span { body; _ } | Instr.Call { body; _ }) :: rest ->
      (* Depth is not compositional (the per-wire fronts couple a block to
         its context), so shared blocks are walked in full. *)
      exec s body;
      exec s rest

let run ~track (mode : mode) instrs =
  let weight = match mode with `Worst -> 1. | `Expected p -> p in
  let sm = Instr.scan instrs in
  let nq = sm.max_qubit + 1 and nb = sm.max_bit + 1 in
  let root_alias = track && single_span instrs in
  let s =
    { weight; nq; nb; track; levels = [| new_level nq nb |];
      open_levels = (if root_alias then 0 else 1);
      epochs = 0; saved = [||]; sp = 0;
      results =
        Array.make
          (if track then sm.span_count + 1 else 1)
          { total = 0.; toffoli = 0. };
      next = 1 }
  in
  exec s instrs;
  (if root_alias then s.results.(0) <- s.results.(1)
   else
     let sc = s.levels.(0).sc in
     s.results.(0) <- { total = sc.(max_total); toffoli = sc.(max_tof) });
  s.results

let of_instrs ~mode instrs = (run ~track:false mode instrs).(0)
let of_circuit ~mode (c : Circuit.t) = of_instrs ~mode c.instrs
let spans mode instrs = run ~track:true mode instrs
