open Mbu_bitstring
open Mbu_circuit
open Mbu_core

type args = {
  style : Adder.style;
  mbu : bool;
  n : int;
  p : int;
  a : int;
  x : int;
  y : int;
}

type built = {
  registers : Register.t list;
  inits : (Register.t * int) list;
  outputs : Register.t list;
  expect : (Register.t * int) list;
}

type family = {
  name : string;
  styled : bool;
  build : Builder.t -> args -> built;
}

(* [outs] gives the oracle value of each output register; every other
   register keeps its initial value (0 when it has none). *)
let built registers inits outs =
  let final r =
    match List.assq_opt r outs with
    | Some v -> v
    | None -> Option.value (List.assq_opt r inits) ~default:0
  in
  { registers; inits; outputs = List.map fst outs;
    expect = List.map (fun r -> (r, final r)) registers }

let pmod v m = ((v mod m) + m) mod m

(* (a * x) mod p by doubling, so the product cannot overflow for p < 2^61. *)
let mulmod a x p =
  let rec go acc a x =
    if x = 0 then acc
    else
      go (if x land 1 = 1 then (acc + a) mod p else acc) (2 * a mod p) (x lsr 1)
  in
  go 0 (pmod a p) x

(* The four subroutines of proposition 3.2 all in one adder style. *)
let uniform s =
  Mod_add.{ q_add = s; q_comp_const = s; c_q_sub_const = s; q_comp = s }

let reg b name len = Builder.fresh_register b name len

let family ?(styled = true) name build = { name; styled; build }

(* Register layouts shared by several families; [oracle] maps the input
   values to the output register's final value. Every family emits its
   circuit before computing the oracle, so the builder's own argument
   checks (an out-of-range modulus, say) fire before any [mod p]. *)
let plain ?styled name ~oracle emit =
  family ?styled name (fun b g ->
      let x = reg b "x" g.n in
      let y = reg b "y" (g.n + 1) in
      emit b g ~x ~y;
      built [ x; y ] [ (x, g.x); (y, g.y) ]
        [ (y, pmod (oracle g.x g.y) (1 lsl (g.n + 1))) ])

let modular ?styled name ~oracle emit =
  family ?styled name (fun b g ->
      let x = reg b "x" g.n in
      let y = reg b "y" g.n in
      emit b g ~x ~y;
      let xv = g.x mod g.p and yv = g.y mod g.p in
      built [ x; y ] [ (x, xv); (y, yv) ] [ (y, pmod (oracle xv yv) g.p) ])

(* x <- (x + a) mod p. *)
let const_modular name emit =
  family name (fun b g ->
      let x = reg b "x" g.n in
      emit b g ~a:(g.a mod g.p) ~x;
      let xv = g.x mod g.p in
      built [ x ] [ (x, xv) ] [ (x, pmod (xv + g.a) g.p) ])

(* t <- (t + c.a.x) mod p with the control c set. *)
let controlled_mult name emit =
  family name (fun b g ->
      let c = reg b "c" 1 in
      let x = reg b "x" g.n in
      let t = reg b "t" g.n in
      emit b g ~ctrl:(Register.get c 0) ~x ~t;
      let xv = g.x mod g.p and tv = g.y mod g.p in
      built [ c; x; t ] [ (c, 1); (x, xv); (t, tv) ]
        [ (t, (tv + mulmod g.a xv g.p) mod g.p) ])

(* A CLI constant as a bit string. 62 bits keep every bit of a
   non-negative int, so an oversize constant reaches Adder's fit check
   instead of being truncated here. *)
let const a =
  if a < 0 then
    Mbu_error.invalid ~subsystem:"Catalogue"
      (Printf.sprintf "constant %d is negative" a);
  Bitstring.of_int ~width:62 a

let add x y = x + y
let sub x y = y - x

let families =
  [ plain "adder" ~oracle:add (fun b g ~x ~y -> Adder.add g.style b ~x ~y);
    plain "sub" ~oracle:sub (fun b g ~x ~y -> Adder.sub g.style b ~x ~y);
    family "cadder" (fun b g ->
        let c = reg b "c" 1 in
        let x = reg b "x" g.n in
        let y = reg b "y" (g.n + 1) in
        Adder.add_controlled g.style b ~ctrl:(Register.get c 0) ~x ~y;
        built [ c; x; y ] [ (c, 1); (x, g.x); (y, g.y) ]
          [ (y, pmod (g.x + g.y) (1 lsl (g.n + 1))) ]);
    family "adder-const" (fun b g ->
        let y = reg b "y" (g.n + 1) in
        Adder.add_const g.style b ~a:(const g.a) ~y;
        built [ y ] [ (y, g.y) ] [ (y, pmod (g.y + g.a) (1 lsl (g.n + 1))) ]);
    family "compare" (fun b g ->
        let x = reg b "x" g.n in
        let y = reg b "y" g.n in
        let t = reg b "t" 1 in
        Adder.compare g.style b ~x ~y ~target:(Register.get t 0);
        built [ x; y; t ] [ (x, g.x); (y, g.y); (t, 0) ]
          [ (t, Bool.to_int (g.x > g.y)) ]);
    family "compare-const" (fun b g ->
        let x = reg b "x" g.n in
        let t = reg b "t" 1 in
        Adder.compare_const g.style b ~a:(const g.a) ~x ~target:(Register.get t 0);
        built [ x; t ] [ (x, g.x); (t, 0) ] [ (t, Bool.to_int (g.x < g.a)) ]);
    modular "modadd" ~oracle:add (fun b g ~x ~y ->
        if g.style = Adder.Draper then
          Mod_add.modadd_draper ~mbu:g.mbu b ~p:g.p ~x ~y
        else Mod_add.modadd ~mbu:g.mbu (uniform g.style) b ~p:g.p ~x ~y);
    modular "modadd-mixed" ~styled:false ~oracle:add (fun b g ~x ~y ->
        Mod_add.modadd ~mbu:g.mbu Mod_add.spec_mixed b ~p:g.p ~x ~y);
    modular "modadd-vbe5" ~styled:false ~oracle:add (fun b g ~x ~y ->
        Mod_add.modadd_vbe_5adder ~mbu:g.mbu b ~p:g.p ~x ~y);
    modular "modadd-vbe4" ~styled:false ~oracle:add (fun b g ~x ~y ->
        Mod_add.modadd_vbe_4adder ~mbu:g.mbu b ~p:g.p ~x ~y);
    family "cmodadd" (fun b g ->
        let c = reg b "c" 1 in
        let x = reg b "x" g.n in
        let y = reg b "y" g.n in
        Mod_add.modadd_controlled ~mbu:g.mbu (uniform g.style) b
          ~ctrl:(Register.get c 0) ~p:g.p ~x ~y;
        let xv = g.x mod g.p and yv = g.y mod g.p in
        built [ c; x; y ] [ (c, 1); (x, xv); (y, yv) ] [ (y, (xv + yv) mod g.p) ]);
    const_modular "modadd-const" (fun b g ~a ~x ->
        if g.style = Adder.Draper then
          Mod_add.modadd_const_draper ~mbu:g.mbu b ~p:g.p ~a ~x
        else Mod_add.modadd_const ~mbu:g.mbu (uniform g.style) b ~p:g.p ~a ~x);
    const_modular "takahashi" (fun b g ~a ~x ->
        Mod_add.modadd_const_takahashi ~mbu:g.mbu (uniform g.style) b ~p:g.p
          ~a ~x);
    family "in-range" (fun b g ->
        let x = reg b "x" g.n in
        let y = reg b "y" g.n in
        let z = reg b "z" g.n in
        let t = reg b "t" 1 in
        Mbu.in_range ~mbu:g.mbu g.style b ~x ~y ~z ~target:(Register.get t 0);
        built [ x; y; z; t ] [ (x, g.x); (y, g.y); (z, g.a); (t, 0) ]
          [ (t, Bool.to_int (g.y < g.x && g.x < g.a)) ]);
    controlled_mult "cmult" (fun b g ~ctrl ~x ~t ->
        let engine =
          if g.style = Adder.Draper then Mod_mul.draper_engine ~mbu:g.mbu ()
          else Mod_mul.ripple_engine ~mbu:g.mbu (uniform g.style)
        in
        Mod_mul.cmult_add engine b ~ctrl ~a:g.a ~p:g.p ~x ~target:t);
    plain "adder-cla" ~styled:false ~oracle:add (fun b g ~x ~y ->
        Adder_cla.add ~mbu:g.mbu b ~x ~y);
    family "increment" ~styled:false (fun b g ->
        let y = reg b "y" g.n in
        Increment.apply b y;
        built [ y ] [ (y, g.y) ] [ (y, pmod (g.y + 1) (1 lsl g.n)) ]);
    modular "modsub" ~oracle:sub (fun b g ~x ~y ->
        Mod_add.modsub ~mbu:g.mbu (uniform g.style) b ~p:g.p ~x ~y);
    (* With [mbu] the table is unlooked-up again, so the target ends at 0. *)
    family "lookup" ~styled:false (fun b g ->
        let k = min g.n 10 in
        let address = reg b "a" k in
        let target = reg b "t" (max 1 (min g.n 8)) in
        let data =
          Array.init (1 lsl k) (fun i ->
              ((i * 37) + 5) land ((1 lsl Register.length target) - 1))
        in
        Qrom.lookup b ~address ~target ~data;
        if g.mbu then Qrom.unlookup b ~address ~target ~data;
        let av = g.x land ((1 lsl k) - 1) in
        built [ address; target ] [ (address, av) ]
          [ (target, if g.mbu then 0 else data.(av)) ]);
    controlled_mult "cmult-windowed" (fun b g ~ctrl ~x ~t ->
        Mod_mul.cmult_add_windowed ~mbu:g.mbu (uniform g.style) b ~ctrl ~a:g.a
          ~p:g.p ~x ~target:t) ]

let family name = List.find (fun (f : family) -> f.name = name) families

let spec ~name b (r : built) =
  Engine.spec_of_builder ~name b ~inits:r.inits ~keep:r.registers
    ~expect:r.expect

(* Deterministic inputs with x + y >= p (for p >= 3), so the comparator and
   the conditional subtract-p path both do real work. *)
let default_inputs ~p =
  let x = 2 * (p - 1) / 3 and y = ((p - 1) / 2) + 1 in
  (x mod p, y mod p)

let default_constant ~p = max 1 (p / 3) mod p

type entry = {
  name : string;
  title : string;
  family : family;
  style : Adder.style;
  make : n:int -> p:int -> Engine.spec;
}

let at_defaults (f : family) style ?x ?y ~mbu ~n ~p b =
  let dx, dy = default_inputs ~p in
  f.build b
    { style; mbu; n; p; a = default_constant ~p;
      x = Option.value x ~default:dx; y = Option.value y ~default:dy }

let emit ?x ?y (e : entry) = at_defaults e.family e.style ?x ?y

let entry name title family_name style =
  let family = family family_name in
  let make ~n ~p =
    let b = Builder.create () in
    spec ~name b (at_defaults family style ~mbu:true ~n ~p b)
  in
  { name; title; family; style; make }

let table1 =
  [ entry "vbe5" "(5 adder) VBE" "modadd-vbe5" Adder.Cdkpm;
    entry "vbe4" "(4 adder) VBE" "modadd-vbe4" Adder.Cdkpm;
    entry "cdkpm" "CDKPM" "modadd" Adder.Cdkpm;
    entry "gidney" "Gidney" "modadd" Adder.Gidney;
    entry "mixed" "CDKPM+Gidney" "modadd-mixed" Adder.Cdkpm;
    entry "draper" "Draper" "modadd" Adder.Draper ]

let const_adders =
  [ entry "modadd-const" "modadd-const (CDKPM)" "modadd-const" Adder.Cdkpm;
    entry "takahashi" "Takahashi" "takahashi" Adder.Vbe ]

let all = table1 @ const_adders

let find name = List.find_opt (fun (e : entry) -> e.name = name) all

let lint (spec : Engine.spec) =
  (* Every catalogue builder allocates its input registers first, so the
     input block is exactly the kept registers' wires: 2n for the
     two-register modadds, n for the constant adders. *)
  let input_qubits =
    List.fold_left (fun acc r -> acc + Register.length r) 0 spec.Engine.keep
  in
  Lint.check ~input_qubits spec.Engine.circuit
