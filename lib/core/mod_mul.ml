open Mbu_circuit

type engine = {
  name : string;
  c_modadd_const :
    Builder.t -> ctrl:Gate.qubit -> p:int -> a:int -> x:Register.t -> unit;
}

let ripple_engine ?(mbu = true) spec =
  { name =
      Printf.sprintf "%s%s" (Mod_add.spec_name spec) (if mbu then "+mbu" else "");
    c_modadd_const =
      (fun b ~ctrl ~p ~a ~x -> Mod_add.modadd_const_controlled ~mbu spec b ~ctrl ~p ~a ~x) }

let draper_engine ?(mbu = true) () =
  { name = Printf.sprintf "draper%s" (if mbu then "+mbu" else "");
    c_modadd_const =
      (fun b ~ctrl ~p ~a ~x ->
        Mod_add.modadd_const_controlled_draper ~mbu b ~ctrl ~p ~a ~x) }

let engine_name e = e.name

let pmod a p = ((a mod p) + p) mod p

let modinv ~a ~p =
  let rec egcd a b = if b = 0 then (a, 1, 0)
    else
      let g, s, t = egcd b (a mod b) in
      (g, t, s - (a / b * t))
  in
  let g, s, _ = egcd (pmod a p) p in
  if g <> 1 then invalid_arg "Mod_mul.modinv: not coprime";
  pmod s p

let check_modulus name ~p ~n =
  if n <= 0 || n >= 62 || p <= 0 || p lsr n <> 0 then
    Mbu_error.invalid ~subsystem:name "modulus out of range"

let check_mul name ~p ~x ~target =
  if Register.length target <> Register.length x then
    Mbu_error.invalid ~subsystem:name "unequal lengths";
  check_modulus name ~p ~n:(Register.length x)

(* a^{-1} mod p for an in-place multiplier, checked at its own entry. *)
let unit_inverse name ~a ~p =
  match modinv ~a ~p with
  | inv -> inv
  | exception Invalid_argument _ ->
      Mbu_error.invalid ~subsystem:name
        (Printf.sprintf "%d is not invertible modulo %d" a p)

(* [f i (w.2^i mod p)] for each i < n whose weight is nonzero: the repeated
   doubling that gives every shift-and-add multiplier its constants, with
   no overflow for p < 2^61. Once a weight is 0 it stays 0. *)
let doubling ~p ~n w f =
  let w = ref w in
  for i = 0 to n - 1 do
    if !w <> 0 then f i !w;
    w := !w * 2 mod p
  done

(* target += ctrl.a.x mod p: one doubly controlled constant modular addition
   per bit of x, the double control held in a logical-AND ancilla that MBU
   erases for free half the time. *)
let cmult_add engine b ~ctrl ~a ~p ~x ~target =
  check_mul "Mod_mul.cmult_add" ~p ~x ~target;
  Builder.with_span b (Printf.sprintf "cmult[%s]" engine.name) @@ fun () ->
  Builder.with_ancilla b (fun g ->
      doubling ~p ~n:(Register.length x) (pmod a p) (fun i ai ->
          Logical_and.within b ~c1:ctrl ~c2:(Register.get x i) ~target:g
            (fun () -> engine.c_modadd_const b ~ctrl:g ~p ~a:ai ~x:target)))

let cmult_sub engine b ~ctrl ~a ~p ~x ~target =
  check_mul "Mod_mul.cmult_sub" ~p ~x ~target;
  cmult_add engine b ~ctrl ~a:(pmod (-a) p) ~p ~x ~target

let controlled_swap b ~ctrl ~x ~t =
  (* Shared: modexp swaps the same register pair under a different control
     each round, but for a fixed (ctrl, x, t) wire triple — e.g. the two
     swaps inside one cmult_inplace round — the ladder is one node. *)
  Builder.with_shared b "cswap_reg" @@ fun () ->
  for i = 0 to Register.length x - 1 do
    let xi = Register.get x i and ti = Register.get t i in
    Builder.cnot b ~control:ti ~target:xi;
    Builder.toffoli b ~c1:ctrl ~c2:xi ~target:ti;
    Builder.cnot b ~control:ti ~target:xi
  done

(* x <- a.x mod p in place: [mac ~a ~target] multiplies x into a fresh
   register, [swap] exchanges it with x, and the same multiplier by
   -a^{-1} clears it (it now holds the old x). *)
let inplace b name ~label ~a ~p ~x ~mac ~swap =
  let n = Register.length x in
  check_modulus name ~p ~n;
  let a_inv = unit_inverse name ~a ~p in
  Builder.with_span b label @@ fun () ->
  Builder.with_ancilla_register b "mul" n (fun t ->
      mac ~a:(pmod a p) ~target:t;
      swap t;
      mac ~a:(pmod (-a_inv) p) ~target:t)

(* x <- x.a^e mod p: one in-place multiplication by a^{2^j} mod p under
   each exponent bit e_j. *)
let ladder b name ~label ~a ~p ~e ~x ~mul =
  check_modulus name ~p ~n:(Register.length x);
  if p >= 1 lsl 31 then
    Mbu_error.invalid ~subsystem:name "modulus too large for exact squaring";
  ignore (unit_inverse name ~a ~p);
  Builder.with_span b label @@ fun () ->
  let ak = ref (pmod a p) in
  for j = 0 to Register.length e - 1 do
    mul ~ctrl:(Register.get e j) ~a:!ak;
    ak := !ak * !ak mod p
  done

let cmult_inplace engine b ~ctrl ~a ~p ~x =
  inplace b "Mod_mul.cmult_inplace"
    ~label:(Printf.sprintf "cmult_inplace[%s]" engine.name) ~a ~p ~x
    ~mac:(fun ~a ~target -> cmult_add engine b ~ctrl ~a ~p ~x ~target)
    ~swap:(fun t -> controlled_swap b ~ctrl ~x ~t)

let modexp engine b ~a ~p ~e ~x =
  ladder b "Mod_mul.modexp" ~label:(Printf.sprintf "modexp[%s]" engine.name)
    ~a ~p ~e ~x ~mul:(fun ~ctrl ~a -> cmult_inplace engine b ~ctrl ~a ~p ~x)

let cmult_add_windowed ?(window = 2) ?(mbu = true) spec b ~ctrl ~a ~p ~x ~target =
  check_mul "Mod_mul.cmult_add_windowed" ~p ~x ~target;
  if window < 1 || window > 10 then
    invalid_arg "Mod_mul.cmult_add_windowed: window out of range";
  Builder.with_span b
    (Printf.sprintf "cmult_win%d[%s]%s" window (Mod_add.spec_name spec)
       (if mbu then "+mbu" else ""))
  @@ fun () ->
  let n = Register.length x in
  let shifted = Array.make n 0 in
  doubling ~p ~n (pmod a p) (fun i ai -> shifted.(i) <- ai);
  Builder.with_ancilla_register b "win" n (fun temp ->
      let i = ref 0 in
      while !i < n do
        let w = min window (n - !i) in
        (* address = ctrl : window bits (ctrl is the most significant) *)
        let addr =
          Register.extend (Register.sub x ~pos:!i ~len:w) ctrl
        in
        let data =
          Array.init (1 lsl (w + 1)) (fun idx ->
              if idx lsr w = 0 then 0
              else
                let u = idx land ((1 lsl w) - 1) in
                let rec acc j v =
                  if j >= w then v
                  else
                    acc (j + 1)
                      (if (u lsr j) land 1 = 1 then (v + shifted.(!i + j)) mod p
                       else v)
                in
                acc 0 0)
        in
        Qrom.lookup b ~address:addr ~target:temp ~data;
        Mod_add.modadd ~mbu spec b ~p ~x:temp ~y:target;
        Qrom.unlookup b ~address:addr ~target:temp ~data;
        i := !i + w
      done)

let mult_add engine b ~a ~p ~x ~target =
  check_mul "Mod_mul.mult_add" ~p ~x ~target;
  Builder.with_span b (Printf.sprintf "mult_add[%s]" engine.name) @@ fun () ->
  doubling ~p ~n:(Register.length x) (pmod a p) (fun i ai ->
      engine.c_modadd_const b ~ctrl:(Register.get x i) ~p ~a:ai ~x:target)

let mult_inplace engine b ~a ~p ~x =
  inplace b "Mod_mul.mult_inplace"
    ~label:(Printf.sprintf "mult_inplace[%s]" engine.name) ~a ~p ~x
    ~mac:(fun ~a ~target -> mult_add engine b ~a ~p ~x ~target)
    ~swap:(fun t ->
      for i = 0 to Register.length x - 1 do
        Builder.swap b (Register.get x i) (Register.get t i)
      done)

let mul_register engine b ~x ~y ~p ~target =
  check_mul "Mod_mul.mul_register" ~p ~x ~target;
  if Register.length y <> Register.length x then
    invalid_arg "Mod_mul.mul_register: unequal lengths";
  Builder.with_span b (Printf.sprintf "mul_register[%s]" engine.name) @@ fun () ->
  let n = Register.length x in
  Builder.with_ancilla b (fun g ->
      doubling ~p ~n (1 mod p) (fun i wi ->
          doubling ~p ~n wi (fun j wij ->
              let xi = Register.get x i and yj = Register.get y j in
              Logical_and.within b ~c1:xi ~c2:yj ~target:g (fun () ->
                  engine.c_modadd_const b ~ctrl:g ~p ~a:wij ~x:target))))

(* target += x^2 mod p: pairs (i, j) with i < j contribute 2^{i+j+1} under
   the AND of both bits; the diagonal contributes 2^{2i} under x_i alone. *)
let square_register engine b ~x ~p ~target =
  check_mul "Mod_mul.square_register" ~p ~x ~target;
  Builder.with_span b (Printf.sprintf "square[%s]" engine.name) @@ fun () ->
  let n = Register.length x in
  let pow2 = Array.make (2 * n) 0 in
  doubling ~p ~n:(2 * n) (1 mod p) (fun k w -> pow2.(k) <- w);
  for i = 0 to n - 1 do
    let d = pow2.(2 * i) in
    if d <> 0 then
      engine.c_modadd_const b ~ctrl:(Register.get x i) ~p ~a:d ~x:target
  done;
  Builder.with_ancilla b (fun g ->
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let d = pow2.(i + j + 1) in
          if d <> 0 then begin
            let xi = Register.get x i and xj = Register.get x j in
            Logical_and.within b ~c1:xi ~c2:xj ~target:g (fun () ->
                engine.c_modadd_const b ~ctrl:g ~p ~a:d ~x:target)
          end
        done
      done)

let modexp_windowed ?window spec b ~a ~p ~e ~x =
  let cmult_inplace ~ctrl ~a =
    inplace b "Mod_mul.modexp_windowed" ~label:"cmult_inplace_win" ~a ~p ~x
      ~mac:(fun ~a ~target ->
        cmult_add_windowed ?window spec b ~ctrl ~a ~p ~x ~target)
      ~swap:(fun t -> controlled_swap b ~ctrl ~x ~t)
  in
  ladder b "Mod_mul.modexp_windowed" ~label:"modexp_win" ~a ~p ~e ~x
    ~mul:cmult_inplace
