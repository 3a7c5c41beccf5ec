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

let modinv ~a ~p =
  let rec egcd a b = if b = 0 then (a, 1, 0)
    else
      let g, s, t = egcd b (a mod b) in
      (g, t, s - (a / b * t))
  in
  let g, s, _ = egcd (((a mod p) + p) mod p) p in
  if g <> 1 then invalid_arg "Mod_mul.modinv: not coprime";
  ((s mod p) + p) mod p

let check_mul name ~p ~x ~target =
  let n = Register.length x in
  if Register.length target <> n then
    Mbu_error.invalid ~subsystem:name "unequal lengths";
  if n <= 0 || n >= 62 || p <= 0 || p lsr n <> 0 then
    Mbu_error.invalid ~subsystem:name "modulus out of range"

(* target += ctrl.a.x mod p: one doubly controlled constant modular addition
   per bit of x, the double control held in a logical-AND ancilla that MBU
   erases for free half the time. *)
let cmult_add engine b ~ctrl ~a ~p ~x ~target =
  check_mul "Mod_mul.cmult_add" ~p ~x ~target;
  Builder.with_span b (Printf.sprintf "cmult[%s]" engine.name) @@ fun () ->
  let n = Register.length x in
  Builder.with_ancilla b (fun g ->
      (* a.2^i mod p by repeated doubling — no overflow for p < 2^61. *)
      let ai = ref (((a mod p) + p) mod p) in
      for i = 0 to n - 1 do
        if !ai <> 0 then begin
          let xi = Register.get x i in
          Logical_and.compute b ~c1:ctrl ~c2:xi ~target:g;
          engine.c_modadd_const b ~ctrl:g ~p ~a:!ai ~x:target;
          Logical_and.uncompute b ~c1:ctrl ~c2:xi ~target:g
        end;
        ai := !ai * 2 mod p
      done)

let cmult_sub engine b ~ctrl ~a ~p ~x ~target =
  check_mul "Mod_mul.cmult_add" ~p ~x ~target;
  cmult_add engine b ~ctrl ~a:((p - (a mod p)) mod p) ~p ~x ~target

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

let cmult_inplace engine b ~ctrl ~a ~p ~x =
  Builder.with_span b (Printf.sprintf "cmult_inplace[%s]" engine.name) @@ fun () ->
  let n = Register.length x in
  let a = ((a mod p) + p) mod p in
  let a_inv = modinv ~a ~p in
  Builder.with_ancilla_register b "mul" n (fun t ->
      cmult_add engine b ~ctrl ~a ~p ~x ~target:t;
      controlled_swap b ~ctrl ~x ~t;
      cmult_sub engine b ~ctrl ~a:a_inv ~p ~x ~target:t)

let modexp engine b ~a ~p ~e ~x =
  if p >= 1 lsl 31 then
    invalid_arg "Mod_mul.modexp: modulus too large for exact squaring";
  Builder.with_span b (Printf.sprintf "modexp[%s]" engine.name) @@ fun () ->
  let a = ((a mod p) + p) mod p in
  let ak = ref a in
  for j = 0 to Register.length e - 1 do
    cmult_inplace engine b ~ctrl:(Register.get e j) ~a:!ak ~p ~x;
    ak := !ak * !ak mod p
  done

let cmult_add_windowed ?(window = 2) ?(mbu = true) spec b ~ctrl ~a ~p ~x ~target =
  check_mul "Mod_mul.cmult_add_windowed" ~p ~x ~target;
  if window < 1 || window > 10 then
    invalid_arg "Mod_mul.cmult_add_windowed: window out of range";
  Builder.with_span b
    (Printf.sprintf "cmult_win%d[%s]%s" window (Mod_add.spec_name spec)
       (if mbu then "+mbu" else ""))
  @@ fun () ->
  let n = Register.length x in
  let a = ((a mod p) + p) mod p in
  (* a.2^i mod p by repeated doubling *)
  let shifted = Array.make (n + 1) a in
  for i = 1 to n do
    shifted.(i) <- shifted.(i - 1) * 2 mod p
  done;
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
  let n = Register.length x in
  let ai = ref (((a mod p) + p) mod p) in
  for i = 0 to n - 1 do
    if !ai <> 0 then
      engine.c_modadd_const b ~ctrl:(Register.get x i) ~p ~a:!ai ~x:target;
    ai := !ai * 2 mod p
  done

let mult_inplace engine b ~a ~p ~x =
  Builder.with_span b (Printf.sprintf "mult_inplace[%s]" engine.name) @@ fun () ->
  let n = Register.length x in
  let a = ((a mod p) + p) mod p in
  let a_inv = modinv ~a ~p in
  Builder.with_ancilla_register b "mul" n (fun t ->
      mult_add engine b ~a ~p ~x ~target:t;
      (* swap x and t, then clear t = x_old via the inverse multiplier *)
      for i = 0 to n - 1 do
        Builder.swap b (Register.get x i) (Register.get t i)
      done;
      mult_add engine b ~a:((p - (a_inv mod p)) mod p) ~p ~x ~target:t)

let mul_register engine b ~x ~y ~p ~target =
  check_mul "Mod_mul.mul_register" ~p ~x ~target;
  if Register.length y <> Register.length x then
    invalid_arg "Mod_mul.mul_register: unequal lengths";
  Builder.with_span b (Printf.sprintf "mul_register[%s]" engine.name) @@ fun () ->
  let n = Register.length x in
  Builder.with_ancilla b (fun g ->
      let wi = ref 1 in
      for i = 0 to n - 1 do
        let wj = ref !wi in
        for j = 0 to n - 1 do
          if !wj <> 0 then begin
            let xi = Register.get x i and yj = Register.get y j in
            Logical_and.compute b ~c1:xi ~c2:yj ~target:g;
            engine.c_modadd_const b ~ctrl:g ~p ~a:!wj ~x:target;
            Logical_and.uncompute b ~c1:xi ~c2:yj ~target:g
          end;
          wj := !wj * 2 mod p
        done;
        wi := !wi * 2 mod p
      done)

(* target += x^2 mod p: pairs (i, j) with i < j contribute 2^{i+j+1} under
   the AND of both bits; the diagonal contributes 2^{2i} under x_i alone. *)
let square_register engine b ~x ~p ~target =
  check_mul "Mod_mul.square_register" ~p ~x ~target;
  Builder.with_span b (Printf.sprintf "square[%s]" engine.name) @@ fun () ->
  let n = Register.length x in
  let pow2 k =
    let rec go acc k = if k = 0 then acc else go (acc * 2 mod p) (k - 1) in
    go (1 mod p) k
  in
  for i = 0 to n - 1 do
    let d = pow2 (2 * i) in
    if d <> 0 then
      engine.c_modadd_const b ~ctrl:(Register.get x i) ~p ~a:d ~x:target
  done;
  Builder.with_ancilla b (fun g ->
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let d = pow2 (i + j + 1) in
          if d <> 0 then begin
            let xi = Register.get x i and xj = Register.get x j in
            Logical_and.compute b ~c1:xi ~c2:xj ~target:g;
            engine.c_modadd_const b ~ctrl:g ~p ~a:d ~x:target;
            Logical_and.uncompute b ~c1:xi ~c2:xj ~target:g
          end
        done
      done)

let cmult_inplace_windowed ?window spec b ~ctrl ~a ~p ~x =
  Builder.with_span b "cmult_inplace_win" @@ fun () ->
  let n = Register.length x in
  let a = ((a mod p) + p) mod p in
  let a_inv = modinv ~a ~p in
  Builder.with_ancilla_register b "mul" n (fun t ->
      cmult_add_windowed ?window spec b ~ctrl ~a ~p ~x ~target:t;
      controlled_swap b ~ctrl ~x ~t;
      cmult_add_windowed ?window spec b ~ctrl ~a:((p - a_inv) mod p) ~p ~x
        ~target:t)

let modexp_windowed ?window spec b ~a ~p ~e ~x =
  if p >= 1 lsl 31 then
    invalid_arg "Mod_mul.modexp_windowed: modulus too large for exact squaring";
  Builder.with_span b "modexp_win" @@ fun () ->
  let a = ((a mod p) + p) mod p in
  let ak = ref a in
  for j = 0 to Register.length e - 1 do
    cmult_inplace_windowed ?window spec b ~ctrl:(Register.get e j) ~a:!ak ~p ~x;
    ak := !ak * !ak mod p
  done
