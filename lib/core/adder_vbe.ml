open Mbu_circuit

let carry b ~c_in ~x ~y ~c_out =
  Builder.toffoli b ~c1:x ~c2:y ~target:c_out;
  Builder.cnot b ~control:x ~target:y;
  Builder.toffoli b ~c1:c_in ~c2:y ~target:c_out

let carry_adjoint b ~c_in ~x ~y ~c_out =
  Builder.toffoli b ~c1:c_in ~c2:y ~target:c_out;
  Builder.cnot b ~control:x ~target:y;
  Builder.toffoli b ~c1:x ~c2:y ~target:c_out

let sum b ~c_in ~x ~y =
  Builder.cnot b ~control:x ~target:y;
  Builder.cnot b ~control:c_in ~target:y

let check_add_regs name ~x ~y =
  let n = Register.length x in
  if n = 0 then invalid_arg (name ^ ": empty addend");
  if Register.length y <> n + 1 then invalid_arg (name ^ ": length y <> length x + 1")

let complement b r = Array.iter (fun q -> Builder.x b q) (Register.qubits r)

let sign_read b ~target r ~sub ~add =
  sub r;
  Builder.cnot b ~control:(Register.get r (Register.length r - 1)) ~target;
  add r

(* The one carry ladder. CARRY up positions 0 .. k-1, carry c_{i+1} into
   [cq (i + 1)]; then [middle]; then CARRY† and SUM down from k-1 to 0. *)
let carries_up b ~cq ~x ~y k =
  for i = 0 to k - 1 do
    carry b ~c_in:(cq i) ~x:(Register.get x i) ~y:(Register.get y i) ~c_out:(cq (i + 1))
  done

let ladder b ~cq ~x ~y k middle =
  carries_up b ~cq ~x ~y k;
  middle ();
  for i = k - 1 downto 0 do
    carry_adjoint b ~c_in:(cq i) ~x:(Register.get x i) ~y:(Register.get y i)
      ~c_out:(cq (i + 1));
    sum b ~c_in:(cq i) ~x:(Register.get x i) ~y:(Register.get y i)
  done

let add b ~x ~y =
  let n = Register.length x in
  (* The length before the emptiness, unlike [check_add_regs]: each entry
     keeps the error its callers see. *)
  if Register.length y <> n + 1 then invalid_arg "Adder_vbe.add: length y <> length x + 1";
  if n = 0 then invalid_arg "Adder_vbe.add: empty addend";
  Builder.with_ancilla_register b "c" n (fun c ->
      let cq = Register.get c and xt = Register.get x (n - 1) and yt = Register.get y (n - 1) in
      ladder b ~cq ~x ~y (n - 1) (fun () ->
          (* The top carry goes directly into y_n; undo the in-carry CNOT
             on y_{n-1}, then write s_{n-1}. *)
          carry b ~c_in:(cq (n - 1)) ~x:xt ~y:yt ~c_out:(Register.get y n);
          Builder.cnot b ~control:xt ~target:yt;
          sum b ~c_in:(cq (n - 1)) ~x:xt ~y:yt))

let carry_chain b ~x ~y ~carries =
  let n = Register.length x in
  if Register.length y <> n then invalid_arg "Adder_vbe.carry_chain: unequal lengths";
  if Register.length carries <> n + 1 then
    invalid_arg "Adder_vbe.carry_chain: carries must have n+1 qubits";
  carries_up b ~cq:(Register.get carries) ~x ~y n

let compare b ~x ~y ~target =
  let n = Register.length x in
  if Register.length y <> n then invalid_arg "Adder_vbe.compare: unequal lengths";
  (* The top carry of x + NOT(y) is 1 iff x > y (see proposition 2.27's
     discussion: x + (2^n - 1 - y) >= 2^n iff x > y). *)
  Builder.with_ancilla_register b "cc" (n + 1) (fun carries ->
      complement b y;
      carry_chain b ~x ~y ~carries;
      Builder.cnot b ~control:(Register.get carries n) ~target;
      Builder.emit_adjoint b (fun () -> carry_chain b ~x ~y ~carries);
      complement b y)

(* Equal-length addition modulo 2^m: the top carry is not produced, so the
   top bit needs only two CNOTs. *)
let add_mod b ~x ~y =
  let m = Register.length x in
  if Register.length y <> m then invalid_arg "Adder_vbe.add_mod: unequal lengths";
  if m = 0 then invalid_arg "Adder_vbe.add_mod: empty register";
  if m = 1 then
    Builder.cnot b ~control:(Register.get x 0) ~target:(Register.get y 0)
  else
    Builder.with_ancilla_register b "c" (m - 1) (fun c ->
        (* c.(i-1) holds carry c_i for 1 <= i <= m-1; c_0 = 0 implicit. *)
        Builder.with_ancilla b (fun c0 ->
            let cq i = if i = 0 then c0 else Register.get c (i - 1) in
            let yt = Register.get y (m - 1) in
            ladder b ~cq ~x ~y (m - 1) (fun () ->
                Builder.cnot b ~control:(cq (m - 1)) ~target:yt;
                Builder.cnot b ~control:(Register.get x (m - 1)) ~target:yt)))
