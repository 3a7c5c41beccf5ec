open Mbu_circuit

(* The one prefix-AND ladder. Carries of v + 1: c_0 = 1, c_1 = y_0,
   c_{i+1} = c_i AND y_i; the first carry held in an ancilla, c_lo, is
   AND(c1, c2) and each later one AND(c_{i-1}, y_{i-1}), up to c_{m-1}.
   The flips y_i <- y_i XOR c_i then run from the top down, erasing each
   prefix AND just after its use, while the lower bits still hold their
   original values. *)
let ladder b y ~lo ~c1 ~c2 =
  let m = Register.length y and yq = Register.get y in
  let t = Array.make m (-1) in
  let ands i = if i = lo then (c1, c2) else (t.(i - 1), yq (i - 1)) in
  for i = lo to m - 1 do
    t.(i) <- Builder.alloc_ancilla b;
    let c1, c2 = ands i in
    Logical_and.compute b ~c1 ~c2 ~target:t.(i)
  done;
  for i = m - 1 downto lo do
    Builder.cnot b ~control:t.(i) ~target:(yq i);
    let c1, c2 = ands i in
    Logical_and.uncompute b ~c1 ~c2 ~target:t.(i);
    Builder.free_ancilla b t.(i)
  done

(* c_2 = y_0 AND y_1 is the first ancilla carry; y_1 flips by c_1 = y_0. *)
let apply b y =
  let m = Register.length y in
  let yq = Register.get y in
  if m = 0 then invalid_arg "Increment.apply: empty register";
  Builder.with_span b "increment" @@ fun () ->
  if m >= 2 then begin
    ladder b y ~lo:2 ~c1:(yq 0) ~c2:(yq 1);
    Builder.cnot b ~control:(yq 0) ~target:(yq 1)
  end;
  Builder.x b (yq 0)

let apply_decrement b y =
  Adder_vbe.complement b y;
  apply b y;
  Adder_vbe.complement b y

(* Controlled version: c_1 = ctrl AND y_0 and the final flip of y_0 becomes
   a CNOT from the control. *)
let apply_controlled b ~ctrl y =
  let m = Register.length y in
  if m = 0 then invalid_arg "Increment.apply_controlled: empty register";
  Builder.with_span b "cincrement" @@ fun () ->
  ladder b y ~lo:1 ~c1:ctrl ~c2:(Register.get y 0);
  Builder.cnot b ~control:ctrl ~target:(Register.get y 0)

let apply_decrement_controlled b ~ctrl y =
  Adder_vbe.complement b y;
  apply_controlled b ~ctrl y;
  Adder_vbe.complement b y
