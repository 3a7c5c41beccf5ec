open Mbu_circuit

let maj b ~c ~y ~x =
  Builder.cnot b ~control:x ~target:y;
  Builder.cnot b ~control:x ~target:c;
  Builder.toffoli b ~c1:c ~c2:y ~target:x

let uma b ~c ~y ~x =
  Builder.toffoli b ~c1:c ~c2:y ~target:x;
  Builder.cnot b ~control:x ~target:c;
  Builder.cnot b ~control:c ~target:y

let uma_3cnot b ~c ~y ~x =
  Builder.x b y;
  Builder.cnot b ~control:c ~target:y;
  Builder.toffoli b ~c1:c ~c2:y ~target:x;
  Builder.x b y;
  Builder.cnot b ~control:x ~target:c;
  Builder.cnot b ~control:x ~target:y

let c_uma b ~ctrl ~c ~y ~x =
  (* After MAJ the wires hold (c XOR x, y XOR x, maj). Restoring x first and
     then selecting which of c / x to add into y costs two Toffoli:
       TOF(c-wire, y-wire -> x-wire)   restores x
       TOF(ctrl, c-wire -> y-wire)     y-wire := y XOR x XOR ctrl.(c XOR x)
       CNOT(x-wire -> c-wire)          restores c
       CNOT(x-wire -> y-wire)          y-wire := ctrl ? y XOR x XOR c : y *)
  Builder.toffoli b ~c1:c ~c2:y ~target:x;
  Builder.toffoli b ~c1:ctrl ~c2:c ~target:y;
  Builder.cnot b ~control:x ~target:c;
  Builder.cnot b ~control:x ~target:y

let maj_adjoint b ~c ~y ~x =
  Builder.toffoli b ~c1:c ~c2:y ~target:x;
  Builder.cnot b ~control:x ~target:c;
  Builder.cnot b ~control:x ~target:y

(* The one carry ladder: MAJ up positions 0 .. k-1, [middle] on the top
   carry's wire, then [down] at each position from k-1 to 0. The carry into
   position i rides on the x_{i-1} wire; c_0 is an ancilla. *)
let ladder b ~x ~y k ~middle ~down =
  Builder.with_ancilla b (fun c0 ->
      let carry i = if i = 0 then c0 else Register.get x (i - 1) in
      for i = 0 to k - 1 do
        maj b ~c:(carry i) ~y:(Register.get y i) ~x:(Register.get x i)
      done;
      middle (carry k);
      for i = k - 1 downto 0 do
        down b ~c:(carry i) ~y:(Register.get y i) ~x:(Register.get x i)
      done)

(* The plain ladder over all n positions, the top carry copied into y_n. *)
let add_with name ~down b ~x ~y =
  Adder_vbe.check_add_regs name ~x ~y;
  let n = Register.length x in
  ladder b ~x ~y n ~down ~middle:(fun top ->
      Builder.cnot b ~control:top ~target:(Register.get y n))

let add = add_with "Adder_cdkpm.add" ~down:uma
let add_3cnot = add_with "Adder_cdkpm.add_3cnot" ~down:uma_3cnot

let add_controlled b ~ctrl ~x ~y =
  Adder_vbe.check_add_regs "Adder_cdkpm.add_controlled" ~x ~y;
  let n = Register.length x in
  (* The copy of the top carry into y_n must itself be controlled. *)
  ladder b ~x ~y n ~down:(c_uma ~ctrl) ~middle:(fun top ->
      Builder.toffoli b ~c1:ctrl ~c2:top ~target:(Register.get y n))

(* Comparator: the top carry of x + NOT(y) equals 1[x > y]. The MAJ chain
   plays the role of "half" an (adjoint) subtractor; the UMA-free descent is
   just the adjoint MAJ chain (figure 21). *)
let compare_gen b ?ctrl ~x ~y ~target () =
  let n = Register.length x in
  if Register.length y <> n then invalid_arg "Adder_cdkpm.compare: unequal lengths";
  if n = 0 then invalid_arg "Adder_cdkpm.compare: empty register";
  Adder_vbe.complement b y;
  ladder b ~x ~y n ~down:maj_adjoint ~middle:(fun top ->
      match ctrl with
      | None -> Builder.cnot b ~control:top ~target
      | Some ctrl -> Builder.toffoli b ~c1:ctrl ~c2:top ~target);
  Adder_vbe.complement b y

let compare b ~x ~y ~target = compare_gen b ~x ~y ~target ()

let compare_controlled b ~ctrl ~x ~y ~target =
  compare_gen b ~ctrl ~x ~y ~target ()

(* Equal-length addition modulo 2^m: the top carry is not produced, so the
   top bit needs only two CNOTs (s_{m-1} = x XOR y XOR c). *)
let add_mod b ~x ~y =
  let m = Register.length x in
  if Register.length y <> m then invalid_arg "Adder_cdkpm.add_mod: unequal lengths";
  if m = 0 then invalid_arg "Adder_cdkpm.add_mod: empty register";
  let yt = Register.get y (m - 1) in
  if m = 1 then Builder.cnot b ~control:(Register.get x 0) ~target:yt
  else
    ladder b ~x ~y (m - 1) ~down:uma ~middle:(fun top ->
        Builder.cnot b ~control:top ~target:yt;
        Builder.cnot b ~control:(Register.get x (m - 1)) ~target:yt)
