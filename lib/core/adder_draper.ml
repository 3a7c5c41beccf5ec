open Mbu_circuit
open Mbu_bitstring

let phi_add b ~x ~phi_y =
  let n = Register.length x in
  if Register.length phi_y <> n + 1 then
    invalid_arg "Adder_draper.phi_add: length phi_y <> length x + 1";
  for i = 0 to n do
    for j = 0 to min i (n - 1) do
      Builder.cphase b ~control:(Register.get x j) ~target:(Register.get phi_y i)
        (Phase.theta (i - j + 1))
    done
  done

(* Equation (7): qubit i turns by (a mod 2^{i+1}) / 2^{i+1} of a turn, the
   constant's low i+1 bits over 2^{i+1}, or the opposite way when [neg].
   [rotate] emits each nonzero phase; bits of [a] at or above the register
   width turn nothing. *)
let const_phases name ~neg ~a ~phi_y rotate =
  let m = Register.length phi_y in
  if m > 61 then invalid_arg (name ^ ": register too wide");
  let low = ref 0 in
  for i = 0 to m - 1 do
    if i < Bitstring.length a && Bitstring.get a i then low := !low lor (1 lsl i);
    let p = Phase.make ~num:!low ~log2_den:(i + 1) in
    let p = if neg then Phase.neg p else p in
    if not (Phase.is_zero p) then rotate (Register.get phi_y i) p
  done

let phi_add_const b ~a ~phi_y =
  const_phases "Adder_draper.phi_add_const" ~neg:false ~a ~phi_y (Builder.phase b)

let phi_sub_const b ~a ~phi_y =
  const_phases "Adder_draper.phi_add_const" ~neg:true ~a ~phi_y (Builder.phase b)

let c_phi_add_const b ~ctrl ~a ~phi_y =
  const_phases "Adder_draper.c_phi_add_const" ~neg:false ~a ~phi_y (fun q p ->
      Builder.cphase b ~control:ctrl ~target:q p)

let c_phi_sub_const b ~ctrl ~a ~phi_y =
  const_phases "Adder_draper.c_phi_add_const" ~neg:true ~a ~phi_y (fun q p ->
      Builder.cphase b ~control:ctrl ~target:q p)

(* Theorem 2.14: all rotations of Phi_ADD commute, so group the ones
   controlled by x_j, replace their control with AND(ctrl, x_j) held in one
   reusable ancilla, and erase it by MBU after the group. *)
let c_phi_add b ~ctrl ~x ~phi_y =
  let n = Register.length x in
  if Register.length phi_y <> n + 1 then
    invalid_arg "Adder_draper.c_phi_add: length phi_y <> length x + 1";
  Builder.with_ancilla b (fun t ->
      for j = 0 to n - 1 do
        let xj = Register.get x j in
        Logical_and.within b ~c1:ctrl ~c2:xj ~target:t (fun () ->
            for i = j to n do
              Builder.cphase b ~control:t ~target:(Register.get phi_y i)
                (Phase.theta (i - j + 1))
            done)
      done)

let check_add_regs name ~x ~y =
  let n = Register.length x in
  if n = 0 then invalid_arg (name ^ ": empty addend");
  if Register.length y <> n + 1 then invalid_arg (name ^ ": length y <> length x + 1")

let add b ~x ~y =
  check_add_regs "Adder_draper.add" ~x ~y;
  Qft.apply b y;
  phi_add b ~x ~phi_y:y;
  Qft.apply_inverse b y

let add_controlled b ~ctrl ~x ~y =
  check_add_regs "Adder_draper.add_controlled" ~x ~y;
  Qft.apply b y;
  c_phi_add b ~ctrl ~x ~phi_y:y;
  Qft.apply_inverse b y

let add_const b ~a ~y =
  Qft.apply b y;
  phi_add_const b ~a ~phi_y:y;
  Qft.apply_inverse b y

let add_const_controlled b ~ctrl ~a ~y =
  Qft.apply b y;
  c_phi_add_const b ~ctrl ~a ~phi_y:y;
  Qft.apply_inverse b y

(* Proposition 2.26: subtract x from (y padded with a |0> sign qubit) in the
   Fourier basis, read the sign bit, then add x back. *)
let compare b ~x ~y ~target =
  let n = Register.length x in
  if Register.length y <> n then invalid_arg "Adder_draper.compare: unequal lengths";
  Builder.with_ancilla b (fun sign ->
      let ys = Register.extend y sign in
      Qft.apply b ys;
      Builder.emit_adjoint b (fun () -> phi_add b ~x ~phi_y:ys);
      Qft.apply_inverse b ys;
      Builder.cnot b ~control:sign ~target;
      Qft.apply b ys;
      phi_add b ~x ~phi_y:ys;
      Qft.apply_inverse b ys)

(* Proposition 2.36: the sign bit of x - a is 1[x < a]. *)
let compare_const b ~a ~x ~target =
  Builder.with_ancilla b (fun sign ->
      let xs = Register.extend x sign in
      Qft.apply b xs;
      phi_sub_const b ~a ~phi_y:xs;
      Qft.apply_inverse b xs;
      Builder.cnot b ~control:sign ~target;
      Qft.apply b xs;
      phi_add_const b ~a ~phi_y:xs;
      Qft.apply_inverse b xs)

(* Equal-length Phi addition: y and x both m qubits, mod 2^m. *)
let phi_add_equal b ~x ~phi_y =
  let m = Register.length x in
  if Register.length phi_y <> m then
    invalid_arg "Adder_draper.phi_add_equal: unequal lengths";
  for i = 0 to m - 1 do
    for j = 0 to i do
      Builder.cphase b ~control:(Register.get x j) ~target:(Register.get phi_y i)
        (Phase.theta (i - j + 1))
    done
  done

let add_mod b ~x ~y =
  Qft.apply b y;
  phi_add_equal b ~x ~phi_y:y;
  Qft.apply_inverse b y

(* Comparator by constant reading the register's own sign bit. *)
let compare_const_msb b ~a ~x ~target =
  let m = Register.length x in
  Qft.apply b x;
  phi_sub_const b ~a ~phi_y:x;
  Qft.apply_inverse b x;
  Builder.cnot b ~control:(Register.get x (m - 1)) ~target;
  Qft.apply b x;
  phi_add_const b ~a ~phi_y:x;
  Qft.apply_inverse b x

let phi_add_approx b ~cutoff ~x ~phi_y =
  let n = Register.length x in
  if Register.length phi_y <> n + 1 then
    invalid_arg "Adder_draper.phi_add_approx: length phi_y <> length x + 1";
  for i = 0 to n do
    for j = max 0 (i + 1 - cutoff) to min i (n - 1) do
      Builder.cphase b ~control:(Register.get x j) ~target:(Register.get phi_y i)
        (Phase.theta (i - j + 1))
    done
  done

let add_approx b ~cutoff ~x ~y =
  check_add_regs "Adder_draper.add_approx" ~x ~y;
  Qft.apply_approx b ~cutoff y;
  phi_add_approx b ~cutoff ~x ~phi_y:y;
  Qft.apply_approx_inverse b ~cutoff y
