open Mbu_circuit
open Mbu_bitstring

(* The one Phi ladder: x_j turns qubit i of phi_y by theta (i - j + 1) for
   every j <= i below x's width, dropping the rotations finer than
   2 pi / 2^cutoff. *)
let rotations b ~cutoff ~x ~phi_y =
  for i = 0 to Register.length phi_y - 1 do
    for j = max 0 (i + 1 - cutoff) to min i (Register.length x - 1) do
      Builder.cphase b ~control:(Register.get x j) ~target:(Register.get phi_y i)
        (Phase.theta (i - j + 1))
    done
  done

let phi_add b ~x ~phi_y =
  if Register.length phi_y <> Register.length x + 1 then
    invalid_arg "Adder_draper.phi_add: length phi_y <> length x + 1";
  rotations b ~cutoff:max_int ~x ~phi_y

(* Equal-length Phi addition: y and x both m qubits, mod 2^m. *)
let phi_add_equal b ~x ~phi_y =
  if Register.length phi_y <> Register.length x then
    invalid_arg "Adder_draper.phi_add_equal: unequal lengths";
  rotations b ~cutoff:max_int ~x ~phi_y

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

let add b ~x ~y =
  Adder_vbe.check_add_regs "Adder_draper.add" ~x ~y;
  Qft.within b y (fun () -> phi_add b ~x ~phi_y:y)

let add_controlled b ~ctrl ~x ~y =
  Adder_vbe.check_add_regs "Adder_draper.add_controlled" ~x ~y;
  Qft.within b y (fun () -> c_phi_add b ~ctrl ~x ~phi_y:y)

let add_const b ~a ~y = Qft.within b y (fun () -> phi_add_const b ~a ~phi_y:y)

let add_const_controlled b ~ctrl ~a ~y =
  Qft.within b y (fun () -> c_phi_add_const b ~ctrl ~a ~phi_y:y)

let add_mod b ~x ~y = Qft.within b y (fun () -> phi_add_equal b ~x ~phi_y:y)

(* The sign read with its subtraction and its addition each in the Fourier
   basis of the register read. *)
let fourier_sign_read b ~target r ~sub ~add =
  Adder_vbe.sign_read b ~target r
    ~sub:(fun r -> Qft.within b r (fun () -> sub r))
    ~add:(fun r -> Qft.within b r (fun () -> add r))

(* Proposition 2.26: subtract x from (y padded with a |0> sign qubit) in the
   Fourier basis, read the sign bit, then add x back. *)
let compare b ~x ~y ~target =
  if Register.length y <> Register.length x then
    invalid_arg "Adder_draper.compare: unequal lengths";
  Builder.with_ancilla b (fun sign ->
      fourier_sign_read b ~target (Register.extend y sign)
        ~sub:(fun ys -> Builder.emit_adjoint b (fun () -> phi_add b ~x ~phi_y:ys))
        ~add:(fun ys -> phi_add b ~x ~phi_y:ys))

(* Proposition 2.36: the sign bit of x - a is 1[x < a]. *)
let compare_const b ~a ~x ~target =
  Builder.with_ancilla b (fun sign ->
      fourier_sign_read b ~target (Register.extend x sign)
        ~sub:(fun xs -> phi_sub_const b ~a ~phi_y:xs)
        ~add:(fun xs -> phi_add_const b ~a ~phi_y:xs))

(* Comparator by constant reading the register's own sign bit. *)
let compare_const_msb b ~a ~x ~target =
  fourier_sign_read b ~target x
    ~sub:(fun x -> phi_sub_const b ~a ~phi_y:x)
    ~add:(fun x -> phi_add_const b ~a ~phi_y:x)

let add_approx b ~cutoff ~x ~y =
  Adder_vbe.check_add_regs "Adder_draper.add_approx" ~x ~y;
  Qft.apply_approx b ~cutoff y;
  rotations b ~cutoff ~x ~phi_y:y;
  Qft.apply_approx_inverse b ~cutoff y
