open Mbu_circuit

(* Carry recursion via the logical-AND (figure 12): with c_0 = 0 and t_i the
   ancilla holding carry c_{i+1},

     c_{i+1} = c_i XOR ((x_i XOR c_i) AND (y_i XOR c_i)).

   Compute block for position i:
     CNOT(c_i -> x_i); CNOT(c_i -> y_i); AND(x_i, y_i -> t_i); CNOT(c_i -> t_i)
   (the CNOTs are skipped at i = 0 where c_0 = 0). Between compute and
   uncompute, wire x_i holds x_i XOR c_i and wire y_i holds y_i XOR c_i, so
   the sum bit is s_i = (y_i-wire) XOR x_i once x_i is restored. *)

let compute_block b ~c_in ~x ~y ~t =
  (match c_in with
  | Some c ->
      Builder.cnot b ~control:c ~target:x;
      Builder.cnot b ~control:c ~target:y
  | None -> ());
  Logical_and.compute b ~c1:x ~c2:y ~target:t;
  match c_in with
  | Some c -> Builder.cnot b ~control:c ~target:t
  | None -> ()

(* Erase t (holding c_{i+1}) by MBU; wires x, y must still hold the XORed
   values from compute time. *)
let erase_carry b ~c_in ~x ~y ~t =
  (match c_in with
  | Some c -> Builder.cnot b ~control:c ~target:t
  | None -> ());
  Logical_and.uncompute b ~c1:x ~c2:y ~target:t

(* The one carry ladder: carries c_1 .. c_k computed up into fresh ancillas
   (c_{i+1} in t.(i)), [middle] with the top carry c_k (None when k = 0),
   then at each position from k-1 down to 0 the carry erased by MBU and
   [down c_i i]. *)
let ladder b ~x ~y k ~middle ~down =
  let xq = Register.get x and yq = Register.get y in
  let t = Array.init k (fun _ -> Builder.alloc_ancilla b) in
  let c i = if i = 0 then None else Some t.(i - 1) in
  for i = 0 to k - 1 do
    compute_block b ~c_in:(c i) ~x:(xq i) ~y:(yq i) ~t:t.(i)
  done;
  middle (c k);
  for i = k - 1 downto 0 do
    erase_carry b ~c_in:(c i) ~x:(xq i) ~y:(yq i) ~t:t.(i);
    down (c i) i
  done;
  Array.iter (Builder.free_ancilla b) (Array.init k (fun i -> t.(k - 1 - i)))

(* With x_i restored: s_i = (y_i-wire) XOR x_i. *)
let restore_and_sum b ~x ~y c i =
  Option.iter (fun c -> Builder.cnot b ~control:c ~target:(Register.get x i)) c;
  Builder.cnot b ~control:(Register.get x i) ~target:(Register.get y i)

let add b ~x ~y =
  Adder_vbe.check_add_regs "Adder_gidney.add" ~x ~y;
  let n = Register.length x in
  (* Carries c_1 .. c_{n-1} into ancillas, c_n straight into the sum's top
     qubit y_n, then the "two additional CNOTs": restore x_{n-1}, write
     s_{n-1}. At n = 1 the ladder is empty: one logical-AND into y_1 and
     one CNOT. *)
  ladder b ~x ~y (n - 1) ~down:(restore_and_sum b ~x ~y) ~middle:(fun c ->
      compute_block b ~c_in:c ~x:(Register.get x (n - 1)) ~y:(Register.get y (n - 1))
        ~t:(Register.get y n);
      restore_and_sum b ~x ~y c (n - 1))

let add_controlled b ~ctrl ~x ~y =
  Adder_vbe.check_add_regs "Adder_gidney.add_controlled" ~x ~y;
  let n = Register.length x in
  (* Carries are computed unconditionally, including c_n into an ancilla;
     only the copies into y are controlled (figure 15). *)
  ladder b ~x ~y n
    ~middle:(fun c -> Builder.toffoli b ~c1:ctrl ~c2:(Option.get c) ~target:(Register.get y n))
    ~down:(fun c i ->
      (* wires: x_i XOR c_i, y_i XOR c_i. Conditionally fold x XOR c into y,
         restore x, then fold c back out of y:
         y := y XOR c XOR ctrl.(x XOR c) XOR c = ctrl ? s_i : y_i. *)
      let xi = Register.get x i and yi = Register.get y i in
      Builder.toffoli b ~c1:ctrl ~c2:xi ~target:yi;
      Option.iter
        (fun c ->
          Builder.cnot b ~control:c ~target:xi;
          Builder.cnot b ~control:c ~target:yi)
        c)

let compare_gen b ?ctrl ~x ~y ~target () =
  let n = Register.length x in
  if Register.length y <> n then invalid_arg "Adder_gidney.compare: unequal lengths";
  if n = 0 then invalid_arg "Adder_gidney.compare: empty register";
  (* Top carry of x + NOT(y) equals 1[x > y]; compute the carry ladder, copy
     the top carry out, then erase every carry by MBU (no Toffoli on the way
     down). *)
  Adder_vbe.complement b y;
  ladder b ~x ~y n
    ~middle:(fun c ->
      let top = Option.get c in
      match ctrl with
      | None -> Builder.cnot b ~control:top ~target
      | Some ctrl -> Builder.toffoli b ~c1:ctrl ~c2:top ~target)
    ~down:(fun c i ->
      Option.iter
        (fun c ->
          Builder.cnot b ~control:c ~target:(Register.get y i);
          Builder.cnot b ~control:c ~target:(Register.get x i))
        c);
  Adder_vbe.complement b y

let compare b ~x ~y ~target = compare_gen b ~x ~y ~target ()
let compare_controlled b ~ctrl ~x ~y ~target = compare_gen b ~ctrl ~x ~y ~target ()

(* Equal-length addition modulo 2^m (no overflow qubit): the top carry is
   not produced, so s_{m-1} needs two CNOTs; at m = 1 the ladder is empty
   and only the CNOT from x_0 remains. *)
let add_mod b ~x ~y =
  let m = Register.length x in
  if Register.length y <> m then invalid_arg "Adder_gidney.add_mod: unequal lengths";
  if m = 0 then invalid_arg "Adder_gidney.add_mod: empty register";
  let yt = Register.get y (m - 1) in
  ladder b ~x ~y (m - 1) ~down:(restore_and_sum b ~x ~y) ~middle:(fun c ->
      Option.iter (fun c -> Builder.cnot b ~control:c ~target:yt) c;
      Builder.cnot b ~control:(Register.get x (m - 1)) ~target:yt)
