open Mbu_circuit
open Mbu_bitstring

type spec = {
  q_add : Adder.style;
  q_comp_const : Adder.style;
  c_q_sub_const : Adder.style;
  q_comp : Adder.style;
}

let spec_cdkpm =
  { q_add = Cdkpm; q_comp_const = Cdkpm; c_q_sub_const = Cdkpm; q_comp = Cdkpm }

let spec_gidney =
  { q_add = Gidney; q_comp_const = Gidney; c_q_sub_const = Gidney; q_comp = Gidney }

(* Theorem 3.6: Gidney for the two register-register stages (cheap Toffoli),
   CDKPM for the two constant stages (no carry-ancilla register). *)
let spec_mixed =
  { q_add = Gidney; q_comp_const = Cdkpm; c_q_sub_const = Cdkpm; q_comp = Gidney }

let spec_name s =
  if s = spec_cdkpm then "cdkpm"
  else if s = spec_gidney then "gidney"
  else if s = spec_mixed then "gidney+cdkpm"
  else
    Printf.sprintf "%s/%s/%s/%s"
      (Adder.style_name s.q_add)
      (Adder.style_name s.q_comp_const)
      (Adder.style_name s.c_q_sub_const)
      (Adder.style_name s.q_comp)

(* Comparison of the (n+1)-bit sum register against the modulus. For the
   Draper family the sum's own sign qubit serves as the comparator output
   source (proposition 3.7's composition), avoiding an extra ancilla and
   letting adjacent QFT/IQFT blocks cancel. *)
let compare_with_modulus style b ~p ~sum ~target =
  match (style : Adder.style) with
  | Adder.Draper -> Adder_draper.compare_const_msb b ~a:p ~x:sum ~target
  | Adder.Vbe | Adder.Cdkpm | Adder.Gidney ->
      Adder.compare_const style b ~a:p ~x:sum ~target

(* The bodies' check on a bit-string modulus: [0 < p < 2^n]. *)
let check_modulus name ~p ~n =
  if n <= 0 then Mbu_error.invalid ~subsystem:name "register width out of range";
  if Bitstring.hamming_weight p = 0 then
    Mbu_error.invalid ~subsystem:name "zero modulus";
  for i = n to Bitstring.length p - 1 do
    if Bitstring.get p i then
      Mbu_error.invalid ~subsystem:name
        (Printf.sprintf "modulus does not fit %d qubits" n)
  done

(* The [int] edge: an [int] modulus is checked against [1, 2^n) with n in
   [1, 61], then converted once, at the register width it now fits. *)
let int_modulus name ~p ~n =
  if n <= 0 || n >= 62 then
    Mbu_error.invalid ~subsystem:name "register width out of range";
  if p <= 0 || p lsr n <> 0 then
    Mbu_error.invalid ~subsystem:name
      (Printf.sprintf "modulus %d does not fit %d qubits" p n);
  Bitstring.of_int ~width:n p

(* An [int] addend with [0 <= a < p], converted at the register width. *)
let int_addend name ~p ~a ~n =
  if a < 0 || a >= p then invalid_arg (name ^ ": need 0 <= a < p");
  Bitstring.of_int ~width:n a

let uncompute ~mbu b ~garbage ~ug =
  if mbu then Mbu.uncompute_bit b ~garbage ~ug else ug ()

(* Span label for a modular-adder variant: "modadd[gidney+cdkpm]+mbu". *)
let span_label name ~mbu spec =
  Printf.sprintf "%s[%s]%s" name (spec_name spec) (if mbu then "+mbu" else "")

let fixed_label name ~mbu = name ^ if mbu then "+mbu" else ""

(* Proposition 3.2 / theorem 4.2. Stages:
   1. plain addition into the (n+1)-qubit extension of y;
   2. t <- 1[x+y < p], flipped to d = 1[x+y >= p];
   3. subtract p from the sum when d;
   4. erase d, using d = 1[x > (x+y) mod p] (valid because y < p). *)
let modadd_big ?(mbu = false) spec b ~p ~x ~y =
  let n = Register.length x in
  if Register.length y <> n then invalid_arg "Mod_add.modadd_big: unequal lengths";
  check_modulus "Mod_add.modadd_big" ~p ~n;
  Builder.with_span b (span_label "modadd" ~mbu spec) @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let ys = Register.extend y high in
      Builder.with_shared b "modadd.add" (fun () -> Adder.add spec.q_add b ~x ~y:ys);
      Builder.with_ancilla b (fun t ->
          Builder.with_shared b "modadd.comp_p" (fun () ->
              compare_with_modulus spec.q_comp_const b ~p ~sum:ys ~target:t;
              Builder.x b t);
          Builder.with_shared b "modadd.csub_p" (fun () ->
              Adder.sub_const_controlled spec.c_q_sub_const b ~ctrl:t ~a:p ~y:ys);
          Builder.with_shared b "modadd.uncomp" (fun () ->
              uncompute ~mbu b ~garbage:t ~ug:(fun () ->
                  Adder.compare spec.q_comp b ~x ~y ~target:t))))

let modadd ?mbu spec b ~p ~x ~y =
  let n = Register.length x in
  if Register.length y <> n then invalid_arg "Mod_add.modadd: unequal lengths";
  modadd_big ?mbu spec b ~p:(int_modulus "Mod_add.modadd" ~p ~n) ~x ~y

(* Proposition 3.9 / theorem 4.7: only the first adder and the erasing
   comparator carry the control. *)
let modadd_controlled_big ?(mbu = false) spec b ~ctrl ~p ~x ~y =
  let n = Register.length x in
  if Register.length y <> n then
    invalid_arg "Mod_add.modadd_controlled_big: unequal lengths";
  check_modulus "Mod_add.modadd_controlled_big" ~p ~n;
  Builder.with_span b (span_label "cmodadd" ~mbu spec) @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let ys = Register.extend y high in
      Builder.with_shared b "modadd.add" (fun () ->
          Adder.add_controlled spec.q_add b ~ctrl ~x ~y:ys);
      Builder.with_ancilla b (fun t ->
          Builder.with_shared b "modadd.comp_p" (fun () ->
              compare_with_modulus spec.q_comp_const b ~p ~sum:ys ~target:t;
              Builder.x b t);
          Builder.with_shared b "modadd.csub_p" (fun () ->
              Adder.sub_const_controlled spec.c_q_sub_const b ~ctrl:t ~a:p ~y:ys);
          Builder.with_shared b "modadd.uncomp" (fun () ->
              uncompute ~mbu b ~garbage:t ~ug:(fun () ->
                  Adder.compare_controlled spec.q_comp b ~ctrl ~x ~y ~target:t))))

let modadd_controlled ?mbu spec b ~ctrl ~p ~x ~y =
  let n = Register.length x in
  if Register.length y <> n then
    invalid_arg "Mod_add.modadd_controlled: unequal lengths";
  modadd_controlled_big ?mbu spec b ~ctrl
    ~p:(int_modulus "Mod_add.modadd_controlled" ~p ~n) ~x ~y

(* Theorem 3.14 / theorem 4.10: the VBE architecture specialized to a
   classical addend; the erasure uses d = 1[(x+a) mod p < a]. *)
let modadd_const_big ?(mbu = false) spec b ~p ~a ~x =
  let n = Register.length x in
  check_modulus "Mod_add.modadd_const_big" ~p ~n;
  let width = max (Bitstring.length a) (Bitstring.length p) in
  if not (Bitstring.lt (Bitstring.pad a width) (Bitstring.pad p width)) then
    invalid_arg "Mod_add.modadd_const_big: need a < p";
  Builder.with_span b (span_label "modadd_const" ~mbu spec) @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let xs = Register.extend x high in
      Builder.with_shared b "modadd.add" (fun () ->
          Adder.add_const spec.q_add b ~a ~y:xs);
      Builder.with_ancilla b (fun t ->
          Builder.with_shared b "modadd.comp_p" (fun () ->
              compare_with_modulus spec.q_comp_const b ~p ~sum:xs ~target:t;
              Builder.x b t);
          Builder.with_shared b "modadd.csub_p" (fun () ->
              Adder.sub_const_controlled spec.c_q_sub_const b ~ctrl:t ~a:p ~y:xs);
          Builder.with_shared b "modadd.uncomp" (fun () ->
              uncompute ~mbu b ~garbage:t ~ug:(fun () ->
                  Adder.compare_const spec.q_comp b ~a ~x ~target:t))))

let modadd_const ?mbu spec b ~p ~a ~x =
  let n = Register.length x in
  let name = "Mod_add.modadd_const" in
  let pb = int_modulus name ~p ~n in
  modadd_const_big ?mbu spec b ~p:pb ~a:(int_addend name ~p ~a ~n) ~x

(* Proposition 3.15 / theorem 4.11 (Takahashi): subtract p - a, re-add p
   under the sign qubit, erase the sign with one constant comparison and a
   NOT. Uses q_add for the additive stages and q_comp for the erasure. *)
let modadd_const_takahashi ?(mbu = false) spec b ~p ~a ~x =
  let n = Register.length x in
  let name = "Mod_add.modadd_const_takahashi" in
  let pb = int_modulus name ~p ~n in
  let ab = int_addend name ~p ~a ~n in
  if a = 0 then ()
  else
    Builder.with_span b (span_label "modadd_const_tak" ~mbu spec) @@ fun () ->
    Builder.with_ancilla b (fun sign ->
        let xs = Register.extend x sign in
        Adder.sub_const spec.q_add b ~a:(Bitstring.of_int ~width:n (p - a)) ~y:xs;
        (* sign = 1[x < p - a] = 1[x + a < p]; re-add p to the low n bits *)
        Adder.add_const_mod_controlled spec.q_add b ~ctrl:sign ~a:pb ~y:x;
        let ug () =
          Adder.compare_const spec.q_comp b ~a:ab ~x ~target:sign;
          Builder.x b sign
        in
        uncompute ~mbu b ~garbage:sign ~ug)

(* Proposition 3.18 / theorem 4.12. *)
let modadd_const_controlled ?(mbu = false) spec b ~ctrl ~p ~a ~x =
  let n = Register.length x in
  let name = "Mod_add.modadd_const_controlled" in
  let pb = int_modulus name ~p ~n in
  let ab = int_addend name ~p ~a ~n in
  Builder.with_span b (span_label "cmodadd_const" ~mbu spec) @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let xs = Register.extend x high in
      Adder.add_const_controlled spec.q_add b ~ctrl ~a:ab ~y:xs;
      Builder.with_ancilla b (fun t ->
          (* The reduce stage depends only on p, never on the addend a, so
             across the n iterations of a product loop it is one shared
             node referenced n times. *)
          Builder.with_shared b "modadd.reduce" (fun () ->
              compare_with_modulus spec.q_comp_const b ~p:pb ~sum:xs ~target:t;
              Builder.x b t;
              Adder.sub_const_controlled spec.c_q_sub_const b ~ctrl:t ~a:pb
                ~y:xs);
          uncompute ~mbu b ~garbage:t ~ug:(fun () ->
              Adder.compare_const_controlled spec.q_comp b ~ctrl ~a:ab ~x ~target:t)))

(* Proposition 3.13: lift a constant to a loaded register. *)
let modadd_const_via_load ?(mbu = false) spec b ~p ~a ~x =
  let n = Register.length x in
  let name = "Mod_add.modadd_const_via_load" in
  let pb = int_modulus name ~p ~n in
  let ab = int_addend name ~p ~a ~n in
  Builder.with_span b (span_label "modadd_const_load" ~mbu spec) @@ fun () ->
  Builder.with_ancilla_register b "ka" n (fun ka ->
      Adder.load_const b ~a:ab ka;
      modadd_big ~mbu spec b ~p:pb ~x:ka ~y:x;
      Adder.load_const b ~a:ab ka)

(* ------------------------------------------------------------------ *)
(* The original VBE modular adders of table 1 *)

(* Five plain adders: ADD, SUB(p), conditional re-ADD(p), and an erasing
   SUB(x)/ADD(x) pair. The condition bit t = 1[x+y < p] is produced by the
   sign of the subtraction and consumed by a t-controlled load of p. *)
let modadd_vbe_5adder ?(mbu = false) b ~p ~x ~y =
  let n = Register.length x in
  if Register.length y <> n then
    invalid_arg "Mod_add.modadd_vbe_5adder: unequal lengths";
  let pb = int_modulus "Mod_add.modadd_vbe_5adder" ~p ~n in
  Builder.with_span b (fixed_label "modadd_vbe5" ~mbu) @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let ys = Register.extend y high in
      Adder_vbe.add b ~x ~y:ys;
      Builder.with_ancilla b (fun t ->
          (* SUB(p) and read the sign. *)
          Adder.with_loaded b "kp" n ~load:(Adder.load_const b ~a:pb) (fun kp ->
              Builder.emit_adjoint b (fun () -> Adder_vbe.add b ~x:kp ~y:ys));
          Builder.cnot b ~control:high ~target:t;
          (* Re-add p exactly when the subtraction underflowed. *)
          Adder.with_loaded b "kp" n
            ~load:(Adder.load_const_controlled b ~ctrl:t ~a:pb)
            (fun kp -> Adder_vbe.add b ~x:kp ~y:ys);
          (* t = 1[x+y < p] = NOT 1[x > (x+y) mod p]: erase it with a
             subtract/read/add-back pair and a NOT. *)
          let ug () =
            Builder.emit_adjoint b (fun () -> Adder_vbe.add b ~x ~y:ys);
            Builder.cnot b ~control:high ~target:t;
            Adder_vbe.add b ~x ~y:ys;
            Builder.x b t
          in
          uncompute ~mbu b ~garbage:t ~ug))

(* Four plain-adder-equivalents: the erasing pair becomes one VBE
   carry-chain comparator. *)
let modadd_vbe_4adder ?(mbu = false) b ~p ~x ~y =
  let n = Register.length x in
  if Register.length y <> n then
    invalid_arg "Mod_add.modadd_vbe_4adder: unequal lengths";
  let pb = int_modulus "Mod_add.modadd_vbe_4adder" ~p ~n in
  Builder.with_span b (fixed_label "modadd_vbe4" ~mbu) @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let ys = Register.extend y high in
      Adder_vbe.add b ~x ~y:ys;
      Builder.with_ancilla b (fun t ->
          Adder.with_loaded b "kp" n ~load:(Adder.load_const b ~a:pb) (fun kp ->
              Builder.emit_adjoint b (fun () -> Adder_vbe.add b ~x:kp ~y:ys));
          Builder.cnot b ~control:high ~target:t;
          Adder.with_loaded b "kp" n
            ~load:(Adder.load_const_controlled b ~ctrl:t ~a:pb)
            (fun kp -> Adder_vbe.add b ~x:kp ~y:ys);
          let ug () =
            Adder_vbe.compare b ~x ~y ~target:t;
            Builder.x b t
          in
          uncompute ~mbu b ~garbage:t ~ug))

(* ------------------------------------------------------------------ *)
(* Draper/Beauregard (proposition 3.7 / theorem 4.6) *)

let modadd_draper ?(mbu = false) b ~p ~x ~y =
  let n = Register.length x in
  if Register.length y <> n then
    invalid_arg "Mod_add.modadd_draper: unequal lengths";
  let pb = int_modulus "Mod_add.modadd_draper" ~p ~n in
  Builder.with_span b (fixed_label "modadd_draper" ~mbu) @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let ys = Register.extend y high in
      Builder.with_ancilla b (fun t ->
          Qft.apply b ys;
          Adder_draper.phi_add b ~x ~phi_y:ys;
          Adder_draper.phi_sub_const b ~a:pb ~phi_y:ys;
          Qft.apply_inverse b ys;
          Builder.cnot b ~control:high ~target:t;
          Qft.apply b ys;
          Adder_draper.phi_add_const b ~a:pb ~phi_y:ys;
          Builder.x b t;
          Adder_draper.c_phi_sub_const b ~ctrl:t ~a:pb ~phi_y:ys;
          (* The register is still Fourier-encoded here; the erasing
             comparator dips back into the computational basis to read the
             sign, so its QFT pair is what MBU saves half of. *)
          let ug () =
            Builder.emit_adjoint b (fun () -> Adder_draper.phi_add b ~x ~phi_y:ys);
            Qft.apply_inverse b ys;
            Builder.cnot b ~control:high ~target:t;
            Qft.apply b ys;
            Adder_draper.phi_add b ~x ~phi_y:ys
          in
          uncompute ~mbu b ~garbage:t ~ug;
          Qft.apply_inverse b ys))

(* Constant Beauregard modular adder (figure 23 skeleton). *)
let modadd_const_draper ?(mbu = false) b ~p ~a ~x =
  let n = Register.length x in
  let name = "Mod_add.modadd_const_draper" in
  let pb = int_modulus name ~p ~n in
  let ab = int_addend name ~p ~a ~n in
  Builder.with_span b (fixed_label "modadd_const_draper" ~mbu) @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let xs = Register.extend x high in
      Builder.with_ancilla b (fun t ->
          Qft.apply b xs;
          Adder_draper.phi_add_const b ~a:ab ~phi_y:xs;
          Adder_draper.phi_sub_const b ~a:pb ~phi_y:xs;
          Qft.apply_inverse b xs;
          Builder.cnot b ~control:high ~target:t;
          Qft.apply b xs;
          Adder_draper.phi_add_const b ~a:pb ~phi_y:xs;
          Builder.x b t;
          Adder_draper.c_phi_sub_const b ~ctrl:t ~a:pb ~phi_y:xs;
          (* erase t = 1[x+a >= p] = 1[(x+a) mod p < a] *)
          let ug () =
            Adder_draper.phi_sub_const b ~a:ab ~phi_y:xs;
            Qft.apply_inverse b xs;
            Builder.cnot b ~control:high ~target:t;
            Qft.apply b xs;
            Adder_draper.phi_add_const b ~a:ab ~phi_y:xs
          in
          uncompute ~mbu b ~garbage:t ~ug;
          Qft.apply_inverse b xs))

(* Proposition 3.19: same skeleton, first addition controlled, erasure read
   through a Toffoli so that nothing happens when the control is off. *)
let modadd_const_controlled_draper ?(mbu = false) b ~ctrl ~p ~a ~x =
  let n = Register.length x in
  let name = "Mod_add.modadd_const_controlled_draper" in
  let pb = int_modulus name ~p ~n in
  let ab = int_addend name ~p ~a ~n in
  Builder.with_span b (fixed_label "cmodadd_const_draper" ~mbu) @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let xs = Register.extend x high in
      Builder.with_ancilla b (fun t ->
          Qft.apply b xs;
          Adder_draper.c_phi_add_const b ~ctrl ~a:ab ~phi_y:xs;
          Adder_draper.phi_sub_const b ~a:pb ~phi_y:xs;
          Qft.apply_inverse b xs;
          Builder.cnot b ~control:high ~target:t;
          Qft.apply b xs;
          Adder_draper.phi_add_const b ~a:pb ~phi_y:xs;
          Builder.x b t;
          Adder_draper.c_phi_sub_const b ~ctrl:t ~a:pb ~phi_y:xs;
          (* t = d, and d = ctrl AND 1[(x + ctrl.a) mod p < a]. *)
          let ug () =
            Adder_draper.phi_sub_const b ~a:ab ~phi_y:xs;
            Qft.apply_inverse b xs;
            Builder.toffoli b ~c1:ctrl ~c2:high ~target:t;
            Qft.apply b xs;
            Adder_draper.phi_add_const b ~a:ab ~phi_y:xs
          in
          uncompute ~mbu b ~garbage:t ~ug;
          Qft.apply_inverse b xs))

(* Remark 3.3: reduce an (n+1)-bit value < 2p modulo p, exposing the
   quotient bit. *)
let reduce ?(mbu = false) spec b ~p ~x ~flag =
  ignore mbu;
  let n = Register.length x - 1 in
  let pb = int_modulus "Mod_add.reduce" ~p ~n in
  Builder.with_span b (span_label "modreduce" ~mbu:false spec) @@ fun () ->
  compare_with_modulus spec.q_comp_const b ~p:pb ~sum:x ~target:flag;
  Builder.x b flag;
  Adder.sub_const_controlled spec.c_q_sub_const b ~ctrl:flag ~a:pb ~y:x

(* The mirror of modadd: set d = 1[x > y] with a cheap comparator, re-add p
   under d, erase d against the (y + d.p)-vs-p comparison, subtract x. *)
let modsub ?(mbu = false) spec b ~p ~x ~y =
  let n = Register.length x in
  if Register.length y <> n then invalid_arg "Mod_add.modsub: unequal lengths";
  let pb = int_modulus "Mod_add.modsub" ~p ~n in
  Builder.with_span b (span_label "modsub" ~mbu spec) @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let ys = Register.extend y high in
      Builder.with_ancilla b (fun t ->
          Adder.compare spec.q_comp b ~x ~y ~target:t;
          Adder.add_const_controlled spec.c_q_sub_const b ~ctrl:t ~a:pb ~y:ys;
          (* t holds d = 1[x > y]; ys = y + d.p; erase d: the sum is below p
             exactly when d = 0 *)
          let ug () =
            compare_with_modulus spec.q_comp_const b ~p:pb ~sum:ys ~target:t;
            Builder.x b t
          in
          uncompute ~mbu b ~garbage:t ~ug);
      Adder.sub spec.q_add b ~x ~y:ys)

let modsub_const ?mbu spec b ~p ~a ~x =
  if a < 0 || a >= p then invalid_arg "Mod_add.modsub_const: need 0 <= a < p";
  modadd_const ?mbu spec b ~p ~a:((p - a) mod p) ~x

(* Figure 23: the double control collapses into one logical-AND ancilla. *)
let modadd_const_double_controlled_draper ?(mbu = false) b ~ctrl1 ~ctrl2 ~p ~a ~x =
  Builder.with_span b (fixed_label "ccmodadd_const_draper" ~mbu) @@ fun () ->
  Builder.with_ancilla b (fun g ->
      Logical_and.compute b ~c1:ctrl1 ~c2:ctrl2 ~target:g;
      modadd_const_controlled_draper ~mbu b ~ctrl:g ~p ~a ~x;
      Logical_and.uncompute b ~c1:ctrl1 ~c2:ctrl2 ~target:g)
