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

let same_length name ~x ~y =
  let n = Register.length x in
  if Register.length y <> n then
    Mbu_error.invalid ~subsystem:name "unequal lengths";
  n

(* The [int] edge: an [int] modulus is checked against [1, 2^n) with n in
   [1, 61], then converted once, at the register width it now fits. *)
let int_modulus name ~p ~n =
  if n <= 0 || n >= 62 then
    Mbu_error.invalid ~subsystem:name "register width out of range";
  if p <= 0 || p lsr n <> 0 then
    Mbu_error.invalid ~subsystem:name
      (Printf.sprintf "modulus %d does not fit %d qubits" p n);
  Bitstring.of_int ~width:n p

(* Two operand registers of equal length, and the modulus. *)
let int_operands name ~p ~x ~y = int_modulus name ~p ~n:(same_length name ~x ~y)

(* The modulus, then an addend with [0 <= a < p], both converted at the
   register width. *)
let int_constant name ~p ~a ~x =
  let n = Register.length x in
  let pb = int_modulus name ~p ~n in
  if a < 0 || a >= p then
    Mbu_error.invalid ~subsystem:name
      (Printf.sprintf "addend %d outside [0, %d)" a p);
  (pb, Bitstring.of_int ~width:n a)

let uncompute ~mbu b ~garbage ~ug =
  if mbu then Mbu.uncompute_bit b ~garbage ~ug else ug ()

(* Span label for a modular-adder variant: "modadd[gidney+cdkpm]+mbu". *)
let span_label name ~mbu spec =
  Printf.sprintf "%s[%s]%s" name (spec_name spec) (if mbu then "+mbu" else "")

let fixed_label name ~mbu = name ^ if mbu then "+mbu" else ""

(* Stage 2 of proposition 3.2: t <- 1[sum < p], flipped to d = 1[sum >= p]. *)
let compare_p spec b ~p ~sum ~t =
  compare_with_modulus spec.q_comp_const b ~p ~sum ~target:t;
  Builder.x b t

(* Stage 3: subtract p from the sum when d. *)
let sub_p spec b ~p ~sum ~t =
  Adder.sub_const_controlled spec.c_q_sub_const b ~ctrl:t ~a:p ~y:sum

(* The VBE architecture, proposition 3.2, on the (n+1)-qubit extension of
   [y], each stage one shared block:
   1. [add] into the extension (plain, controlled or constant addition);
   2. [compare_p];
   3. [sub_p];
   4. [erase t], a comparator that reads d back into t; MBU halves it
      (theorems 4.2, 4.7 and 4.10 change only this stage). *)
let vbe_pipeline ~mbu spec b ~label ~p ~y ~add ~erase =
  Builder.with_span b label @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let ys = Register.extend y high in
      Builder.with_shared b "modadd.add" (fun () -> add ys);
      Builder.with_ancilla b (fun t ->
          Builder.with_shared b "modadd.comp_p" (fun () ->
              compare_p spec b ~p ~sum:ys ~t);
          Builder.with_shared b "modadd.csub_p" (fun () ->
              sub_p spec b ~p ~sum:ys ~t);
          Builder.with_shared b "modadd.uncomp" (fun () ->
              uncompute ~mbu b ~garbage:t ~ug:(fun () -> erase t))))

(* Proposition 3.2 / theorem 4.2: erase d using d = 1[x > (x+y) mod p]
   (valid because y < p). *)
let modadd_big ?(mbu = false) spec b ~p ~x ~y =
  let n = same_length "Mod_add.modadd_big" ~x ~y in
  check_modulus "Mod_add.modadd_big" ~p ~n;
  vbe_pipeline ~mbu spec b ~label:(span_label "modadd" ~mbu spec) ~p ~y
    ~add:(fun ys -> Adder.add spec.q_add b ~x ~y:ys)
    ~erase:(fun t -> Adder.compare spec.q_comp b ~x ~y ~target:t)

let modadd ?mbu spec b ~p ~x ~y =
  modadd_big ?mbu spec b ~p:(int_operands "Mod_add.modadd" ~p ~x ~y) ~x ~y

(* Proposition 3.9 / theorem 4.7: only the first adder and the erasing
   comparator carry the control. *)
let modadd_controlled_big ?(mbu = false) spec b ~ctrl ~p ~x ~y =
  let n = same_length "Mod_add.modadd_controlled_big" ~x ~y in
  check_modulus "Mod_add.modadd_controlled_big" ~p ~n;
  vbe_pipeline ~mbu spec b ~label:(span_label "cmodadd" ~mbu spec) ~p ~y
    ~add:(fun ys -> Adder.add_controlled spec.q_add b ~ctrl ~x ~y:ys)
    ~erase:(fun t -> Adder.compare_controlled spec.q_comp b ~ctrl ~x ~y ~target:t)

let modadd_controlled ?mbu spec b ~ctrl ~p ~x ~y =
  modadd_controlled_big ?mbu spec b ~ctrl
    ~p:(int_operands "Mod_add.modadd_controlled" ~p ~x ~y) ~x ~y

(* Theorem 3.14 / theorem 4.10: the VBE architecture specialized to a
   classical addend; the erasure uses d = 1[(x+a) mod p < a]. *)
let modadd_const_big ?(mbu = false) spec b ~p ~a ~x =
  check_modulus "Mod_add.modadd_const_big" ~p ~n:(Register.length x);
  let width = max (Bitstring.length a) (Bitstring.length p) in
  if not (Bitstring.lt (Bitstring.pad a width) (Bitstring.pad p width)) then
    Mbu_error.invalid ~subsystem:"Mod_add.modadd_const_big" "addend not below the modulus";
  vbe_pipeline ~mbu spec b ~label:(span_label "modadd_const" ~mbu spec) ~p ~y:x
    ~add:(fun xs -> Adder.add_const spec.q_add b ~a ~y:xs)
    ~erase:(fun t -> Adder.compare_const spec.q_comp b ~a ~x ~target:t)

let modadd_const ?mbu spec b ~p ~a ~x =
  let p, a = int_constant "Mod_add.modadd_const" ~p ~a ~x in
  modadd_const_big ?mbu spec b ~p ~a ~x

(* Proposition 3.15 / theorem 4.11 (Takahashi): subtract p - a, re-add p
   under the sign qubit, erase the sign with one constant comparison and a
   NOT. Uses q_add for the additive stages and q_comp for the erasure. *)
let modadd_const_takahashi ?(mbu = false) spec b ~p ~a ~x =
  let pb, ab = int_constant "Mod_add.modadd_const_takahashi" ~p ~a ~x in
  if a = 0 then ()
  else
    Builder.with_span b (span_label "modadd_const_tak" ~mbu spec) @@ fun () ->
    Builder.with_ancilla b (fun sign ->
        let xs = Register.extend x sign in
        Adder.sub_const spec.q_add b
          ~a:(Bitstring.of_int ~width:(Register.length x) (p - a)) ~y:xs;
        (* sign = 1[x < p - a] = 1[x + a < p]; re-add p to the low n bits *)
        Adder.add_const_mod_controlled spec.q_add b ~ctrl:sign ~a:pb ~y:x;
        let ug () =
          Adder.compare_const spec.q_comp b ~a:ab ~x ~target:sign;
          Builder.x b sign
        in
        uncompute ~mbu b ~garbage:sign ~ug)

(* Proposition 3.18 / theorem 4.12: the pipeline's stages under their own
   sharing layout. Stage 1 is not shared, since the addend changes on every
   iteration of a product loop. Stages 2-3 depend only on p, never on the
   addend, so across the n iterations of a product loop they are one shared
   node referenced n times. *)
let modadd_const_controlled ?(mbu = false) spec b ~ctrl ~p ~a ~x =
  let p, a = int_constant "Mod_add.modadd_const_controlled" ~p ~a ~x in
  Builder.with_span b (span_label "cmodadd_const" ~mbu spec) @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let xs = Register.extend x high in
      Adder.add_const_controlled spec.q_add b ~ctrl ~a ~y:xs;
      Builder.with_ancilla b (fun t ->
          Builder.with_shared b "modadd.reduce" (fun () ->
              compare_p spec b ~p ~sum:xs ~t;
              sub_p spec b ~p ~sum:xs ~t);
          uncompute ~mbu b ~garbage:t ~ug:(fun () ->
              Adder.compare_const_controlled spec.q_comp b ~ctrl ~a ~x ~target:t)))

(* Proposition 3.13: lift a constant to a loaded register. *)
let modadd_const_via_load ?(mbu = false) spec b ~p ~a ~x =
  let p, a = int_constant "Mod_add.modadd_const_via_load" ~p ~a ~x in
  Builder.with_span b (span_label "modadd_const_load" ~mbu spec) @@ fun () ->
  Builder.with_ancilla_register b "ka" (Register.length x) (fun ka ->
      Adder.load_const b ~a ka;
      modadd_big ~mbu spec b ~p ~x:ka ~y:x;
      Adder.load_const b ~a ka)

(* ------------------------------------------------------------------ *)
(* The original VBE modular adders of table 1 *)

(* ADD, SUB(p), conditional re-ADD(p), all plain VBE adders. The condition
   bit t = 1[x+y < p] is produced by the sign of the subtraction and
   consumed by a t-controlled load of p. t = NOT 1[x > (x+y) mod p], so
   [erase ~ys ~high t] reads that comparison into t and a NOT clears it. *)
let vbe_original ~mbu b ~label ~p ~x ~y ~erase =
  let n = Register.length x in
  Builder.with_span b label @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let ys = Register.extend y high in
      Adder_vbe.add b ~x ~y:ys;
      Builder.with_ancilla b (fun t ->
          (* SUB(p) and read the sign. *)
          Adder.with_loaded b "kp" n ~load:(Adder.load_const b ~a:p) (fun kp ->
              Builder.emit_adjoint b (fun () -> Adder_vbe.add b ~x:kp ~y:ys));
          Builder.cnot b ~control:high ~target:t;
          (* Re-add p exactly when the subtraction underflowed. *)
          Adder.with_loaded b "kp" n
            ~load:(Adder.load_const_controlled b ~ctrl:t ~a:p)
            (fun kp -> Adder_vbe.add b ~x:kp ~y:ys);
          let ug () =
            erase ~ys ~high t;
            Builder.x b t
          in
          uncompute ~mbu b ~garbage:t ~ug))

(* Five plain adders: the erasure is a SUB(x)/ADD(x) pair around a read of
   the sign. *)
let modadd_vbe_5adder ?(mbu = false) b ~p ~x ~y =
  let p = int_operands "Mod_add.modadd_vbe_5adder" ~p ~x ~y in
  vbe_original ~mbu b ~label:(fixed_label "modadd_vbe5" ~mbu) ~p ~x ~y
    ~erase:(fun ~ys ~high t ->
      Builder.emit_adjoint b (fun () -> Adder_vbe.add b ~x ~y:ys);
      Builder.cnot b ~control:high ~target:t;
      Adder_vbe.add b ~x ~y:ys)

(* Four plain-adder-equivalents: the erasing pair becomes one VBE
   carry-chain comparator. *)
let modadd_vbe_4adder ?(mbu = false) b ~p ~x ~y =
  let p = int_operands "Mod_add.modadd_vbe_4adder" ~p ~x ~y in
  vbe_original ~mbu b ~label:(fixed_label "modadd_vbe4" ~mbu) ~p ~x ~y
    ~erase:(fun ~ys:_ ~high:_ t -> Adder_vbe.compare b ~x ~y ~target:t)

(* ------------------------------------------------------------------ *)
(* Draper/Beauregard (proposition 3.7 / theorem 4.6) *)

(* The Beauregard skeleton (figure 23) on the (n+1)-qubit extension of [y],
   Fourier-encoded: [add] (stage 1), Phi-subtract p, dip out to copy the
   sign into t, re-add p, flip t to d and subtract p under d. The register
   is still Fourier-encoded at the erasure, so it dips back into the
   computational basis to read the sign ([unadd], [read ~high t], [readd]),
   and that QFT pair is what MBU saves half of. *)
let beauregard ~mbu b ~label ~p ~y ~add ~unadd ~read ~readd =
  Builder.with_span b label @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let ys = Register.extend y high in
      Builder.with_ancilla b (fun t ->
          Qft.apply b ys;
          add ys;
          Adder_draper.phi_sub_const b ~a:p ~phi_y:ys;
          Qft.apply_inverse b ys;
          Builder.cnot b ~control:high ~target:t;
          Qft.apply b ys;
          Adder_draper.phi_add_const b ~a:p ~phi_y:ys;
          Builder.x b t;
          Adder_draper.c_phi_sub_const b ~ctrl:t ~a:p ~phi_y:ys;
          let ug () =
            unadd ys;
            Qft.apply_inverse b ys;
            read ~high t;
            Qft.apply b ys;
            readd ys
          in
          uncompute ~mbu b ~garbage:t ~ug;
          Qft.apply_inverse b ys))

let read_sign b ~high t = Builder.cnot b ~control:high ~target:t

let modadd_draper ?(mbu = false) b ~p ~x ~y =
  let p = int_operands "Mod_add.modadd_draper" ~p ~x ~y in
  let add ys = Adder_draper.phi_add b ~x ~phi_y:ys in
  beauregard ~mbu b ~label:(fixed_label "modadd_draper" ~mbu) ~p ~y ~add
    ~unadd:(fun ys -> Builder.emit_adjoint b (fun () -> add ys))
    ~read:(read_sign b) ~readd:add

(* Constant Beauregard modular adder: erase t = 1[x+a >= p]
   = 1[(x+a) mod p < a]. *)
let modadd_const_draper ?(mbu = false) b ~p ~a ~x =
  let p, a = int_constant "Mod_add.modadd_const_draper" ~p ~a ~x in
  let add ys = Adder_draper.phi_add_const b ~a ~phi_y:ys in
  beauregard ~mbu b ~label:(fixed_label "modadd_const_draper" ~mbu) ~p ~y:x
    ~add ~unadd:(fun ys -> Adder_draper.phi_sub_const b ~a ~phi_y:ys)
    ~read:(read_sign b) ~readd:add

(* Proposition 3.19: same skeleton, first addition controlled, erasure read
   through a Toffoli so that nothing happens when the control is off:
   t = d, and d = ctrl AND 1[(x + ctrl.a) mod p < a]. *)
let modadd_const_controlled_draper ?(mbu = false) b ~ctrl ~p ~a ~x =
  let p, a = int_constant "Mod_add.modadd_const_controlled_draper" ~p ~a ~x in
  beauregard ~mbu b ~label:(fixed_label "cmodadd_const_draper" ~mbu) ~p ~y:x
    ~add:(fun ys -> Adder_draper.c_phi_add_const b ~ctrl ~a ~phi_y:ys)
    ~unadd:(fun ys -> Adder_draper.phi_sub_const b ~a ~phi_y:ys)
    ~read:(fun ~high t -> Builder.toffoli b ~c1:ctrl ~c2:high ~target:t)
    ~readd:(fun ys -> Adder_draper.phi_add_const b ~a ~phi_y:ys)

(* Remark 3.3: reduce an (n+1)-bit value < 2p modulo p, exposing the
   quotient bit: stages 2-3 of the pipeline with the flag as d. *)
let reduce ?(mbu = false) spec b ~p ~x ~flag =
  ignore mbu;
  let p = int_modulus "Mod_add.reduce" ~p ~n:(Register.length x - 1) in
  Builder.with_span b (span_label "modreduce" ~mbu:false spec) @@ fun () ->
  compare_p spec b ~p ~sum:x ~t:flag;
  sub_p spec b ~p ~sum:x ~t:flag

(* The mirror of modadd: set d = 1[x > y] with a cheap comparator, re-add p
   under d, erase d against the (y + d.p)-vs-p comparison, subtract x. *)
let modsub ?(mbu = false) spec b ~p ~x ~y =
  let pb = int_operands "Mod_add.modsub" ~p ~x ~y in
  Builder.with_span b (span_label "modsub" ~mbu spec) @@ fun () ->
  Builder.with_ancilla b (fun high ->
      let ys = Register.extend y high in
      Builder.with_ancilla b (fun t ->
          Adder.compare spec.q_comp b ~x ~y ~target:t;
          Adder.add_const_controlled spec.c_q_sub_const b ~ctrl:t ~a:pb ~y:ys;
          (* t holds d = 1[x > y]; ys = y + d.p; erase d: the sum is below p
             exactly when d = 0 *)
          uncompute ~mbu b ~garbage:t ~ug:(fun () ->
              compare_p spec b ~p:pb ~sum:ys ~t));
      Adder.sub spec.q_add b ~x ~y:ys)

let modsub_const ?mbu spec b ~p ~a ~x =
  ignore (int_constant "Mod_add.modsub_const" ~p ~a ~x);
  modadd_const ?mbu spec b ~p ~a:((p - a) mod p) ~x

(* Figure 23: the double control collapses into one logical-AND ancilla. *)
let modadd_const_double_controlled_draper ?(mbu = false) b ~ctrl1 ~ctrl2 ~p ~a ~x =
  ignore (int_constant "Mod_add.modadd_const_double_controlled_draper" ~p ~a ~x);
  Builder.with_span b (fixed_label "ccmodadd_const_draper" ~mbu) @@ fun () ->
  Builder.with_ancilla b (fun g ->
      Logical_and.within b ~c1:ctrl1 ~c2:ctrl2 ~target:g (fun () ->
          modadd_const_controlled_draper ~mbu b ~ctrl:g ~p ~a ~x))
