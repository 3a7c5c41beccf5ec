open Mbu_circuit
open Mbu_bitstring

type style = Vbe | Cdkpm | Gidney | Draper

let all_styles = [ Vbe; Cdkpm; Gidney; Draper ]

let style_name = function
  | Vbe -> "vbe"
  | Cdkpm -> "cdkpm"
  | Gidney -> "gidney"
  | Draper -> "draper"

(* Wrap an emission in a shared span named after the subroutine and the
   adder style, e.g. "adder.add[gidney]" — the unit of attribution that
   [Trace.profile] reports on. Sharing means a loop that emits the same op
   on the same wires (the LIFO ancilla pool keeps wire numbers stable
   across iterations, and constant addends enter through X/CNOT load
   layers outside the inner add) interns the block once and every later
   iteration is an O(1) reference. *)
let spanned b name style f =
  Builder.with_shared b (Printf.sprintf "%s[%s]" name (style_name style)) f

(* All four plain adders implement y <- (x + y) mod 2^(n+1) even when the
   most significant qubit of y starts dirty: the top carry is XORed into y_n
   rather than assumed zero. The subtraction and comparator constructions
   below rely on this. *)
let add style b ~x ~y =
  spanned b "adder.add" style @@ fun () ->
  match style with
  | Vbe -> Adder_vbe.add b ~x ~y
  | Cdkpm -> Adder_cdkpm.add b ~x ~y
  | Gidney -> Adder_gidney.add b ~x ~y
  | Draper -> Adder_draper.add b ~x ~y

let is_unitary_style = function Vbe | Cdkpm | Draper -> true | Gidney -> false

(* Theorem 2.22, circuit (8): y - x = NOT (NOT y + x). *)
let sub_via_complement style b ~x ~y =
  Adder_vbe.complement b y;
  add style b ~x ~y;
  Adder_vbe.complement b y

let sub style b ~x ~y =
  spanned b "adder.sub" style @@ fun () ->
  if is_unitary_style style then Builder.emit_adjoint b (fun () -> add style b ~x ~y)
  else sub_via_complement style b ~x ~y

(* ------------------------------------------------------------------ *)
(* Constant loading *)

(* The one fit check of every constant entry point, Draper included: a set
   bit at or above the register width [w] is an error. *)
let check_const name ~a w =
  for i = w to Bitstring.length a - 1 do
    if Bitstring.get a i then
      Mbu_error.invalid ~subsystem:name
        (Printf.sprintf "constant does not fit %d qubits" w)
  done

let bit a i = i < Bitstring.length a && Bitstring.get a i

(* Load layers are anonymous shared blocks: every constant op emits its
   load twice (loads are self-inverse X/CNOT layers), and a product loop's
   add/compare pair loads the same addend four times onto pool-stable
   wires, so interning collapses them to one node each. *)
let load_const b ~a reg =
  check_const "Adder.load_const" ~a (Register.length reg);
  Builder.shared b @@ fun () ->
  for i = 0 to Register.length reg - 1 do
    if bit a i then Builder.x b (Register.get reg i)
  done

let load_const_controlled b ~ctrl ~a reg =
  check_const "Adder.load_const_controlled" ~a (Register.length reg);
  Builder.shared b @@ fun () ->
  for i = 0 to Register.length reg - 1 do
    if bit a i then Builder.cnot b ~control:ctrl ~target:(Register.get reg i)
  done

(* ------------------------------------------------------------------ *)
(* Controlled addition *)

type controlled_impl = Native | Load_toffoli | Load_and_mbu

let with_loaded_addend b ~load ~unload n f =
  Builder.with_ancilla_register b "cx" n (fun cx ->
      load cx;
      f cx;
      unload cx)

let add_controlled_load_toffoli style b ~ctrl ~x ~y =
  let n = Register.length x in
  let load cx =
    for i = 0 to n - 1 do
      Builder.toffoli b ~c1:ctrl ~c2:(Register.get x i) ~target:(Register.get cx i)
    done
  in
  with_loaded_addend b ~load ~unload:load n (fun cx -> add style b ~x:cx ~y)

let add_controlled_load_and_mbu style b ~ctrl ~x ~y =
  let n = Register.length x in
  let load cx =
    for i = 0 to n - 1 do
      Logical_and.compute b ~c1:ctrl ~c2:(Register.get x i)
        ~target:(Register.get cx i)
    done
  and unload cx =
    for i = n - 1 downto 0 do
      Logical_and.uncompute b ~c1:ctrl ~c2:(Register.get x i)
        ~target:(Register.get cx i)
    done
  in
  with_loaded_addend b ~load ~unload n (fun cx -> add style b ~x:cx ~y)

let add_controlled ?(impl = Native) style b ~ctrl ~x ~y =
  spanned b "adder.cadd" style @@ fun () ->
  match impl, style with
  | Load_toffoli, _ -> add_controlled_load_toffoli style b ~ctrl ~x ~y
  | Load_and_mbu, _ -> add_controlled_load_and_mbu style b ~ctrl ~x ~y
  | Native, Cdkpm -> Adder_cdkpm.add_controlled b ~ctrl ~x ~y
  | Native, Gidney -> Adder_gidney.add_controlled b ~ctrl ~x ~y
  | Native, Draper -> Adder_draper.add_controlled b ~ctrl ~x ~y
  | Native, Vbe ->
      (* VBE has no bespoke controlled adder; corollary 2.10 is the cheapest
         generic construction. *)
      add_controlled_load_and_mbu Vbe b ~ctrl ~x ~y

(* The complement identity also inverts a controlled addition:
   NOT (NOT y + c.x) = y - c.x, and reduces to the identity when c = 0. *)
let sub_controlled style b ~ctrl ~x ~y =
  spanned b "adder.csub" style @@ fun () ->
  Adder_vbe.complement b y;
  add_controlled style b ~ctrl ~x ~y;
  Adder_vbe.complement b y

(* ------------------------------------------------------------------ *)
(* Constants *)

let with_loaded b name n ~load f =
  Builder.with_ancilla_register b name n (fun k ->
      load k;
      f k;
      load k)

let add_const style b ~a ~y =
  let n = Register.length y - 1 in
  check_const "Adder.add_const" ~a n;
  spanned b "adder.add_const" style @@ fun () ->
  match style with
  | Draper -> Adder_draper.add_const b ~a ~y
  | Vbe | Cdkpm | Gidney ->
      with_loaded b "ka" n ~load:(load_const b ~a) (fun ka -> add style b ~x:ka ~y)

let sub_const style b ~a ~y =
  let n = Register.length y - 1 in
  check_const "Adder.sub_const" ~a n;
  spanned b "adder.sub_const" style @@ fun () ->
  match style with
  | Draper ->
      Qft.within b y (fun () -> Adder_draper.phi_sub_const b ~a ~phi_y:y)
  | Vbe | Cdkpm ->
      with_loaded b "ka" n ~load:(load_const b ~a) (fun ka -> sub style b ~x:ka ~y)
  | Gidney ->
      with_loaded b "ka" n ~load:(load_const b ~a) (fun ka ->
          sub_via_complement Gidney b ~x:ka ~y)

let add_const_controlled style b ~ctrl ~a ~y =
  let n = Register.length y - 1 in
  check_const "Adder.add_const_controlled" ~a n;
  spanned b "adder.cadd_const" style @@ fun () ->
  match style with
  | Draper -> Adder_draper.add_const_controlled b ~ctrl ~a ~y
  | Vbe | Cdkpm | Gidney ->
      with_loaded b "ka" n ~load:(load_const_controlled b ~ctrl ~a) (fun ka ->
          add style b ~x:ka ~y)

let sub_const_controlled style b ~ctrl ~a ~y =
  let n = Register.length y - 1 in
  check_const "Adder.sub_const_controlled" ~a n;
  spanned b "adder.csub_const" style @@ fun () ->
  match style with
  | Draper ->
      Qft.within b y (fun () -> Adder_draper.c_phi_sub_const b ~ctrl ~a ~phi_y:y)
  | Vbe | Cdkpm | Gidney ->
      with_loaded b "ka" n ~load:(load_const_controlled b ~ctrl ~a) (fun ka ->
          if is_unitary_style style then
            Builder.emit_adjoint b (fun () -> add style b ~x:ka ~y)
          else sub_via_complement style b ~x:ka ~y)

(* ------------------------------------------------------------------ *)
(* Comparators *)

let compare style b ~x ~y ~target =
  spanned b "adder.compare" style @@ fun () ->
  match style with
  | Vbe -> Adder_vbe.compare b ~x ~y ~target
  | Cdkpm -> Adder_cdkpm.compare b ~x ~y ~target
  | Gidney -> Adder_gidney.compare b ~x ~y ~target
  | Draper -> Adder_draper.compare b ~x ~y ~target

(* Proposition 2.25: subtract, read the sign, add back. *)
let compare_generic style b ~x ~y ~target =
  if Register.length x <> Register.length y then
    invalid_arg "Adder.compare_generic: unequal lengths";
  Builder.with_ancilla b (fun sign ->
      Adder_vbe.sign_read b ~target (Register.extend y sign)
        ~sub:(fun ys -> sub style b ~x ~y:ys)
        ~add:(fun ys -> add style b ~x ~y:ys))

let compare_controlled style b ~ctrl ~x ~y ~target =
  spanned b "adder.ccompare" style @@ fun () ->
  match style with
  | Cdkpm -> Adder_cdkpm.compare_controlled b ~ctrl ~x ~y ~target
  | Gidney -> Adder_gidney.compare_controlled b ~ctrl ~x ~y ~target
  | Vbe | Draper ->
      (* Generic fallback: compute the comparison into an ancilla, copy it
         out under the control with one Toffoli, then uncompute. *)
      Builder.with_ancilla b (fun t ->
          compare style b ~x ~y ~target:t;
          Builder.toffoli b ~c1:ctrl ~c2:t ~target;
          compare style b ~x ~y ~target:t)

let compare_const style b ~a ~x ~target =
  let n = Register.length x in
  check_const "Adder.compare_const" ~a n;
  spanned b "adder.compare_const" style @@ fun () ->
  match style with
  | Draper -> Adder_draper.compare_const b ~a ~x ~target
  | Vbe | Cdkpm | Gidney ->
      (* Proposition 2.34: load a, then 1[x < a] = 1[a > x]. *)
      with_loaded b "kc" n ~load:(load_const b ~a) (fun ka ->
          compare style b ~x:ka ~y:x ~target)

(* Theorem 2.35: sign of x - a is 1[x < a]. *)
let compare_const_via_sub style b ~a ~x ~target =
  Builder.with_ancilla b (fun sign ->
      Adder_vbe.sign_read b ~target (Register.extend x sign)
        ~sub:(fun xs -> sub_const style b ~a ~y:xs)
        ~add:(fun xs -> add_const style b ~a ~y:xs))

(* Definition 2.37 / theorem 2.38: 1[x < c.a] via a controlled load. *)
let compare_const_controlled style b ~ctrl ~a ~x ~target =
  let n = Register.length x in
  check_const "Adder.compare_const_controlled" ~a n;
  spanned b "adder.ccompare_const" style @@ fun () ->
  with_loaded b "kc" n ~load:(load_const_controlled b ~ctrl ~a) (fun ka ->
      compare style b ~x:ka ~y:x ~target)

let compare_ge_const style b ~a ~x ~target =
  compare_const style b ~a ~x ~target;
  Builder.x b target

let add_mod style b ~x ~y =
  spanned b "adder.add_mod" style @@ fun () ->
  match style with
  | Vbe -> Adder_vbe.add_mod b ~x ~y
  | Cdkpm -> Adder_cdkpm.add_mod b ~x ~y
  | Gidney -> Adder_gidney.add_mod b ~x ~y
  | Draper -> Adder_draper.add_mod b ~x ~y

let add_const_mod style b ~a ~y =
  let m = Register.length y in
  check_const "Adder.add_const_mod" ~a m;
  spanned b "adder.add_const_mod" style @@ fun () ->
  match style with
  | Draper ->
      Qft.within b y (fun () -> Adder_draper.phi_add_const b ~a ~phi_y:y)
  | Vbe | Cdkpm | Gidney ->
      with_loaded b "km" m ~load:(load_const b ~a) (fun ka ->
          add_mod style b ~x:ka ~y)

let add_const_mod_controlled style b ~ctrl ~a ~y =
  let m = Register.length y in
  check_const "Adder.add_const_mod_controlled" ~a m;
  spanned b "adder.cadd_const_mod" style @@ fun () ->
  match style with
  | Draper ->
      Qft.within b y (fun () -> Adder_draper.c_phi_add_const b ~ctrl ~a ~phi_y:y)
  | Vbe | Cdkpm | Gidney ->
      with_loaded b "km" m ~load:(load_const_controlled b ~ctrl ~a) (fun ka ->
          add_mod style b ~x:ka ~y)

(* Theorem 2.22, circuit (9): y + twos_complement(x) = y - x. The addend
   register is zero-extended so its 2's complement spans n+1 bits, then
   restored by the complementary decrement. *)
let sub_via_twos_complement style b ~x ~y =
  Builder.with_ancilla b (fun pad ->
      let xs = Register.extend x pad in
      Adder_vbe.complement b xs;
      Increment.apply b xs;
      add_mod style b ~x:xs ~y;
      Increment.apply_decrement b xs;
      Adder_vbe.complement b xs)

(* Remark 2.32: an (n+1)-bit y exceeds any n-bit x whenever its top bit is
   set, so the copy-out gains a NOT-y_top control — a controlled comparator
   on the low bits. *)
let compare_unequal style b ~x ~y ~target =
  let n = Register.length x in
  if Register.length y <> n + 1 then
    invalid_arg "Adder.compare_unequal: length y <> length x + 1";
  let y_low = Register.sub y ~pos:0 ~len:n in
  let y_top = Register.get y n in
  Builder.x b y_top;
  compare_controlled style b ~ctrl:y_top ~x ~y:y_low ~target;
  Builder.x b y_top
