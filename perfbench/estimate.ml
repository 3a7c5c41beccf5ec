(* estimate: resource estimation at cryptographic width, what
   [mbu-cli profile] runs. Each request takes a fresh builder, runs the
   constructor, [to_circuit], expected-cost [Counts] and [Depth], and
   [Trace.profile] with its defaults. Requests come from two families:
   [Mod_add.modadd_big] (CDKPM, Gidney, CDKPM+Gidney; n = 256 or 2048;
   MBU on or off; a seeded modulus each) and [Mod_mul.cmult_add] (ripple
   CDKPM with MBU; n = 32 or 60; seeded modulus and constant). Oracle: the
   profile's root cumulative counts equal [Counts], and the expected
   Toffoli count equals the paper's closed form where the two agree. *)

open Mbu_circuit
open Mbu_core
module Bitstring = Mbu_bitstring.Bitstring

(* A [modadd_big] subroutine choice and the paper's closed form for it. *)
type style = {
  label : string;
  spec : Mod_add.spec;
  formula : mbu:bool -> Formulas.params -> Formulas.cost;
}

type kind = Modadd_big of { style : style; n : int; mbu : bool } | Cmult of { n : int }

let kinds =
  let styles =
    [ { label = "cdkpm"; spec = Mod_add.spec_cdkpm; formula = Formulas.modadd_cdkpm };
      { label = "gidney"; spec = Mod_add.spec_gidney; formula = Formulas.modadd_gidney };
      { label = "cdkpm+gidney"; spec = Mod_add.spec_mixed; formula = Formulas.modadd_mixed } ]
  in
  Array.of_list
    (List.concat_map
       (fun style ->
         List.concat_map
           (fun n ->
             List.map
               (fun mbu -> Modadd_big { style; n; mbu })
               [ false; true ])
           [ 256; 2048 ])
       styles
    @ [ Cmult { n = 32 }; Cmult { n = 60 } ])

(* [ix] indexes [kinds]. *)
type request =
  | Big of { ix : int; style : style; n : int; mbu : bool; p : Bitstring.t }
  | Mul of { ix : int; n : int; p : int; a : int }

let draw rng ix =
  match kinds.(ix) with
  | Modadd_big { style; n; mbu } ->
      let p =
        Bitstring.init n (fun i -> i = 0 || i = n - 1 || Random.State.bool rng)
      in
      Big { ix; style; n; mbu; p }
  | Cmult { n } ->
      let p = Util.draw_modulus rng n in
      Mul { ix; n; p; a = 1 + Util.draw_below rng (p - 1) }

let stream ~seed =
  let rng = Util.rng ~seed ~stream:"estimate" in
  let next_kind = Util.rotation rng (Array.length kinds) in
  fun () -> draw rng (next_kind ())

let describe_request = function
  | Big { style; n; mbu; p; _ } ->
      Printf.sprintf "modadd_big %s n=%d mbu=%b p=%s" style.label n mbu
        (Bitstring.to_string p)
  | Mul { n; p; a; _ } -> Printf.sprintf "cmult_add cdkpm n=%d mbu=true p=%d a=%d" n p a

let describe ~seed k = List.map describe_request (Workload.take k (stream ~seed))

let cmult_engine = Mod_mul.ripple_engine ~mbu:true Mod_add.spec_cdkpm

(* The timed part of a request: build, then the three IR passes. *)
let estimate req =
  let b = Builder.create () in
  (match req with
  | Big { style; n; mbu; p; _ } ->
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" n in
      Spans.span "builder.emit" (fun () -> Mod_add.modadd_big ~mbu style.spec b ~p ~x ~y)
  | Mul { n; p; a; _ } ->
      let c = Builder.fresh_register b "c" 1 in
      let x = Builder.fresh_register b "x" n in
      let t = Builder.fresh_register b "t" n in
      Spans.span "builder.emit" (fun () ->
          Mod_mul.cmult_add cmult_engine b ~ctrl:(Register.get c 0) ~a ~p ~x
            ~target:t));
  let circuit = Spans.span "builder.to_circuit" (fun () -> Builder.to_circuit b) in
  let instrs = circuit.Circuit.instrs in
  let counts =
    Spans.span "ir.counts" (fun () ->
        Counts.of_instrs ~mode:(Counts.Expected 0.5) instrs)
  in
  let depth =
    Spans.span "ir.depth" (fun () -> Depth.of_instrs ~mode:(`Expected 0.5) instrs)
  in
  let profile = Spans.span "ir.profile" (fun () -> Trace.profile instrs) in
  (counts, depth, profile)

(* The closed forms keep the leading term only: a measured count may exceed
   them by the constant term they drop, at most two Toffolis for these
   rows, and never fall below them. *)
let dropped_constant = 2.

let correct req ((counts : Counts.t), (depth : Depth.r), (profile : Trace.entry)) =
  let formula_ok =
    match req with
    | Big { style; n; mbu; p; _ } ->
        let paper =
          (style.formula ~mbu Formulas.{ n; hp = Bitstring.hamming_weight p; ha = 0 })
            .Formulas.toffoli
        in
        let extra = counts.Counts.toffoli -. paper in
        extra >= 0. && extra <= dropped_constant
    | Mul _ -> true
  in
  formula_ok && depth.Depth.total > 0.
  && Counts.approx_equal profile.Trace.cum counts

let exec req =
  let kind = match req with Big { ix; _ } | Mul { ix; _ } -> ix in
  Workload.guard ~kind ~units:1 (fun () ->
      let result, seconds = Util.timed (fun () -> estimate req) in
      { Workload.kind; units = 1; failed = (if correct req result then 0 else 1); seconds })

(* Nothing to build ahead: set-up is a warm-up request of each family's
   cheapest kinds (modadd_big at n = 256, cmult_add at n = 32). *)
let setup ~seed =
  let next = stream ~seed in
  let warm = Util.rng ~seed ~stream:"estimate-warm-up" in
  Workload.warm_up exec
    (List.filter_map
       (fun ix ->
         match kinds.(ix) with
         | Modadd_big { n = 256; _ } | Cmult { n = 32 } -> Some (draw warm ix)
         | Modadd_big _ | Cmult _ -> None)
       (List.init (Array.length kinds) Fun.id));
  fun () -> exec (next ())

let workload =
  { Workload.name = "estimate"; cycle = Array.length kinds; tail_pct = 90.; unit_name = "requests"; setup;
    describe }
