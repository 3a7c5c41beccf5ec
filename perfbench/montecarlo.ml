(* montecarlo: the paper's Monte-Carlo validation path. Each request runs
   [Sim.run_shots ~engine:Fast ~jobs:2 ~shots:2000] on one of the five
   ripple-carry Table-1 modular adders with MBU on; moduli are drawn in
   set-up and x, y per request. Oracle, per shot: y = (x + y) mod p computed
   classically, x unchanged, every other wire back to |0>. *)

open Mbu_circuit
open Mbu_core
open Mbu_simulator

type row = {
  label : string;
  n : int;
  build : Builder.t -> p:int -> x:Register.t -> y:Register.t -> unit;
}

(* The widest n at which each row fits the simulator's 62-wire cap. *)
let rows =
  [| { label = "vbe5"; n = 15;
       build = (fun b ~p ~x ~y -> Mod_add.modadd_vbe_5adder ~mbu:true b ~p ~x ~y) };
     { label = "vbe4"; n = 15;
       build = (fun b ~p ~x ~y -> Mod_add.modadd_vbe_4adder ~mbu:true b ~p ~x ~y) };
     { label = "cdkpm"; n = 16;
       build = (fun b ~p ~x ~y -> Mod_add.modadd ~mbu:true Mod_add.spec_cdkpm b ~p ~x ~y) };
     { label = "cdkpm+gidney"; n = 16;
       build = (fun b ~p ~x ~y -> Mod_add.modadd ~mbu:true Mod_add.spec_mixed b ~p ~x ~y) };
     { label = "gidney"; n = 14;
       build = (fun b ~p ~x ~y -> Mod_add.modadd ~mbu:true Mod_add.spec_gidney b ~p ~x ~y) } |]

let shots = 2000
let jobs = 2

type prepared = {
  row : row;
  p : int;
  circuit : Circuit.t;
  num_qubits : int;
  x : Register.t;
  y : Register.t;
}

let build row ~p =
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" row.n in
  let y = Builder.fresh_register b "y" row.n in
  Spans.span "builder.emit" (fun () -> row.build b ~p ~x ~y);
  let circuit = Spans.span "builder.to_circuit" (fun () -> Builder.to_circuit b) in
  { row; p; circuit; num_qubits = Builder.num_qubits b; x; y }

let init pr ~xv ~yv =
  Sim.init_registers ~num_qubits:pr.num_qubits [ (pr.x, xv); (pr.y, yv) ]

(* Shots of [runs] that break the classical oracle. *)
let bad_shots pr ~xv ~yv runs =
  let expect_y = (xv + yv) mod pr.p in
  Array.fold_left
    (fun bad (r : Sim.run) ->
      let ok =
        Sim.register_value r.Sim.state pr.y = Some expect_y
        && Sim.register_value r.Sim.state pr.x = Some xv
        && Sim.wires_zero r.Sim.state ~except:[ pr.x; pr.y ]
      in
      if ok then bad else bad + 1)
    0 runs

type request = { row_ix : int; xv : int; yv : int; shot_seed : int }

let draw rng moduli row_ix =
  let p = moduli.(row_ix) in
  let xv = Util.draw_below rng p in
  let yv = Util.draw_below rng p in
  { row_ix; xv; yv; shot_seed = Random.State.bits rng }

(* The seeded stream: one modulus per row, then per request a row (each
   row once per cycle), its inputs and the shots' seed. *)
let stream ~seed =
  let rng = Util.rng ~seed ~stream:"montecarlo" in
  let moduli = Array.map (fun r -> Util.draw_modulus rng r.n) rows in
  let next_row = Util.rotation rng (Array.length rows) in
  (moduli, fun () -> draw rng moduli (next_row ()))

let describe ~seed k =
  let moduli, next = stream ~seed in
  Workload.take k (fun () ->
      let r = next () in
      Printf.sprintf "%s p=%d x=%d y=%d seed=%d" rows.(r.row_ix).label
        moduli.(r.row_ix) r.xv r.yv r.shot_seed)

let exec prepared r =
  let pr = prepared.(r.row_ix) in
  let init = init pr ~xv:r.xv ~yv:r.yv in
  Workload.guard ~kind:r.row_ix ~units:shots (fun () ->
      let runs, seconds =
        Util.timed (fun () ->
            Spans.span "sim.run_shots" (fun () ->
                Sim.run_shots ~seed:r.shot_seed ~jobs ~engine:Sim.Fast ~shots
                  pr.circuit ~init))
      in
      let failed = bad_shots pr ~xv:r.xv ~yv:r.yv runs in
      { Workload.kind = r.row_ix; units = shots; failed; seconds })

(* Set-up: build the five circuits, then one warm-up request per row. *)
let setup ~seed =
  let moduli, next = stream ~seed in
  let prepared = Array.mapi (fun i row -> build row ~p:moduli.(i)) rows in
  let warm = Util.rng ~seed ~stream:"montecarlo-warm-up" in
  Workload.warm_up (exec prepared)
    (List.init (Array.length rows) (draw warm moduli));
  fun () -> exec prepared (next ())

let workload =
  { Workload.name = "montecarlo"; cycle = Array.length rows; tail_pct = 95.; unit_name = "shots"; setup;
    describe }
