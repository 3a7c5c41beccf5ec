open Mbu_circuit

let compute b ~c1 ~c2 ~target =
  Builder.with_span b "and.compute" @@ fun () ->
  Builder.toffoli b ~c1 ~c2 ~target

let uncompute b ~c1 ~c2 ~target =
  Builder.with_span b "and.uncompute" @@ fun () ->
  Builder.h b target;
  let bit = Builder.measure ~reset:true b target in
  Builder.if_bit b bit (fun () -> Builder.cz b c1 c2)

let within b ~c1 ~c2 ~target f =
  compute b ~c1 ~c2 ~target;
  f ();
  uncompute b ~c1 ~c2 ~target
