open Mbu_telemetry

let m_gc_minor_words =
  Telemetry.counter
    ~help:"Minor-heap words allocated during shot loops and campaigns"
    "mbu_sim_gc_minor_words"

let m_gc_major_words =
  Telemetry.counter
    ~help:"Major-heap words allocated during shot loops and campaigns"
    "mbu_sim_gc_major_words"

(* [Gc.minor_words] reads the running domain's own allocation pointer, so
   the two readings count every word the block allocated, collected or not
   ([Gc.counters]'s minor words lag it on OCaml 5.1); the major words are
   the domain's own too. *)
let block f =
  let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
  let r = f () in
  let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
  Telemetry.add m_gc_minor_words (int_of_float (minor1 -. minor0));
  Telemetry.add m_gc_major_words (int_of_float (major1 -. major0));
  r
