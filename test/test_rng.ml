(* Tests for the keyed SplitMix64 generator every simulator and campaign
   draw comes from. *)

open Mbu_simulator

(* SplitMix64 from cell 0: the reference implementation's first outputs,
   which pin the stream on every compiler. *)
let test_known_answer () =
  let t = Rng.of_state 0L in
  List.iter
    (fun want ->
      Alcotest.(check string) "output" (Printf.sprintf "%016Lx" want)
        (Printf.sprintf "%016Lx" (Rng.bits64 t)))
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ]

(* Pearson's statistic over [bound] cells of [n] draws stays below the
   0.1% point of chi-square with [bound - 1] degrees of freedom (13.82 for
   2, 22.46 for 6), and every draw lands in [0, bound). *)
let chi_square ~bound ~critical =
  let t = Rng.make ~stream:0x7e57 ~seed:bound 0 in
  let n = 70_000 in
  let cells = Array.make bound 0 in
  for _ = 1 to n do
    let v = Rng.int t bound in
    if v < 0 || v >= bound then Alcotest.failf "int %d: drew %d" bound v;
    cells.(v) <- cells.(v) + 1
  done;
  let e = float_of_int n /. float_of_int bound in
  let stat =
    Array.fold_left
      (fun acc k -> acc +. (((float_of_int k -. e) ** 2.) /. e))
      0. cells
  in
  if stat > critical then
    Alcotest.failf "int %d: chi-square %.2f over %.2f" bound stat critical

let test_int_unbiased () =
  chi_square ~bound:3 ~critical:13.82;
  chi_square ~bound:7 ~critical:22.46

let test_int_range () =
  let t = Rng.make ~stream:1 ~seed:2 3 in
  List.iter
    (fun bound ->
      for _ = 1 to 2_000 do
        let v = Rng.int t bound in
        if v < 0 || v >= bound then Alcotest.failf "int %d: drew %d" bound v
      done)
    [ 1; 2; 5; 1 lsl 40; max_int ];
  List.iter
    (fun bound ->
      match Rng.int t bound with
      | _ -> Alcotest.failf "int %d accepted" bound
      | exception Mbu_circuit.Mbu_error.Error e ->
          Alcotest.(check string) "subsystem" "Rng.int" e.Mbu_circuit.Mbu_error.subsystem)
    [ 0; -1 ]

let test_float_range () =
  let t = Rng.make ~stream:4 ~seed:5 6 in
  let lo = ref 1. and hi = ref 0. in
  for _ = 1 to 100_000 do
    let f = Rng.float t in
    if not (f >= 0. && f < 1.) then Alcotest.failf "float drew %h" f;
    lo := Float.min !lo f;
    hi := Float.max !hi f
  done;
  (* 100 000 uniform draws come within 1e-3 of both ends. *)
  Alcotest.(check bool) "spread" true (!lo < 1e-3 && !hi > 1. -. 1e-3)

(* Every key one step from (stream 7, seed 11, index 13) starts a
   different stream. *)
let test_neighbouring_keys () =
  let first (stream, seed, index) = Rng.bits64 (Rng.make ~stream ~seed index) in
  let keys =
    [ (7, 11, 13); (7, 11, 12); (7, 11, 14); (7, 10, 13); (7, 12, 13);
      (8, 11, 13); (6, 11, 13); (7, 11, -1); (0, 0, 0) ]
  in
  let draws = List.map first keys in
  Alcotest.(check int) "distinct first draws" (List.length keys)
    (List.length (List.sort_uniq Int64.compare draws));
  Alcotest.(check bool) "same key, same stream" true
    (first (7, 11, 13) = first (7, 11, 13))

(* A draw reads and writes the unboxed cell: 100 000 of each kind cost
   no minor words. ([Rng.float] is left out: called from here, outside
   its module, it returns its float boxed.) *)
let test_draw_allocates_nothing () =
  let t = Rng.make ~stream:9 ~seed:9 9 in
  let words f =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let hits = ref 0 in
  let belows () =
    for _ = 1 to 100_000 do
      if Rng.below t 0.5 then incr hits
    done
  in
  let ints () =
    for _ = 1 to 100_000 do
      hits := !hits + Rng.int t 7
    done
  in
  let outcomes () =
    for _ = 1 to 100_000 do
      if State.draw_outcome t 0.3 then incr hits
    done
  in
  Alcotest.(check (float 0.)) "below" 0. (words belows);
  Alcotest.(check (float 0.)) "int" 0. (words ints);
  Alcotest.(check (float 0.)) "draw_outcome" 0. (words outcomes)

let suite =
  ( "rng",
    [ Alcotest.test_case "SplitMix64 known answer from 0" `Quick test_known_answer;
      Alcotest.test_case "int unbiased at 3 and 7" `Quick test_int_unbiased;
      Alcotest.test_case "int in [0, bound)" `Quick test_int_range;
      Alcotest.test_case "float in [0, 1)" `Quick test_float_range;
      Alcotest.test_case "neighbouring keys differ" `Quick test_neighbouring_keys;
      Alcotest.test_case "a draw allocates nothing" `Quick
        test_draw_allocates_nothing ] )
