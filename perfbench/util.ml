(* Clock, order statistics, memory readings and seeded draws shared by the
   workloads and the probes. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* {1 Order statistics} *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a non-empty sample, [q] in [0, 1]. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Util.quantile: empty sample";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* The middle value; the mean of the two middle values of an even-sized
   sample. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Util.median: empty sample";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The latency at percentile [pct] (nearest rank), or at the highest lower
   rung of the ladder when fewer than ten samples lie beyond [pct]; with the
   percentile used and the number of samples beyond it. Samples too few for
   any rung fall back to the median. *)
let tail_ladder = [ 99.9; 99.; 95.; 90.; 75. ]

let tail ~pct xs =
  let n = List.length xs in
  let beyond pct =
    n - int_of_float (Float.ceil (pct /. 100. *. float_of_int n))
  in
  let pct =
    match
      List.find_opt (fun p -> p <= pct && beyond p >= 10) (pct :: tail_ladder)
    with
    | Some pct -> pct
    | None -> 50.
  in
  (pct, beyond pct, quantile xs (pct /. 100.))

(* {1 Memory} *)

(* Peak resident set of this process in MB, from VmHWM. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

external children_maxrss_kb : unit -> int = "perfbench_children_maxrss_kb"

(* Peak resident set of the largest child process waited for so far, MB. *)
let children_peak_rss_mb () = float_of_int (children_maxrss_kb ()) /. 1024.

(* {1 Seeded draws} *)

let rng ~seed ~stream = Random.State.make [| seed; Hashtbl.hash stream |]

(* Uniform [bits]-bit value (bits <= 62). *)
let draw_bits rng bits =
  let rec go acc have =
    if have >= bits then acc land ((1 lsl bits) - 1)
    else go ((acc lsl 30) lor Random.State.bits rng) (have + 30)
  in
  go 0 0

(* Odd [n]-bit modulus with its top bit set: 2^(n-1) < p < 2^n. *)
let draw_modulus rng n = draw_bits rng n lor (1 lsl (n - 1)) lor 1

(* Uniform in [0, bound) for any positive [bound] below 2^62. *)
let draw_below rng bound =
  let bits =
    let rec width b = if 1 lsl b >= bound then b else width (b + 1) in
    max 1 (width 0)
  in
  let rec go () =
    let v = draw_bits rng bits in
    if v < bound then v else go ()
  in
  go ()

(* Every kind once per cycle, in a fresh seeded order each cycle: the mix
   of request kinds is the same in every run, only the order varies. *)
let rotation rng kinds =
  let order = Array.init kinds Fun.id in
  let pos = ref kinds in
  fun () ->
    if !pos >= kinds then begin
      for i = kinds - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      pos := 0
    end;
    let k = order.(!pos) in
    incr pos;
    k
