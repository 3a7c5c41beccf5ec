(* Process-wide metrics registry.

   Three instrument kinds — monotonic counters, gauges with high-water
   tracking, and fixed-bucket log2-scale histograms — all safe to update
   from any domain. Counters and histograms stripe their cells by
   [Shard.index] (the running domain's id on OCaml 5, one stripe on 4.14)
   and merge on read, so hot-path updates never contend across shot
   workers; gauges are updated rarely (per alloc/free, per run) and use a
   single atomic cell plus a CAS-max high-water mark.

   Reads (snapshot / exposition) race benignly with writers: a snapshot
   taken mid-update is a consistent *possible* state of each cell, which
   is all a metrics endpoint promises. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Striped atomic cells *)

type cells = int Atomic.t array

let make_cells () = Array.init Shard.stripes (fun _ -> Atomic.make 0)
let bump cells n = ignore (Atomic.fetch_and_add cells.(Shard.index ()) n)
let cells_total cells = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 cells
let cells_reset cells = Array.iter (fun c -> Atomic.set c 0) cells

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let rec atomic_add_float a d =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. d)) then atomic_add_float a d

(* ------------------------------------------------------------------ *)
(* Instruments *)

type counter = { c_name : string; c_help : string; c_cells : cells }

type gauge = {
  g_name : string;
  g_help : string;
  g_value : int Atomic.t;
  g_hwm : int Atomic.t;
}

type histogram = {
  h_name : string;
  h_help : string;
  h_base : float;  (* upper bound of bucket 0 *)
  h_bounds : float array;  (* upper bounds; length = buckets - 1, last
                              bucket is the +Inf overflow *)
  h_buckets : cells array;
  h_sum : float Atomic.t array;  (* striped like the buckets *)
}

type instrument =
  | Counter_i of counter
  | Gauge_i of gauge
  | Histogram_i of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let register name make classify =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some i -> (
          match classify i with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Telemetry: %S is already registered as another kind" name))
      | None ->
          let i, v = make () in
          Hashtbl.replace registry name i;
          v)

(* ------------------------------------------------------------------ *)
(* Counters *)

let counter ?(help = "") name =
  register name
    (fun () ->
      let c = { c_name = name; c_help = help; c_cells = make_cells () } in
      (Counter_i c, c))
    (function Counter_i c -> Some c | _ -> None)

let incr c = bump c.c_cells 1

let add c n =
  if n < 0 then invalid_arg "Telemetry.add: counters are monotonic";
  bump c.c_cells n

let counter_value c = cells_total c.c_cells

(* ------------------------------------------------------------------ *)
(* Gauges *)

let gauge ?(help = "") name =
  register name
    (fun () ->
      let g =
        { g_name = name; g_help = help; g_value = Atomic.make 0;
          g_hwm = Atomic.make 0 }
      in
      (Gauge_i g, g))
    (function Gauge_i g -> Some g | _ -> None)

let set_gauge g v =
  Atomic.set g.g_value v;
  atomic_max g.g_hwm v

let observe_max g v = atomic_max g.g_hwm v
let gauge_value g = Atomic.get g.g_value
let gauge_highwater g = Atomic.get g.g_hwm

(* ------------------------------------------------------------------ *)
(* Histograms *)

let histogram ?(help = "") ?(base = 1e-6) ?(buckets = 28) name =
  if buckets < 2 then invalid_arg "Telemetry.histogram: need >= 2 buckets";
  if not (base > 0.) then invalid_arg "Telemetry.histogram: base must be > 0";
  register name
    (fun () ->
      let h =
        { h_name = name; h_help = help; h_base = base;
          h_bounds = Array.init (buckets - 1) (fun i ->
              base *. Float.of_int (1 lsl i));
          h_buckets = Array.init buckets (fun _ -> make_cells ());
          h_sum = Array.init Shard.stripes (fun _ -> Atomic.make 0.) }
      in
      (Histogram_i h, h))
    (function Histogram_i h -> Some h | _ -> None)

(* Bucket i covers (base * 2^(i-1), base * 2^i]; bucket 0 takes everything
   <= base (including zero and negatives, which the latency/allocation
   instruments never produce but which must not crash), the last bucket is
   the +Inf overflow. *)
let bucket_index h v =
  let nb = Array.length h.h_buckets in
  if not (v > h.h_base) then 0 (* also catches NaN *)
  else if not (Float.is_finite v) then nb - 1 (* +Inf overflow bucket;
      int_of_float infinity is unspecified *)
  else
    let i = int_of_float (Float.ceil (Float.log2 (v /. h.h_base))) in
    if i >= nb then nb - 1 else if i < 1 then 1 else i

let observe h v =
  bump h.h_buckets.(bucket_index h v) 1;
  atomic_add_float h.h_sum.(Shard.index ()) v

let time h f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> observe h (now () -. t0)) f

let histogram_count h =
  Array.fold_left (fun acc cells -> acc + cells_total cells) 0 h.h_buckets

let histogram_sum h =
  Array.fold_left (fun acc a -> acc +. Atomic.get a) 0. h.h_sum

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type sample =
  | Counter_sample of { name : string; help : string; value : int }
  | Gauge_sample of { name : string; help : string; value : int; highwater : int }
  | Histogram_sample of {
      name : string;
      help : string;
      count : int;
      sum : float;
      buckets : (float * int) array;  (* (le, cumulative count); last le
                                         is infinity *)
    }

let sample_name = function
  | Counter_sample { name; _ }
  | Gauge_sample { name; _ }
  | Histogram_sample { name; _ } -> name

let sample_of = function
  | Counter_i c ->
      Counter_sample { name = c.c_name; help = c.c_help;
                       value = counter_value c }
  | Gauge_i g ->
      Gauge_sample { name = g.g_name; help = g.g_help;
                     value = gauge_value g; highwater = gauge_highwater g }
  | Histogram_i h ->
      let nb = Array.length h.h_buckets in
      let cum = ref 0 in
      let buckets =
        Array.init nb (fun i ->
            cum := !cum + cells_total h.h_buckets.(i);
            let le =
              if i = nb - 1 then Float.infinity else h.h_bounds.(i)
            in
            (le, !cum))
      in
      Histogram_sample { name = h.h_name; help = h.h_help; count = !cum;
                         sum = histogram_sum h; buckets }

let snapshot () =
  with_lock (fun () ->
      Hashtbl.fold (fun _ i acc -> sample_of i :: acc) registry [])
  |> List.sort (fun a b -> compare (sample_name a) (sample_name b))

let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter_i c -> cells_reset c.c_cells
          | Gauge_i g ->
              Atomic.set g.g_value 0;
              Atomic.set g.g_hwm 0
          | Histogram_i h ->
              Array.iter cells_reset h.h_buckets;
              Array.iter (fun a -> Atomic.set a 0.) h.h_sum)
        registry)

(* ------------------------------------------------------------------ *)
(* Exposition *)

let fmt_le le = if le = Float.infinity then "+Inf" else Printf.sprintf "%g" le

(* OpenMetrics text format. Counters expose [name_total] under a [# TYPE
   name counter] family; a gauge's high-water mark is a second gauge family
   [name_highwater]. Terminated by the mandatory [# EOF]. *)
let to_openmetrics () =
  let buf = Buffer.create 4096 in
  (* the format escapes backslash and newline in HELP text *)
  let escape_help help =
    String.split_on_char '\\' help |> String.concat "\\\\"
    |> String.split_on_char '\n' |> String.concat "\\n"
  in
  let family name kind help =
    if help <> "" then
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (function
      | Counter_sample { name; help; value } ->
          family name "counter" help;
          Buffer.add_string buf (Printf.sprintf "%s_total %d\n" name value)
      | Gauge_sample { name; help; value; highwater } ->
          family name "gauge" help;
          Buffer.add_string buf (Printf.sprintf "%s %d\n" name value);
          family (name ^ "_highwater") "gauge" (help ^ " (high-water mark)");
          Buffer.add_string buf
            (Printf.sprintf "%s_highwater %d\n" name highwater)
      | Histogram_sample { name; help; count; sum; buckets } ->
          family name "histogram" help;
          Array.iter
            (fun (le, cum) ->
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=%S} %d\n" name (fmt_le le) cum))
            buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" name (Json.number sum));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name count))
    (snapshot ());
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let to_json () =
  let open Json in
  let int i = Num (float_of_int i) in
  let metric kind name help fields =
    Obj ([ ("name", Str name); ("kind", Str kind); ("help", Str help) ] @ fields)
  in
  let bucket (le, cum) = Obj [ ("le", Str (fmt_le le)); ("count", int cum) ] in
  let sample = function
    | Counter_sample { name; help; value } ->
        metric "counter" name help [ ("value", int value) ]
    | Gauge_sample { name; help; value; highwater } ->
        metric "gauge" name help [ ("value", int value); ("highwater", int highwater) ]
    | Histogram_sample { name; help; count; sum; buckets } ->
        metric "histogram" name help
          [ ("count", int count); ("sum", Num sum);
            ("buckets", Arr (Array.to_list (Array.map bucket buckets))) ]
  in
  to_string (Obj [ ("metrics", Arr (List.map sample (snapshot ()))) ])

(* Flat (name, value) pairs — the shape Chrome trace counter events and
   quick assertions want. *)
let counters_alist () =
  List.concat_map
    (function
      | Counter_sample { name; value; _ } ->
          [ (name ^ "_total", float_of_int value) ]
      | Gauge_sample { name; value; highwater; _ } ->
          [ (name, float_of_int value);
            (name ^ "_highwater", float_of_int highwater) ]
      | Histogram_sample { name; count; sum; _ } ->
          [ (name ^ "_count", float_of_int count); (name ^ "_sum", sum) ])
    (snapshot ())

(* ------------------------------------------------------------------ *)
(* Minimal OpenMetrics parser (for round-trip tests and scripting): each
   sample line becomes (name-with-labels, value); comment lines are
   validated to be [# HELP], [# TYPE] or [# EOF]. *)

let parse_openmetrics text =
  let samples = ref [] in
  String.split_on_char '\n' text
  |> List.iteri (fun lineno line ->
         let fail msg =
           failwith
             (Printf.sprintf "Telemetry.parse_openmetrics: line %d: %s"
                (lineno + 1) msg)
         in
         if line = "" then ()
         else if String.length line > 0 && line.[0] = '#' then begin
           if
             not
               (List.exists
                  (fun p ->
                    String.length line >= String.length p
                    && String.sub line 0 (String.length p) = p)
                  [ "# HELP "; "# TYPE "; "# EOF" ])
           then fail "unknown comment form"
         end
         else
           match String.rindex_opt line ' ' with
           | None -> fail "sample line without a value"
           | Some i -> (
               let name = String.sub line 0 i in
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match float_of_string_opt v with
               | Some f -> samples := (name, f) :: !samples
               | None -> fail (Printf.sprintf "unparsable value %S" v)));
  List.rev !samples
