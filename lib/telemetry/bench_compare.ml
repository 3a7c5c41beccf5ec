(* Bench-regression gate: diff a fresh BENCH_*.json (a [Json.t], printed
   and parsed by [Json]) against a committed baseline with per-metric
   thresholds. *)

type json = Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse = Json.parse
let parse_result = Json.parse_result
let member = Json.member

let workload j =
  match member "workload" j with Some (Str w) -> Some w | _ -> None

(* ------------------------------------------------------------------ *)
(* Flattening *)

(* Turn a bench document into (path, value) pairs. Object keys join with
   '.'; an array element that is an object carrying a "row" or "family"
   field is keyed by that field's value (plus "@<n>" when an "n" field
   distinguishes repeated rows, as in the mod_mul sizes of BENCH_build),
   so rows match by identity even if the table is reordered. Bools map to
   0/1; strings are dropped (they are identity, not metrics). *)
let flatten (j : json) : (string * float) list =
  let out = ref [] in
  let join prefix k = if prefix = "" then k else prefix ^ "." ^ k in
  let row_key el i =
    let label =
      match (member "row" el, member "family" el) with
      | Some (Str r), _ -> Some r
      | _, Some (Str f) -> Some f
      | _ -> None
    in
    match label with
    | None -> string_of_int i
    | Some l -> (
        match member "n" el with
        | Some (Num n) when Float.is_integer n ->
            Printf.sprintf "%s@%d" l (int_of_float n)
        | _ -> l)
  in
  let rec go prefix = function
    | Null | Str _ -> ()
    | Bool b -> out := (prefix, if b then 1. else 0.) :: !out
    | Num f -> out := (prefix, f) :: !out
    | Obj kvs -> List.iter (fun (k, v) -> go (join prefix k) v) kvs
    | Arr els ->
        List.iteri (fun i el -> go (join prefix (row_key el i)) el) els
  in
  go "" j;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Threshold policy *)

type direction =
  | Higher_worse  (* latencies, silent fault counts, gate counts *)
  | Lower_worse  (* throughputs, speedups, detection *)
  | Exact  (* deterministic counts: any change is a regression *)
  | Info  (* reported but never gates *)

type rule = { dir : direction; tol : float; abs_floor : float }

let info_rule = { dir = Info; tol = 0.; abs_floor = 0. }

let has_suffix suf s =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let contains sub s =
  let ls = String.length s and lb = String.length sub in
  let rec at i = i + lb <= ls && (String.sub s i lb = sub || at (i + 1)) in
  at 0

(* Policy keyed on the final path segment. Timing metrics get a wide
   relative band plus an absolute floor, because the committed baselines
   were measured on different hardware than CI and sub-millisecond
   numbers are mostly noise; deterministic counts (gates, fault
   classifications under a fixed seed) gate exactly. *)
let rule_for key =
  let leaf =
    match String.rindex_opt key '.' with
    | Some i -> String.sub key (i + 1) (String.length key - i - 1)
    | None -> key
  in
  if has_suffix "_ms" leaf then
    { dir = Higher_worse; tol = 3.0; abs_floor = 25.0 }
  else if has_suffix "_per_sec" leaf then
    { dir = Lower_worse; tol = 0.75; abs_floor = 0. }
  else if contains "speedup" leaf then
    { dir = Lower_worse; tol = 0.75; abs_floor = 0. }
  else if leaf = "silent" || leaf = "silent_rate" then
    { dir = Higher_worse; tol = 0.; abs_floor = 0. }
  else if leaf = "correct" || leaf = "detected" || leaf = "detection_rate" then
    { dir = Lower_worse; tol = 0.; abs_floor = 0. }
  else if leaf = "gates" then { dir = Higher_worse; tol = 0.; abs_floor = 0. }
  else if leaf = "live_words" then
    { dir = Higher_worse; tol = 1.0; abs_floor = 0. }
  else if leaf = "shared_nodes" then
    { dir = Lower_worse; tol = 0.; abs_floor = 0. }
  else if leaf = "sites" || leaf = "runs" || leaf = "lint_clean" then
    { dir = Exact; tol = 0.; abs_floor = 0. }
  else info_rule

(* ------------------------------------------------------------------ *)
(* Comparison *)

type status = Ok_within | Regressed | Improved | Informational | Missing

type delta = {
  key : string;
  baseline : float option;
  current : float option;
  rule : rule;
  status : status;
}

type report = {
  workload_name : string option;
  deltas : delta list;
  regressions : delta list;
}

let judge rule ~baseline:b ~current:c =
  match rule.dir with
  | Info -> Informational
  | Exact -> if c = b then Ok_within else Regressed
  | Higher_worse ->
      if c > b *. (1. +. rule.tol) && c -. b > rule.abs_floor then Regressed
      else if c < b then Improved
      else Ok_within
  | Lower_worse ->
      if c < b *. (1. -. rule.tol) && b -. c > rule.abs_floor then Regressed
      else if c > b then Improved
      else Ok_within

let compare_json ~baseline ~current =
  let base_flat = flatten baseline in
  let cur_flat = flatten current in
  let deltas =
    List.map
      (fun (key, b) ->
        let rule = rule_for key in
        match List.assoc_opt key cur_flat with
        | Some c ->
            { key; baseline = Some b; current = Some c; rule;
              status = judge rule ~baseline:b ~current:c }
        | None ->
            (* A gated metric that vanished is a regression: a renamed or
               dropped row must update the baseline explicitly. *)
            let status =
              if rule.dir = Info then Informational else Missing
            in
            { key; baseline = Some b; current = None; rule; status })
      base_flat
  in
  let fresh =
    List.filter_map
      (fun (key, c) ->
        if List.mem_assoc key base_flat then None
        else
          Some
            { key; baseline = None; current = Some c; rule = rule_for key;
              status = Informational })
      cur_flat
  in
  let deltas = deltas @ fresh in
  let regressions =
    List.filter (fun d -> d.status = Regressed || d.status = Missing) deltas
  in
  { workload_name = workload current; deltas; regressions }

let compare_strings ~baseline ~current =
  match (parse_result baseline, parse_result current) with
  | Error e, _ -> Error (Printf.sprintf "baseline: %s" e)
  | _, Error e -> Error (Printf.sprintf "current: %s" e)
  | Ok b, Ok c -> Ok (compare_json ~baseline:b ~current:c)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let fmt_opt = function
  | None -> "-"
  | Some v ->
      if Float.is_integer v && Float.abs v < 1e12 then
        Printf.sprintf "%.0f" v
      else Printf.sprintf "%.4g" v

let pct d =
  match (d.baseline, d.current) with
  | Some b, Some c when b <> 0. -> Printf.sprintf "%+.1f%%" ((c -. b) /. Float.abs b *. 100.)
  | Some b, Some c when b = 0. && c = 0. -> "+0.0%"
  | _ -> "-"

let status_label = function
  | Ok_within -> "ok"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Informational -> "info"
  | Missing -> "MISSING"

let render ?(show_info = false) report =
  let buf = Buffer.create 2048 in
  (match report.workload_name with
  | Some w -> Buffer.add_string buf (Printf.sprintf "workload: %s\n" w)
  | None -> ());
  let rows =
    List.filter
      (fun d -> show_info || d.status <> Informational)
      report.deltas
  in
  let cells =
    ("metric", "baseline", "current", "delta", "status")
    :: List.map
         (fun d -> (d.key, fmt_opt d.baseline, fmt_opt d.current, pct d,
                    status_label d.status))
         rows
  in
  let w f = List.fold_left (fun m r -> max m (String.length (f r))) 0 cells in
  let w1 = w (fun (a, _, _, _, _) -> a)
  and w2 = w (fun (_, b, _, _, _) -> b)
  and w3 = w (fun (_, _, c, _, _) -> c)
  and w4 = w (fun (_, _, _, d, _) -> d) in
  List.iter
    (fun (a, b, c, d, e) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-*s  %*s  %*s  %*s  %s\n" w1 a w2 b w3 c w4 d e))
    cells;
  Buffer.add_string buf
    (if report.regressions = [] then "  => no regressions\n"
     else
       Printf.sprintf "  => %d regression(s)\n"
         (List.length report.regressions));
  Buffer.contents buf
