(* In-memory tracing for the traced run. A span is named [<layer>.<call>]
   and records its start, end, parent span and request id; spans are kept
   in memory and written once at the end as Chrome trace-event JSON. A
   layer's self time is its span's duration minus the time its child spans
   cover. With tracing off, [span] is a direct call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 at the top level *)
  req : int;  (** request id; see [setup_req] and [probe_req] *)
  start : float;
  stop : float;
}

(* Request ids below zero tag work outside the timed requests. *)
let setup_req = -1
let probe_req = -2

let enabled = ref false
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_req = ref setup_req

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let req = !current_req and start = Util.now () in
    let finish () =
      stack := List.tl !stack;
      recorded := { id; name; parent; req; start; stop = Util.now () } :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let with_req req f =
  let saved = !current_req in
  current_req := req;
  Fun.protect ~finally:(fun () -> current_req := saved) f

let all () = List.rev !recorded

(* Self seconds of each span, by id. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.stop -. s.start)))
    spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      (s, s.stop -. s.start -. covered))
    spans

(* Calls and mean self seconds of the spans called [name] that satisfy
   [keep]; [None] when there are none. *)
let mean_self ?(keep = fun _ -> true) selfs name =
  let xs =
    List.filter_map
      (fun (s, self) -> if s.name = name && keep s then Some self else None)
      selfs
  in
  match xs with [] -> None | _ -> Some (List.length xs, Util.mean xs)

let chrome_json spans =
  let open Mbu_telemetry.Bench_compare in
  let t0 = List.fold_left (fun t s -> Float.min t s.start) infinity spans in
  (* Microseconds, to 0.1 us. *)
  let us seconds = Num (Float.round (seconds *. 1e7) /. 10.) in
  let event s =
    let layer =
      match String.index_opt s.name '.' with
      | Some i -> String.sub s.name 0 i
      | None -> s.name
    in
    Obj
      [ ("name", Str s.name); ("cat", Str layer); ("ph", Str "X");
        ("pid", Num 1.); ("tid", Num 1.); ("ts", us (s.start -. t0));
        ("dur", us (s.stop -. s.start));
        ( "args",
          Obj
            [ ("id", Json_out.int s.id); ("parent", Json_out.int s.parent);
              ("req", Json_out.int s.req) ] ) ]
  in
  Obj
    [ ("displayTimeUnit", Str "ms");
      ("traceEvents", Arr (List.map event spans)) ]
