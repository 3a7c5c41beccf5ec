type kind =
  | Invalid
  | Resource_limit of { limit : int; actual : int }

type t = {
  kind : kind;
  subsystem : string;
  message : string;
  qubit : int option;
  bit : int option;
  register : string option;
}

exception Error of t

let make ?qubit ?bit ?register kind ~subsystem message =
  { kind; subsystem; message; qubit; bit; register }

let invalid ?qubit ?bit ?register ~subsystem message =
  raise (Error (make ?qubit ?bit ?register Invalid ~subsystem message))

let resource_limit ?qubit ?bit ?register ~limit ~actual ~subsystem message =
  raise
    (Error
       (make ?qubit ?bit ?register (Resource_limit { limit; actual }) ~subsystem
          message))

let to_string e =
  let b = Buffer.create 80 in
  Buffer.add_string b e.subsystem;
  Buffer.add_string b ": ";
  Buffer.add_string b e.message;
  (match e.kind with
  | Invalid -> ()
  | Resource_limit { limit; actual } ->
      Buffer.add_string b (Printf.sprintf " (limit %d, actual %d)" limit actual));
  let ctx = Buffer.create 32 in
  let add s = if Buffer.length ctx > 0 then Buffer.add_string ctx ", ";
              Buffer.add_string ctx s in
  Option.iter (fun q -> add (Printf.sprintf "qubit %d" q)) e.qubit;
  Option.iter (fun c -> add (Printf.sprintf "bit %d" c)) e.bit;
  Option.iter (fun r -> add (Printf.sprintf "register %s" r)) e.register;
  if Buffer.length ctx > 0 then begin
    Buffer.add_string b " [";
    Buffer.add_buffer b ctx;
    Buffer.add_string b "]"
  end;
  Buffer.contents b

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Mbu_error: " ^ to_string e)
    | _ -> None)
