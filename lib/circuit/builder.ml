open Mbu_telemetry

(* Live-ancilla gauge across all builders in the process: the current
   value tracks whichever builder allocated or freed last, the high-water
   mark is the process-wide pool peak — the number capacity planning
   cares about. *)
let m_ancilla_live =
  Telemetry.gauge ~help:"Live builder ancillas" "mbu_builder_ancilla_live"

type t = {
  mutable next_qubit : int;
  mutable next_bit : int;
  mutable input_qubits : int;
  mutable free_pool : Gate.qubit list;
  mutable is_free : bool array;  (* per wire: in [free_pool]; grown with
                                     [next_qubit] *)
  mutable live_ancillas : int;
  mutable peak_live : int;  (* high-water of live_ancillas since the innermost
                               open span began (see [with_span]) *)
  mutable top : Instr.t list;  (* innermost accumulator, reversed *)
  mutable outer : Instr.t list list;  (* enclosing accumulators, innermost first *)
}

let create () =
  { next_qubit = 0; next_bit = 0; input_qubits = 0; free_pool = [];
    is_free = Array.make 64 false; live_ancillas = 0; peak_live = 0;
    top = []; outer = [] }

let fresh_qubit b =
  if b.live_ancillas > 0 || b.free_pool <> [] then
    Mbu_error.invalid ~subsystem:"Builder.fresh_qubit" ~qubit:b.next_qubit
      "allocate inputs before ancillas";
  let q = b.next_qubit in
  b.next_qubit <- q + 1;
  b.input_qubits <- b.input_qubits + 1;
  q

let fresh_register b name n =
  Register.make ~name (Array.init n (fun _ -> fresh_qubit b))

let fresh_bit b =
  let c = b.next_bit in
  b.next_bit <- c + 1;
  c

let alloc_ancilla b =
  b.live_ancillas <- b.live_ancillas + 1;
  if b.live_ancillas > b.peak_live then b.peak_live <- b.live_ancillas;
  Telemetry.set_gauge m_ancilla_live b.live_ancillas;
  match b.free_pool with
  | q :: rest ->
      b.free_pool <- rest;
      b.is_free.(q) <- false;
      q
  | [] ->
      let q = b.next_qubit in
      b.next_qubit <- q + 1;
      let cap = Array.length b.is_free in
      if q >= cap then begin
        let grown = Array.make (max (2 * cap) (q + 1)) false in
        Array.blit b.is_free 0 grown 0 cap;
        b.is_free <- grown
      end;
      q

let reject_free q msg =
  Mbu_error.invalid ~subsystem:"Builder.free_ancilla" ~qubit:q msg

(* Inputs come first ([fresh_qubit] refuses them after any ancilla), so a
   live ancilla is a wire in [input_qubits, next_qubit) that is not free. *)
let free_ancilla b q =
  if q < 0 || q >= b.next_qubit then reject_free q "wire was never allocated";
  if q < b.input_qubits then reject_free q "wire is an input, not an ancilla";
  if b.is_free.(q) then reject_free q "double free";
  b.live_ancillas <- b.live_ancillas - 1;
  Telemetry.set_gauge m_ancilla_live b.live_ancillas;
  b.free_pool <- q :: b.free_pool;
  b.is_free.(q) <- true

let alloc_ancilla_register b name n =
  Register.make ~name (Array.init n (fun _ -> alloc_ancilla b))

let free_ancilla_register b r =
  (* Free MSB-first so LSB wires come back out of the pool first. *)
  let qs = Register.qubits r in
  for i = Array.length qs - 1 downto 0 do
    free_ancilla b qs.(i)
  done

let with_ancilla b f =
  let q = alloc_ancilla b in
  let r = f q in
  free_ancilla b q;
  r

let with_ancilla_register b name n f =
  let reg = alloc_ancilla_register b name n in
  let r = f reg in
  free_ancilla_register b reg;
  r

let num_qubits b = b.next_qubit
let input_qubits b = b.input_qubits
let ancilla_qubits b = b.next_qubit - b.input_qubits

let push b i = b.top <- i :: b.top

let gate b g =
  Gate.validate g;
  push b (Instr.Gate g)

let x b q = gate b (Gate.X q)
let z b q = gate b (Gate.Z q)
let h b q = gate b (Gate.H q)
let phase b q p = gate b (Gate.Phase (q, p))
let cnot b ~control ~target = gate b (Gate.Cnot { control; target })
let cz b a c = gate b (Gate.Cz (a, c))
let swap b a c = gate b (Gate.Swap (a, c))
let toffoli b ~c1 ~c2 ~target = gate b (Gate.Toffoli { c1; c2; target })
let cphase b ~control ~target p = gate b (Gate.Cphase { control; target; phase = p })

let measure ?(reset = false) b q =
  let bit = fresh_bit b in
  push b (Instr.Measure { qubit = q; bit; reset });
  bit

let enter b =
  b.outer <- b.top :: b.outer;
  b.top <- []

let leave b =
  match b.outer with
  | o :: rest ->
      let body = List.rev b.top in
      b.top <- o;
      b.outer <- rest;
      body
  | [] -> assert false

let if_bit ?(value = true) b bit f =
  enter b;
  let body =
    match f () with
    | () -> leave b
    | exception e ->
        ignore (leave b);
        raise e
  in
  push b (Instr.If_bit { bit; value; body })

let with_span b label f =
  enter b;
  (* [peak_live] tracks the high-water mark of the innermost open span; a
     child's peak folds back into the parent's running maximum on exit, so a
     parent span always covers its children's ancilla usage. *)
  let outer_peak = b.peak_live in
  b.peak_live <- b.live_ancillas;
  match f () with
  | v ->
      let body = leave b in
      let peak_ancillas = b.peak_live in
      b.peak_live <- max outer_peak peak_ancillas;
      push b (Instr.Span { label; peak_ancillas; body });
      v
  | exception e ->
      ignore (leave b);
      b.peak_live <- max outer_peak b.peak_live;
      raise e

let capture b f =
  enter b;
  match f () with
  | v -> (v, leave b)
  | exception e ->
      ignore (leave b);
      raise e

let emit b instrs =
  (* Splice in one rev-append instead of pushing instr-by-instr. *)
  b.top <- List.rev_append instrs b.top

let emit_adjoint b f =
  let (), instrs = capture b f in
  emit b (Instr.adjoint instrs)

(* Intern the instructions emitted by [f] as one anonymous hash-consed
   block. No span is wrapped around the body, so every metric, trace, and
   QASM emission is unchanged — only the in-memory representation dedups
   (and metric walks memoize the block). Ancilla accounting is untouched:
   allocations inside [f] hit the builder's global counters exactly as if
   the instructions were emitted inline. *)
let shared b f =
  enter b;
  match f () with
  | v ->
      (match leave b with
      | [] -> ()
      | body -> push b (Instr.share body));
      v
  | exception e ->
      ignore (leave b);
      raise e

let with_shared b label f =
  enter b;
  let outer_peak = b.peak_live in
  b.peak_live <- b.live_ancillas;
  match f () with
  | v ->
      let body = leave b in
      let peak_ancillas = b.peak_live in
      b.peak_live <- max outer_peak peak_ancillas;
      push b (Instr.share [ Instr.Span { label; peak_ancillas; body } ]);
      v
  | exception e ->
      ignore (leave b);
      b.peak_live <- max outer_peak b.peak_live;
      raise e

let to_circuit b =
  match b.outer with
  | [] ->
      (* Every gate was validated by [gate] on emission, so construction
         takes the trusted path. *)
      Circuit.make ~validate:false ~num_qubits:b.next_qubit
        ~num_bits:b.next_bit (List.rev b.top)
  | _ :: _ ->
      Mbu_error.invalid ~subsystem:"Builder.to_circuit"
        "unbalanced capture/if block"
