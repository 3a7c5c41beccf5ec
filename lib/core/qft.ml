open Mbu_circuit

(* The one QFT loop. Process qubits from the MSB down so that the lower
   qubits are still in the computational basis when used as controls; drop
   the rotations finer than 2 pi / 2^cutoff. *)
let rotations b ~cutoff r =
  for i = Register.length r - 1 downto 0 do
    Builder.h b (Register.get r i);
    for j = i - 1 downto max 0 (i + 1 - cutoff) do
      Builder.cphase b ~control:(Register.get r j) ~target:(Register.get r i)
        (Phase.theta (i - j + 1))
    done
  done

let apply b r = Builder.with_span b "qft" (fun () -> rotations b ~cutoff:max_int r)

let apply_inverse b r =
  Builder.with_span b "iqft" (fun () ->
      Builder.emit_adjoint b (fun () -> rotations b ~cutoff:max_int r))

let within b r f =
  apply b r;
  f ();
  apply_inverse b r

let apply_approx b ~cutoff r =
  if cutoff < 1 then invalid_arg "Qft.apply_approx: cutoff must be >= 1";
  rotations b ~cutoff r

let apply_approx_inverse b ~cutoff r =
  Builder.emit_adjoint b (fun () -> apply_approx b ~cutoff r)
