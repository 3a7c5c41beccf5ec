open Mbu_circuit

(* Process qubits from the MSB down so that the lower qubits are still in the
   computational basis when used as controls. *)
let apply_raw b r =
  let m = Register.length r in
  for i = m - 1 downto 0 do
    Builder.h b (Register.get r i);
    for j = i - 1 downto 0 do
      Builder.cphase b ~control:(Register.get r j) ~target:(Register.get r i)
        (Phase.theta (i - j + 1))
    done
  done

let apply b r = Builder.with_span b "qft" (fun () -> apply_raw b r)

let apply_inverse b r =
  Builder.with_span b "iqft" (fun () ->
      Builder.emit_adjoint b (fun () -> apply_raw b r))

let apply_approx b ~cutoff r =
  if cutoff < 1 then invalid_arg "Qft.apply_approx: cutoff must be >= 1";
  let m = Register.length r in
  for i = m - 1 downto 0 do
    Builder.h b (Register.get r i);
    for j = i - 1 downto max 0 (i + 1 - cutoff) do
      Builder.cphase b ~control:(Register.get r j) ~target:(Register.get r i)
        (Phase.theta (i - j + 1))
    done
  done

let apply_approx_inverse b ~cutoff r =
  Builder.emit_adjoint b (fun () -> apply_approx b ~cutoff r)
