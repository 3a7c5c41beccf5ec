(* End-to-end checks of mbu-cli's error paths: each runs the built binary
   (next to this test executable, under bin/) and reads its exit code and
   standard error. *)

let cli =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "mbu_cli.exe")

(* Exit code and standard-error lines of one mbu-cli run. *)
let run args =
  if not (Sys.file_exists cli) then Alcotest.failf "%s is not built" cli;
  let err = Filename.temp_file "mbu_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote cli) args
         (Filename.quote err))
  in
  let lines = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  (code, String.split_on_char '\n' (String.trim lines))

(* Circuits wider than the simulator's 62 wires: one [mbu-cli:] line naming
   the cap and exit 2, never an uncaught exception. *)
let test_width_cap () =
  List.iter
    (fun (args, actual) ->
      let code, lines = run args in
      Alcotest.(check int) (args ^ ": exit") 2 code;
      Alcotest.(check (list string)) (args ^ ": stderr")
        [ Printf.sprintf
            "mbu-cli: State.basis: more wires than the simulator holds (limit \
             62, actual %d)"
            actual ]
        lines)
    [ ("simulate -c modadd -s cdkpm -n 20 --mbu", 64);
      ("inject -c modadd -s cdkpm -n 31 --mbu --runs 5", 97);
      ("metrics -c modadd -n 20 --mbu", 64) ]

let suite =
  ( "cli",
    [ Alcotest.test_case "62-wire cap: one error line" `Quick test_width_cap ] )
