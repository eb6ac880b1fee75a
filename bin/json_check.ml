(* Reads one JSON document on stdin and exits non-zero, with the parser's
   message, when Weaver_util.Json cannot parse it. The smoke alias pipes
   every JSON-emitting weaver_cli run through it. *)

let () =
  match Weaver_util.Json.parse (In_channel.input_all stdin) with
  | Ok _ -> ()
  | Error e ->
      prerr_endline ("invalid JSON: " ^ e);
      exit 1
