(* Benchmark harness entry point.

   With no arguments, runs every experiment (each paper table and figure,
   then the ablations). With arguments,
   runs only the named experiments: e.g.
     dune exec bench/main.exe -- fig7 fig14
   Use `list` to see the available names. *)

let experiments = Weaver_bench.Experiments.all

let () =
  let names = List.map fst experiments in
  match Array.to_list Sys.argv with
  | _ :: [] -> List.iter (fun (_, f) -> f ()) experiments
  | _ :: [ "list" ] -> List.iter print_endline names
  | _ :: args ->
      List.iter
        (fun arg ->
          match List.assoc_opt arg experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %S (try: %s)\n" arg (String.concat " " names);
              exit 1)
        args
  | [] -> assert false
