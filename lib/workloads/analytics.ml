open Weaver_core
module Mgraph = Weaver_graph.Mgraph

let all_vertices cluster =
  Runtime.vertex_records (Cluster.runtime cluster)
  |> List.filter_map (fun (vid, (v : Mgraph.vertex)) ->
         match v.Mgraph.v_life.Mgraph.deleted with None -> Some vid | Some _ -> None)

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (k - 1) (x :: acc) rest
      in
      let chunk, rest = take n [] l in
      chunk :: chunks n rest

let run_all cluster client ~prog ~params ?(batch = 256) ?consistency ?at () =
  match Nodeprog.find (Cluster.registry cluster) prog with
  | None -> Error ("unknown program: " ^ prog)
  | Some (module P : Nodeprog.PROGRAM) ->
      let vertices = all_vertices cluster in
      let rec go acc = function
        | [] -> Ok acc
        | chunk :: rest -> (
            match
              Client.run_program client ~prog ~params ~starts:chunk ?consistency
                ?at ()
            with
            | Ok partial -> go (P.merge acc partial) rest
            | Error e -> Error e)
      in
      go P.empty (chunks batch vertices)
