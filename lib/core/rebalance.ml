module Mgraph = Weaver_graph.Mgraph
module Partition = Weaver_partition.Partition

type report = {
  examined : int;
  moved : int;
  edge_cut_before : float;
  edge_cut_after : float;
}

(* live adjacency from the durable records: vertex → live out-neighbours *)
let live_adjacency cluster =
  Runtime.vertex_records (Cluster.runtime cluster)
  |> List.filter_map (fun (vid, (v : Mgraph.vertex)) ->
         match v.Mgraph.v_life.Mgraph.deleted with
         | None ->
             let nbrs =
               List.filter_map
                 (fun (e : Mgraph.edge) ->
                   if e.Mgraph.e_life.Mgraph.deleted = None then Some e.Mgraph.dst
                   else None)
                 (Array.to_list v.Mgraph.out)
             in
             Some (vid, nbrs)
         | _ -> None)

let current_assignment cluster =
  let assign : Partition.assignment = Hashtbl.create 1024 in
  List.iter
    (fun (vid, _) -> Hashtbl.replace assign vid (Cluster.shard_of_vertex cluster vid))
    (live_adjacency cluster);
  assign

let run cluster client ?(max_moves = 128) () =
  let adjacency = live_adjacency cluster in
  let shards = (Cluster.config cluster).Config.n_shards in
  let before = current_assignment cluster in
  let edge_cut_before = Partition.edge_cut before adjacency in
  let target = Partition.ldg ~shards adjacency in
  let moves = ref 0 and examined = ref 0 in
  List.iter
    (fun (vid, _) ->
      incr examined;
      if !moves < max_moves then
        match (Hashtbl.find_opt before vid, Hashtbl.find_opt target vid) with
        | Some cur, Some want when cur <> want -> (
            match Client.migrate client ~vid ~to_shard:want with
            | Ok () -> incr moves
            | Error _ -> () (* racing writer: skip this round *))
        | _ -> ())
    adjacency;
  Cluster.run_for cluster 10_000.0;
  let after = current_assignment cluster in
  {
    examined = !examined;
    moved = !moves;
    edge_cut_before;
    edge_cut_after = Partition.edge_cut after adjacency;
  }
