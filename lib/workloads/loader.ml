open Weaver_core
module Store = Weaver_store.Store
module Vclock = Weaver_vclock.Vclock
module Mgraph = Weaver_graph.Mgraph

(* run one pipelined phase of batched transactions to completion *)
let run_phase cluster client ~batch ~pipeline ops ~fill =
  let ops_queue = Queue.create () in
  List.iter (fun op -> Queue.push op ops_queue) ops;
  let committed = ref 0 and failed = ref None and inflight = ref 0 in
  let rec submit_next () =
    if Option.is_none !failed && not (Queue.is_empty ops_queue) then begin
      let tx = Client.Tx.begin_ client in
      let n = ref 0 in
      while !n < batch && not (Queue.is_empty ops_queue) do
        fill tx (Queue.pop ops_queue);
        incr n
      done;
      incr inflight;
      Client.commit_async client tx ~on_result:(fun r ->
          decr inflight;
          (match r with
          | Ok () -> incr committed
          | Error e -> if Option.is_none !failed then failed := Some e);
          submit_next ())
    end
  in
  for _ = 1 to pipeline do
    submit_next ()
  done;
  let budget = ref 1_000_000 in
  while !inflight > 0 && !budget > 0 do
    decr budget;
    Cluster.run_for cluster 1_000.0
  done;
  match !failed with
  | Some e -> Error e
  | None -> if !inflight = 0 then Ok !committed else Error "load stalled"

let bulk_load cluster client ?(batch = 64) ?(pipeline = 16) (g : Graphgen.t) =
  (* vertices first, then a pipeline barrier, then edges: an edge batch
     must never race ahead of the batch creating its endpoints *)
  let vertex_phase =
    run_phase cluster client ~batch ~pipeline
      (List.init g.Graphgen.n_vertices Fun.id)
      ~fill:(fun tx i -> ignore (Client.Tx.create_vertex tx ~id:(Graphgen.vid g i) ()))
  in
  match vertex_phase with
  | Error e -> Error e
  | Ok v_txs -> (
      let edge_phase =
        run_phase cluster client ~batch ~pipeline g.Graphgen.edges
          ~fill:(fun tx (s, d) ->
            ignore
              (Client.Tx.create_edge tx ~src:(Graphgen.vid g s) ~dst:(Graphgen.vid g d)))
      in
      match edge_phase with Error e -> Error e | Ok e_txs -> Ok (v_txs + e_txs))

let zero_stamp cluster =
  Vclock.zero ~n:(Cluster.config cluster).Config.n_gatekeepers

(* Every preloaded version is stamped [ts], the zero stamp. Stamps are
   immutable, so a whole install shares one instead of allocating two per
   vertex. *)
let install_record cluster ~ts ?shard vid (record : Mgraph.vertex) =
  let rt = Cluster.runtime cluster in
  let shard =
    match shard with
    | Some s -> s
    | None ->
        Weaver_partition.Partition.hash_vertex
          ~shards:(Cluster.config cluster).Config.n_shards vid
  in
  let stx = Store.Tx.begin_ rt.Runtime.store in
  Store.Tx.put stx (Runtime.vkey vid) (Runtime.Vrec record);
  Store.Tx.put stx (Runtime.dirkey vid) (Runtime.Dir shard);
  Store.Tx.put stx (Runtime.lukey vid) (Runtime.Stamp ts);
  match Store.Tx.commit stx with
  | Ok () -> ()
  | Error _ -> invalid_arg "fast_install: store conflict during preload"

let install_at cluster ~ts ~vid ?shard ?(props = []) ~edges () =
  let before a b = Vclock.precedes a b in
  let v = Mgraph.create_vertex ~vid ~at:ts in
  let v =
    List.fold_left
      (fun v (key, value) -> Mgraph.set_vertex_prop before v ~key ~value ~at:ts)
      v props
  in
  let _, v =
    List.fold_left
      (fun (i, v) (dst, eprops) ->
        let eid = "pre_" ^ vid ^ "_" ^ string_of_int i in
        let v = Mgraph.add_edge v ~eid ~dst ~at:ts in
        let v =
          List.fold_left
            (fun v (key, value) -> Mgraph.set_edge_prop before v ~eid ~key ~value ~at:ts)
            v eprops
        in
        (i + 1, v))
      (0, v) edges
  in
  install_record cluster ~ts ?shard vid v

let install_vertex cluster ~vid ?shard ?props ~edges () =
  install_at cluster ~ts:(zero_stamp cluster) ~vid ?shard ?props ~edges ()

let install_all cluster ?assignment (g : Graphgen.t) =
  let ts = zero_stamp cluster in
  let nbrs = Array.make g.Graphgen.n_vertices [] in
  List.iter (fun (s, d) -> nbrs.(s) <- Graphgen.vid g d :: nbrs.(s)) g.Graphgen.edges;
  for i = 0 to g.Graphgen.n_vertices - 1 do
    let vid = Graphgen.vid g i in
    let shard = Option.bind assignment (fun a -> Hashtbl.find_opt a vid) in
    install_at cluster ~ts ~vid ?shard
      ~edges:(List.map (fun d -> (d, [])) nbrs.(i))
      ()
  done;
  (* make the records resident in shard memory by simulating the initial
     recovery read every shard performs when it boots with data present *)
  Cluster.reload_shards cluster

let fast_install cluster g = install_all cluster g

let fast_install_with_assignment cluster assignment g =
  install_all cluster ~assignment g
