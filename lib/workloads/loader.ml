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

(* Every preloaded version is stamped [ts], the zero stamp, and shares
   one of two lifespans: stamps and lifespans are immutable, so a whole
   load allocates them once. *)
type load = { life : Mgraph.lifespan; closed : Mgraph.lifespan }

let zero_load cluster =
  let ts = Vclock.zero ~n:(Cluster.config cluster).Config.n_gatekeepers in
  { life = { created = ts; deleted = None }; closed = { created = ts; deleted = Some ts } }

(* property versions newest first, as successive [Mgraph.set_vertex_prop]
   calls at the load stamp leave them: a repeated key closes its older
   version at that stamp *)
let versions l kvs =
  let rec go newer acc = function
    | [] -> acc
    | (pkey, pval) :: older ->
        let p_life = if List.mem pkey newer then l.closed else l.life in
        go (pkey :: newer) ({ Mgraph.pkey; pval; p_life } :: acc) older
  in
  Array.of_list (List.rev (go [] [] (List.rev kvs)))

(* Preloaded edge [i] of every vertex is named [pre_<i>]: an edge is
   always named by its source and its id, and client edge ids
   ([e<addr>_<n>]) never take this form, so one load shares one string
   per index among all its vertices. *)
let pre_eids n = Array.init n (fun i -> "pre_" ^ string_of_int i)

(* One preloaded record, built in one pass: edge [i] of [n], in install
   order, is [edge_at i] = (dst, props), named [eids.(i)], and sits at
   [out.(n - 1 - i)] (newest first), where [n] successive
   [Mgraph.add_edge] calls would put it. *)
let record l ~eids ~vid ~props n edge_at =
  let edge i =
    let dst, eprops = edge_at i in
    { Mgraph.eid = eids.(i); dst; e_life = l.life; e_props = versions l eprops }
  in
  {
    Mgraph.vid;
    v_life = l.life;
    v_props = versions l props;
    out = Array.init n (fun j -> edge (n - 1 - j));
  }

(* A vertex's keys, writing only what cannot be derived: a "dir/" key
   only where [shard] differs from the directory's answer (the hashed home
   for a new vertex), and no "lu/" key, since an absent one reads as the
   zero stamp. *)
let bindings rt ~vid ~h ~shard r rest =
  let rest =
    if shard = Runtime.shard_of_handle rt h then rest
    else (Runtime.dirkey vid, Runtime.Dir shard) :: rest
  in
  (Runtime.vkey vid, Runtime.Vrec r) :: rest

let hashed cluster vid =
  Weaver_partition.Partition.hash_vertex ~shards:(Cluster.config cluster).Config.n_shards vid

let install_vertex cluster ~vid ?shard ?(props = []) ~edges () =
  let l = zero_load cluster in
  let edges = Array.of_list edges in
  let n = Array.length edges in
  let r = record l ~eids:(pre_eids n) ~vid ~props n (Array.get edges) in
  let rt = Cluster.runtime cluster in
  let h = Runtime.vertex_handle rt vid in
  let shard = match shard with Some s -> s | None -> hashed cluster vid in
  Store.load rt.Runtime.store (bindings rt ~vid ~h ~shard r [])

let install_all cluster ?assignment (g : Graphgen.t) =
  let l = zero_load cluster in
  let n = g.Graphgen.n_vertices in
  let vids = Array.init n (Graphgen.vid g) in
  (* number every vertex in load order: the store's apply hook numbers
     only the vertices a "dir/" key names *)
  let rt = Cluster.runtime cluster in
  let hs = Array.map (Runtime.vertex_handle rt) vids in
  (* install order: last-listed edge first, so [out] keeps edge-list order *)
  let nbrs = Array.make n [] in
  List.iter (fun (s, d) -> nbrs.(s) <- d :: nbrs.(s)) g.Graphgen.edges;
  let nbrs = Array.map Array.of_list nbrs in
  let eids = pre_eids (Array.fold_left (fun m a -> max m (Array.length a)) 0 nbrs) in
  let rec all i acc =
    if i < 0 then acc
    else
      let vid = vids.(i) in
      let dsts = nbrs.(i) in
      let r = record l ~eids ~vid ~props:[] (Array.length dsts) (fun e -> (vids.(dsts.(e)), [])) in
      let shard =
        match Option.bind assignment (fun a -> Hashtbl.find_opt a vid) with
        | Some s -> s
        | None -> hashed cluster vid
      in
      all (i - 1) (bindings rt ~vid ~h:hs.(i) ~shard r acc)
  in
  Store.load rt.Runtime.store (all (n - 1) []);
  (* make the records resident in shard memory by simulating the initial
     recovery read every shard performs when it boots with data present *)
  Cluster.reload_shards cluster

let fast_install cluster g = install_all cluster g

let fast_install_with_assignment cluster assignment g =
  install_all cluster ~assignment g
