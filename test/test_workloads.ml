(* Tests for graph generators, the TAO mix, loading paths, and the
   synthetic blockchain. *)

open Weaver_workloads
open Weaver_core
module Xrand = Weaver_util.Xrand
module Programs = Weaver_programs.Std_programs
module Store = Weaver_store.Store
module Mgraph = Weaver_graph.Mgraph

let mk_cluster ?(cfg = Config.default) () =
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  c

let test_uniform_gen () =
  let rng = Xrand.create ~seed:1 () in
  let g = Graphgen.uniform ~rng ~vertices:100 ~edges:400 () in
  Alcotest.(check int) "vertices" 100 g.Graphgen.n_vertices;
  Alcotest.(check bool) "edges nonempty" true (List.length g.Graphgen.edges > 300);
  List.iter
    (fun (s, d) ->
      Alcotest.(check bool) "in range" true (s >= 0 && s < 100 && d >= 0 && d < 100);
      Alcotest.(check bool) "no self loop" true (s <> d))
    g.Graphgen.edges;
  (* no duplicates *)
  let uniq = List.sort_uniq compare g.Graphgen.edges in
  Alcotest.(check int) "dedup" (List.length g.Graphgen.edges) (List.length uniq)

let test_rmat_skew () =
  let rng = Xrand.create ~seed:2 () in
  let g = Graphgen.rmat ~rng ~vertices:256 ~edges:2000 () in
  let deg = Array.make 256 0 in
  List.iter (fun (s, _) -> deg.(s) <- deg.(s) + 1) g.Graphgen.edges;
  let sorted = Array.copy deg in
  Array.sort (fun a b -> compare b a) sorted;
  let top10 = Array.fold_left ( + ) 0 (Array.sub sorted 0 26) in
  let total = Array.fold_left ( + ) 0 deg in
  Alcotest.(check bool) "rmat head-heavy" true
    (float_of_int top10 /. float_of_int total > 0.25)

let test_preferential () =
  let rng = Xrand.create ~seed:3 () in
  let g = Graphgen.preferential ~rng ~vertices:200 ~out_degree:3 () in
  Alcotest.(check bool) "enough edges" true (List.length g.Graphgen.edges > 400);
  let indeg = Array.make 200 0 in
  List.iter (fun (_, d) -> indeg.(d) <- indeg.(d) + 1) g.Graphgen.edges;
  let max_in = Array.fold_left max 0 indeg in
  Alcotest.(check bool) "hubs emerge" true (max_in > 8)

let test_chain_star () =
  let chain = Graphgen.chain ~vertices:5 () in
  Alcotest.(check int) "chain edges" 4 (List.length chain.Graphgen.edges);
  let star = Graphgen.star ~leaves:7 () in
  Alcotest.(check int) "star edges" 7 (List.length star.Graphgen.edges);
  Alcotest.(check bool) "star from hub" true
    (List.for_all (fun (s, _) -> s = 0) star.Graphgen.edges)

let test_adjacency () =
  let g = Graphgen.chain ~prefix:"c" ~vertices:3 () in
  let adj = Graphgen.adjacency g in
  Alcotest.(check (list string)) "c0 -> c1" [ "c1" ] (List.assoc "c0" adj);
  Alcotest.(check (list string)) "c2 -> ()" [] (List.assoc "c2" adj)

let test_tao_mix_fractions () =
  let rng = Xrand.create ~seed:4 () in
  let vertices = Array.init 100 (fun i -> "v" ^ string_of_int i) in
  let n = 100_000 in
  let ops = List.init n (fun _ -> Tao.gen_op ~rng ~vertices ()) in
  let counts = Tao.mix_counts ops in
  let frac name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name counts))
    /. float_of_int n
  in
  (* Table 1 targets: reads 99.8% of which 59.4/11.7/28.9; writes 0.2% *)
  Alcotest.(check bool) "get_edges ~59.3%" true (abs_float (frac "get_edges" -. 0.593) < 0.01);
  Alcotest.(check bool) "count_edges ~11.7%" true
    (abs_float (frac "count_edges" -. 0.1168) < 0.01);
  Alcotest.(check bool) "get_node ~28.8%" true (abs_float (frac "get_node" -. 0.2884) < 0.01);
  let writes = frac "create_edge" +. frac "delete_edge" in
  Alcotest.(check bool) "writes ~0.2%" true (abs_float (writes -. 0.002) < 0.002)

let test_tao_read_fraction_override () =
  let rng = Xrand.create ~seed:5 () in
  let vertices = Array.init 50 (fun i -> "v" ^ string_of_int i) in
  let ops = List.init 20_000 (fun _ -> Tao.gen_op ~rng ~vertices ~read_fraction:0.75 ()) in
  let counts = Tao.mix_counts ops in
  let writes =
    Option.value ~default:0 (List.assoc_opt "create_edge" counts)
    + Option.value ~default:0 (List.assoc_opt "delete_edge" counts)
  in
  let frac = float_of_int writes /. 20_000.0 in
  Alcotest.(check bool) "25% writes" true (abs_float (frac -. 0.25) < 0.02)

let test_bulk_load_and_query () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let g = Graphgen.chain ~prefix:"bl" ~vertices:12 () in
  (match Loader.bulk_load c client ~batch:8 g with
  | Ok txs -> Alcotest.(check bool) "several txs" true (txs >= 3)
  | Error e -> Alcotest.failf "bulk load: %s" e);
  let r =
    Client.run_program client ~prog:"reachable"
      ~params:(Progval.Assoc [ ("target", Progval.Str "bl11") ])
      ~starts:[ "bl0" ] ()
  in
  Alcotest.(check bool) "chain reachable end to end" true
    (match r with Ok (Progval.Bool b) -> b | _ -> false)

let test_fast_install_and_query () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let rng = Xrand.create ~seed:7 () in
  let g = Graphgen.uniform ~rng ~prefix:"fi" ~vertices:50 ~edges:200 () in
  Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  (* the graph is resident and queryable *)
  let total_resident =
    List.init (Cluster.config c).Config.n_shards (fun s -> Cluster.shard_resident c s)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "all resident" 50 total_resident;
  let count =
    Client.run_program client ~prog:"count_edges" ~params:Progval.Null
      ~starts:(Graphgen.vertex_ids g) ()
  in
  (match count with
  | Ok (Progval.Int n) ->
      Alcotest.(check int) "edge count matches" (List.length g.Graphgen.edges) n
  | _ -> Alcotest.fail "count failed");
  (* and writes on top of the preloaded graph work *)
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_edge tx ~src:"fi0" ~dst:"fi1");
  match Client.commit client tx with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-install write: %s" e

let hashed c vid =
  Weaver_partition.Partition.hash_vertex ~shards:(Cluster.config c).Config.n_shards vid

(* A preload is one store load: every key written once (version 1), one
   journal entry that replays to the store, placement as assigned, and the
   shards filled up to their capacity. *)
let check_install_is_one_load ~shard_capacity ~assign () =
  let n_shards = 3 in
  let c = mk_cluster ~cfg:{ Config.default with Config.n_shards; shard_capacity } () in
  let rng = Xrand.create ~seed:21 () in
  let g = Graphgen.preferential ~rng ~prefix:"ld" ~vertices:300 ~out_degree:3 () in
  let assignment = Weaver_partition.Partition.ldg ~shards:n_shards (Graphgen.adjacency g) in
  if assign then Loader.fast_install_with_assignment c assignment g else Loader.fast_install c g;
  if assign then
    List.iter
      (fun vid ->
        Alcotest.(check int) ("placement of " ^ vid) (Hashtbl.find assignment vid)
          (Cluster.shard_of_vertex c vid))
      (Graphgen.vertex_ids g);
  let resident = List.init n_shards (Cluster.shard_resident c) in
  (match shard_capacity with
  | Some cap -> List.iter (Alcotest.(check int) "capacity respected" cap) resident
  | None -> Alcotest.(check int) "all resident" 300 (List.fold_left ( + ) 0 resident));
  let store = (Cluster.runtime c).Runtime.store in
  let bindings = Store.scan_prefix store ~prefix:"" in
  let off_hash =
    if not assign then 0
    else
      List.length
        (List.filter (fun vid -> Hashtbl.find assignment vid <> hashed c vid) (Graphgen.vertex_ids g))
  in
  Alcotest.(check int) "a record per vertex, a directory key per off-hash vertex" (300 + off_hash)
    (List.length bindings);
  List.iter (fun (k, _) -> Alcotest.(check int) ("version of " ^ k) 1 (Store.version store k)) bindings;
  Alcotest.(check int) "one journal entry" 1 (Store.journal_length store);
  Alcotest.(check bool) "replay equals the store" true
    (Store.scan_prefix (Store.replay store) ~prefix:"" = bindings)

let test_install_is_one_load () =
  check_install_is_one_load ~shard_capacity:None ~assign:false ();
  check_install_is_one_load ~shard_capacity:(Some 40) ~assign:false ();
  check_install_is_one_load ~shard_capacity:(Some 40) ~assign:true ()

(* [install_vertex] builds in one pass the record that successive
   [Mgraph] updates at the zero stamp build, repeated property keys
   included *)
let test_install_vertex_record () =
  let c = mk_cluster () in
  let props = [ ("a", "1"); ("b", "2"); ("a", "3"); ("a", "4") ] in
  let edges = [ ("y", [ ("w", "1"); ("w", "2") ]); ("z", []); ("y", [ ("q", "1") ]) ] in
  Loader.install_vertex c ~vid:"x" ~props ~edges ();
  let before = Weaver_vclock.Vclock.precedes in
  let at = Weaver_vclock.Vclock.zero ~n:(Cluster.config c).Config.n_gatekeepers in
  let v = Mgraph.create_vertex ~vid:"x" ~at in
  let v = List.fold_left (fun v (key, value) -> Mgraph.set_vertex_prop before v ~key ~value ~at) v props in
  let _, v =
    List.fold_left
      (fun (i, v) (dst, eprops) ->
        let eid = "pre_" ^ string_of_int i in
        let v = Mgraph.add_edge v ~eid ~dst ~at in
        ( i + 1,
          List.fold_left
            (fun v (key, value) -> Mgraph.set_edge_prop before v ~eid ~key ~value ~at)
            v eprops ))
      (0, v) edges
  in
  Alcotest.(check bool) "same record" true (Cluster.stored_vertex c "x" = Some v);
  Alcotest.(check int) "placed by hash" (Weaver_partition.Partition.hash_vertex ~shards:(Cluster.config c).Config.n_shards "x")
    (Cluster.shard_of_vertex c "x");
  (* a directory key only off the hashed home *)
  let store = (Cluster.runtime c).Runtime.store in
  Alcotest.(check bool) "no key at the hashed home" true (Store.get_now store (Runtime.dirkey "x") = None);
  let off = (hashed c "w" + 1) mod (Cluster.config c).Config.n_shards in
  Loader.install_vertex c ~vid:"w" ~shard:off ~edges:[] ();
  Alcotest.(check bool) "a key off it" true (Store.get_now store (Runtime.dirkey "w") = Some (Runtime.Dir off));
  Alcotest.(check int) "placed off it" off (Cluster.shard_of_vertex c "w")

(* A preload writes only what the cluster cannot derive: a "v/" record per
   vertex, a "dir/" key only for a vertex off its hashed home, no "lu/"
   key, and edge ids [pre_<i>] shared by every vertex. Vertices are
   numbered in load order and placed without a per-hop hash. *)
let check_lean_preload ~assign () =
  let n_shards = 3 and n = 200 in
  let c = mk_cluster ~cfg:{ Config.default with Config.n_shards } () in
  let rt = Cluster.runtime c in
  let rng = Xrand.create ~seed:5 () in
  let g = Graphgen.preferential ~rng ~prefix:"ln" ~vertices:n ~out_degree:3 () in
  let assignment = Weaver_partition.Partition.ldg ~shards:n_shards (Graphgen.adjacency g) in
  if assign then Loader.fast_install_with_assignment c assignment g else Loader.fast_install c g;
  let placed vid = if assign then Hashtbl.find assignment vid else hashed c vid in
  let off = List.filter (fun vid -> placed vid <> hashed c vid) (Graphgen.vertex_ids g) in
  if assign then Alcotest.(check bool) "some vertices off their hash" true (off <> []);
  List.iteri
    (fun i vid ->
      Alcotest.(check (option int)) ("handle of " ^ vid) (Some i) (Weaver_util.Intern.find rt.Runtime.names vid);
      Alcotest.(check int) ("cluster placement of " ^ vid) (placed vid) (Cluster.shard_of_vertex c vid);
      Alcotest.(check int) ("placement by handle of " ^ vid) (placed vid) (Runtime.shard_of_handle rt i);
      Alcotest.(check bool) ("placed by the array: " ^ vid) true
        (i < Array.length rt.Runtime.dir && rt.Runtime.dir.(i) >= 0))
    (Graphgen.vertex_ids g);
  let store = rt.Runtime.store in
  let keys prefix = List.map fst (Store.scan_prefix store ~prefix) in
  Alcotest.(check (list string)) "a record per vertex"
    (List.sort String.compare (List.map Runtime.vkey (Graphgen.vertex_ids g)))
    (keys "v/");
  Alcotest.(check (list string)) "directory keys for the off-hash vertices only"
    (List.sort String.compare (List.map Runtime.dirkey off))
    (keys "dir/");
  Alcotest.(check (list (pair string int))) "the mirror lists the committed keys"
    (List.sort compare (List.map (fun vid -> (vid, placed vid)) off))
    (Runtime.directory rt);
  Alcotest.(check (list string)) "no last-update keys" [] (keys "lu/");
  (* edge i of every vertex is named by one shared string *)
  let shared = Hashtbl.create 8 in
  List.iter
    (fun (vid, (v : Mgraph.vertex)) ->
      let k = Array.length v.Mgraph.out in
      Array.iteri
        (fun j (e : Mgraph.edge) ->
          let i = k - 1 - j in
          Alcotest.(check string) ("eid of " ^ vid) ("pre_" ^ string_of_int i) e.Mgraph.eid;
          match Hashtbl.find_opt shared i with
          | Some eid -> Alcotest.(check bool) ("shared eid of " ^ vid) true (eid == e.Mgraph.eid)
          | None -> Hashtbl.replace shared i e.Mgraph.eid)
        v.Mgraph.out)
    (Runtime.vertex_records rt);
  Alcotest.(check bool) "edges preloaded" true (Hashtbl.length shared > 1);
  Alcotest.(check int) "one journal entry" 1 (Store.journal_length store);
  Alcotest.(check bool) "replay equals the store" true
    (Store.scan_prefix (Store.replay store) ~prefix:"" = Store.scan_prefix store ~prefix:"")

let test_lean_preload () =
  check_lean_preload ~assign:false ();
  check_lean_preload ~assign:true ()

(* The first write to a preloaded vertex creates its "lu/" key; an absent
   key is read at version 0, so two writers racing on a preloaded vertex
   still conflict, through the last-update key alone too. *)
let test_lean_keys_after_write () =
  let c = mk_cluster () in
  let rng = Xrand.create ~seed:3 () in
  let g = Graphgen.uniform ~rng ~prefix:"lw" ~vertices:20 ~edges:60 () in
  Loader.fast_install c g;
  let store = (Cluster.runtime c).Runtime.store in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  Client.Tx.set_vertex_prop tx ~vid:"lw4" ~key:"k" ~value:"v";
  (match Client.commit client tx with Ok () -> () | Error e -> Alcotest.failf "first write: %s" e);
  (match Store.get_now store (Runtime.lukey "lw4") with
  | Some (Runtime.Stamp _) -> ()
  | _ -> Alcotest.fail "no last-update key after the first write");
  Alcotest.(check int) "last-update key written once" 1 (Store.version store (Runtime.lukey "lw4"));
  Alcotest.(check bool) "others still have none" true (Store.get_now store (Runtime.lukey "lw5") = None);
  let race vid reads =
    let a = Store.Tx.begin_ store and b = Store.Tx.begin_ store in
    List.iter (fun k -> ignore (Store.Tx.get a (k vid)); ignore (Store.Tx.get b (k vid))) reads;
    let stamp = Runtime.Stamp (Weaver_vclock.Vclock.zero ~n:(Cluster.config c).Config.n_gatekeepers) in
    Store.Tx.put a (Runtime.lukey vid) stamp;
    Store.Tx.put b (Runtime.lukey vid) stamp;
    (match Store.Tx.commit a with Ok () -> () | Error _ -> Alcotest.fail "first writer conflicted");
    match Store.Tx.commit b with
    | Error (`Conflict _) -> ()
    | Ok () -> Alcotest.fail "racing writers both committed"
  in
  race "lw7" [ Runtime.vkey; Runtime.lukey ];
  Alcotest.(check bool) "the race left a key" true (Store.get_now store (Runtime.lukey "lw7") <> None);
  race "lw8" [ Runtime.lukey ]

(* A dump and restore of an LDG-assigned lean preload into a fresh cluster
   keeps every vertex's placement and every edge id. *)
let test_lean_restore () =
  let n_shards = 3 in
  let cfg = { Config.default with Config.n_shards } in
  let c1 = mk_cluster ~cfg () in
  let rng = Xrand.create ~seed:9 () in
  let g = Graphgen.preferential ~rng ~prefix:"lr" ~vertices:120 ~out_degree:3 () in
  let assignment = Weaver_partition.Partition.ldg ~shards:n_shards (Graphgen.adjacency g) in
  Loader.fast_install_with_assignment c1 assignment g;
  let c2 = mk_cluster ~cfg () in
  Backup.restore c2 (Backup.dump c1);
  let eids c vid =
    match Cluster.stored_vertex c vid with
    | Some v -> Array.to_list (Array.map (fun (e : Mgraph.edge) -> (e.Mgraph.eid, e.Mgraph.dst)) v.Mgraph.out)
    | None -> Alcotest.failf "%s lost" vid
  in
  List.iter
    (fun vid ->
      let s = Hashtbl.find assignment vid in
      Alcotest.(check int) ("placement of " ^ vid) s (Cluster.shard_of_vertex c2 vid);
      Alcotest.(check bool) ("resident on its shard: " ^ vid) true
        (Cluster.shard_vertex c2 ~shard:s vid <> None);
      Alcotest.(check (list (pair string string))) ("edges of " ^ vid) (eids c1 vid) (eids c2 vid);
      Alcotest.(check (list (pair string string))) ("resident edges of " ^ vid) (eids c1 vid)
        (match Cluster.shard_vertex c2 ~shard:s vid with
        | Some v -> Array.to_list (Array.map (fun (e : Mgraph.edge) -> (e.Mgraph.eid, e.Mgraph.dst)) v.Mgraph.out)
        | None -> []))
    (Graphgen.vertex_ids g)

(* Every shard server reloads from one store scan while the store takes no
   write: a second call returns the very same partitions, and a commit in
   between forces a fresh scan that sees it. *)
let test_one_scan_per_barrier () =
  let c = mk_cluster () in
  let rt = Cluster.runtime c in
  let rng = Xrand.create ~seed:4 () in
  Loader.fast_install c (Graphgen.uniform ~rng ~prefix:"sc" ~vertices:30 ~edges:90 ());
  let first = Runtime.records_by_shard rt in
  Alcotest.(check bool) "no write: the same scan" true (Runtime.records_by_shard rt == first);
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  Client.Tx.set_vertex_prop tx ~vid:"sc3" ~key:"k" ~value:"v";
  (match Client.commit client tx with Ok () -> () | Error e -> Alcotest.failf "write: %s" e);
  let after = Runtime.records_by_shard rt in
  Alcotest.(check bool) "a commit: a fresh scan" false (after == first);
  let s = Cluster.shard_of_vertex c "sc3" in
  let h = Runtime.vertex_handle rt "sc3" in
  Alcotest.(check bool) "the fresh scan holds the write" true
    (Some (List.assoc h after.(s)) = Cluster.stored_vertex c "sc3");
  Alcotest.(check bool) "the stale one did not" false
    (Some (List.assoc h first.(s)) = Cluster.stored_vertex c "sc3");
  Alcotest.(check bool) "then reused" true (Runtime.records_by_shard rt == after)

let test_blockchain_txs_curve () =
  Alcotest.(check int) "genesis" 1 (Blockchain.txs_in_block 0);
  Alcotest.(check int) "calibration point" 1795 (Blockchain.txs_in_block 350_000);
  Alcotest.(check bool) "monotone" true
    (Blockchain.txs_in_block 100_000 <= Blockchain.txs_in_block 200_000
    && Blockchain.txs_in_block 200_000 <= Blockchain.txs_in_block 300_000)

let test_blockchain_install_and_render () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let rng = Xrand.create ~seed:8 () in
  let blk = Blockchain.install_block c ~rng ~height:10_000 () in
  Cluster.run_for c 5_000.0;
  let expected_tx = Blockchain.txs_in_block 10_000 in
  match
    Client.run_program client ~prog:"block_render" ~params:Progval.Null ~starts:[ blk ] ()
  with
  | Ok (Progval.List entries) ->
      let txs =
        List.filter (fun e -> Progval.assoc_opt "tx" e <> None) entries
      in
      Alcotest.(check int) "all txs rendered" expected_tx (List.length txs);
      let blocks = List.filter (fun e -> Progval.assoc_opt "block" e <> None) entries in
      Alcotest.(check int) "one block entry" 1 (List.length blocks)
  | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "render: %s" e

let test_tao_driver_smoke () =
  let c = mk_cluster () in
  let rng = Xrand.create ~seed:9 () in
  let g = Graphgen.uniform ~rng ~prefix:"td" ~vertices:60 ~edges:240 () in
  Loader.fast_install c g;
  let vertices = Array.of_list (Graphgen.vertex_ids g) in
  let r = Tao.Driver.run c ~vertices ~clients:8 ~duration:200_000.0 () in
  Alcotest.(check bool) "ops completed" true (r.Tao.Driver.completed > 50);
  Alcotest.(check bool) "throughput positive" true (r.Tao.Driver.throughput > 0.0);
  Alcotest.(check bool) "read latencies collected" true
    (Weaver_util.Stats.count r.Tao.Driver.read_latencies > 0)

let suites =
  [
    ( "workloads.gen",
      [
        Alcotest.test_case "uniform" `Quick test_uniform_gen;
        Alcotest.test_case "rmat skew" `Quick test_rmat_skew;
        Alcotest.test_case "preferential" `Quick test_preferential;
        Alcotest.test_case "chain/star" `Quick test_chain_star;
        Alcotest.test_case "adjacency" `Quick test_adjacency;
      ] );
    ( "workloads.tao",
      [
        Alcotest.test_case "table1 mix" `Quick test_tao_mix_fractions;
        Alcotest.test_case "read fraction override" `Quick test_tao_read_fraction_override;
        Alcotest.test_case "driver smoke" `Quick test_tao_driver_smoke;
      ] );
    ( "workloads.load",
      [
        Alcotest.test_case "bulk load" `Quick test_bulk_load_and_query;
        Alcotest.test_case "fast install" `Quick test_fast_install_and_query;
        Alcotest.test_case "install is one store load" `Quick test_install_is_one_load;
        Alcotest.test_case "install_vertex record" `Quick test_install_vertex_record;
        Alcotest.test_case "preload writes only what it cannot derive" `Quick test_lean_preload;
        Alcotest.test_case "lean keys after a write" `Quick test_lean_keys_after_write;
        Alcotest.test_case "lean preload survives a restore" `Quick test_lean_restore;
        Alcotest.test_case "one store scan per barrier" `Quick test_one_scan_per_barrier;
      ] );
    ( "workloads.blockchain",
      [
        Alcotest.test_case "tx curve" `Quick test_blockchain_txs_curve;
        Alcotest.test_case "install and render" `Quick test_blockchain_install_and_render;
      ] );
  ]
