(* Tests for dynamic vertex migration and rebalancing (§4.6). *)

open Weaver_core
open Weaver_workloads
module Programs = Weaver_programs.Std_programs

let mk_cluster ?(cfg = Config.default) () =
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  c

let ok = function Ok v -> v | Error e -> Alcotest.failf "%s" e

let test_basic_migration () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"mg" ());
  ignore (Client.Tx.create_vertex tx ~id:"nbr" ());
  ignore (Client.Tx.create_edge tx ~src:"mg" ~dst:"nbr");
  ok (Client.commit client tx);
  let from_shard = Cluster.shard_of_vertex c "mg" in
  let to_shard = (from_shard + 1) mod (Cluster.config c).Config.n_shards in
  ok (Client.migrate client ~vid:"mg" ~to_shard);
  Cluster.run_for c 20_000.0;
  Alcotest.(check int) "directory moved" to_shard (Cluster.shard_of_vertex c "mg");
  Alcotest.(check bool) "old shard dropped it" true
    (Cluster.shard_vertex c ~shard:from_shard "mg" = None);
  (match Cluster.shard_vertex c ~shard:to_shard "mg" with
  | Some v -> Alcotest.(check int) "edges came along" 1 (Array.length v.Weaver_graph.Mgraph.out)
  | None -> Alcotest.fail "new shard missing the vertex");
  Alcotest.(check int) "counted" 1 (Cluster.counters c).Runtime.migrations;
  (* reads and writes keep working after the move *)
  (match
     Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "mg" ] ()
   with
  | Ok (Progval.List [ _ ]) -> ()
  | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "post-move read: %s" e);
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_edge tx ~src:"mg" ~dst:"nbr");
  ok (Client.commit client tx);
  match
    Client.run_program client ~prog:"count_edges" ~params:Progval.Null ~starts:[ "mg" ] ()
  with
  | Ok (Progval.Int 2) -> ()
  | Ok v -> Alcotest.failf "post-move write lost: %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "%s" e

let test_migrate_missing_vertex_fails () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  match Client.migrate client ~vid:"ghost" ~to_shard:0 with
  | Error e -> Alcotest.(check bool) "invalid" true (String.length e > 0)
  | Ok () -> Alcotest.fail "migrating a ghost must fail"

let test_migrate_same_shard_noop () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"same" ());
  ok (Client.commit client tx);
  let shard = Cluster.shard_of_vertex c "same" in
  ok (Client.migrate client ~vid:"same" ~to_shard:shard);
  Alcotest.(check int) "unchanged" shard (Cluster.shard_of_vertex c "same")

(* Regression: the same-shard no-op branch of [handle_migrate_req] used to
   reply [Ok] WITHOUT recording dedup, so a retry whose first reply was
   lost re-executed from scratch — and could observe a different
   [from_shard] after a racing move. Replay the wire-level retry: the
   second submission of the same (client, tx_id) must be answered from the
   dedup window, like every other committed request. *)
let test_migrate_noop_records_dedup () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"same" ());
  ok (Client.commit client tx);
  let rt = Cluster.runtime c in
  let shard = Cluster.shard_of_vertex c "same" in
  let addr = Runtime.fresh_client_addr rt in
  let replies = ref [] in
  Weaver_sim.Net.register rt.Runtime.net addr (fun ~src:_ msg ->
      match (msg : Msg.t) with
      | Msg.Tx_reply { result; _ } -> replies := result :: !replies
      | _ -> ());
  let send () =
    Weaver_sim.Net.send rt.Runtime.net ~src:addr ~dst:(Runtime.gk_addr rt 0)
      (Msg.Migrate_req { client = addr; tx_id = 987_654; vid = "same"; to_shard = shard })
  in
  send ();
  Cluster.run_for c 20_000.0;
  (* the reply was lost: the client retries the identical request *)
  send ();
  Cluster.run_for c 20_000.0;
  Alcotest.(check int) "both submissions answered" 2 (List.length !replies);
  List.iter
    (function Ok _ -> () | Error e -> Alcotest.failf "noop migrate: %s" e)
    !replies;
  Alcotest.(check int) "retry served from the dedup window" 1
    (Cluster.counters c).Runtime.dedup_hits

let test_traversal_across_migration () =
  (* traversals issued right after a migration chase the vertex correctly *)
  let c = mk_cluster () in
  let client = Cluster.client c in
  let g = Graphgen.chain ~prefix:"mc" ~vertices:10 () in
  Loader.fast_install c g;
  Cluster.run_for c 10_000.0;
  let mid = "mc5" in
  let to_shard = (Cluster.shard_of_vertex c mid + 1) mod (Cluster.config c).Config.n_shards in
  ok (Client.migrate client ~vid:mid ~to_shard);
  (* no settling time: the read races the migration fan-out *)
  match
    Client.run_program client ~prog:"reachable"
      ~params:(Progval.Assoc [ ("target", Progval.Str "mc9") ])
      ~starts:[ "mc0" ] ()
  with
  | Ok (Progval.Bool b) -> Alcotest.(check bool) "still reachable through mc5" true b
  | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "%s" e

let test_rebalance_improves_cut () =
  let cfg = { Config.default with Config.n_shards = 4 } in
  let c = mk_cluster ~cfg () in
  let client = Cluster.client c in
  (* four dense cliques: hashing scatters them, rebalance should gather *)
  let vids = ref [] in
  let edges = ref [] in
  for ci = 0 to 3 do
    for i = 0 to 9 do
      vids := Printf.sprintf "c%d_%d" ci i :: !vids
    done;
    for i = 0 to 9 do
      for j = 0 to 9 do
        if i <> j then
          edges := (Printf.sprintf "c%d_%d" ci i, Printf.sprintf "c%d_%d" ci j) :: !edges
      done
    done
  done;
  let nbrs = Hashtbl.create 64 in
  List.iter
    (fun (s, d) ->
      Hashtbl.replace nbrs s (d :: (try Hashtbl.find nbrs s with Not_found -> [])))
    !edges;
  List.iter
    (fun vid ->
      Loader.install_vertex c ~vid
        ~edges:(List.map (fun d -> (d, [])) (try Hashtbl.find nbrs vid with Not_found -> []))
        ())
    !vids;
  Cluster.reload_shards c;
  Cluster.run_for c 10_000.0;
  let r = Rebalance.run c client ~max_moves:64 () in
  Alcotest.(check bool)
    (Printf.sprintf "cut improved (%.3f -> %.3f, %d moves)" r.Rebalance.edge_cut_before
       r.Rebalance.edge_cut_after r.Rebalance.moved)
    true
    (r.Rebalance.edge_cut_after < r.Rebalance.edge_cut_before);
  Alcotest.(check bool) "some moves happened" true (r.Rebalance.moved > 0);
  (* graph content intact after the mass migration *)
  match
    Client.run_program client ~prog:"count_edges" ~params:Progval.Null ~starts:!vids ()
  with
  | Ok (Progval.Int n) -> Alcotest.(check int) "all edges intact" (List.length !edges) n
  | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "%s" e

(* Rebalance.run on a quiescent cluster, from hash placement: the budget
   caps the moves exactly, and with no cap the result is one LDG pass over
   the live adjacency in store-key order *)
let rebalance_fixture () =
  let c = mk_cluster ~cfg:{ Config.default with Config.n_shards = 4 } () in
  let rng = Weaver_util.Xrand.create ~seed:5 () in
  let g = Graphgen.preferential ~rng ~prefix:"r" ~vertices:200 ~out_degree:3 () in
  Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  (c, g)

let test_rebalance_budget () =
  let c, g = rebalance_fixture () in
  let before = Hashtbl.copy (Rebalance.current_assignment c) in
  let r = Rebalance.run c (Cluster.client c) ~max_moves:10 () in
  Alcotest.(check int) "reported moves" 10 r.Rebalance.moved;
  Alcotest.(check int) "examined every vertex" g.Graphgen.n_vertices r.Rebalance.examined;
  let after = Rebalance.current_assignment c in
  let moved =
    Hashtbl.fold (fun v s n -> if Hashtbl.find after v <> s then n + 1 else n) before 0
  in
  Alcotest.(check int) "vertices on a new shard" 10 moved

let test_rebalance_is_ldg () =
  let c, g = rebalance_fixture () in
  let r = Rebalance.run c (Cluster.client c) ~max_moves:g.Graphgen.n_vertices () in
  let adjacency =
    List.sort (fun (a, _) (b, _) -> String.compare a b) (Graphgen.adjacency g)
  in
  let want = Weaver_partition.Partition.ldg ~shards:4 adjacency in
  let got = Rebalance.current_assignment c in
  let off =
    List.filter (fun (v, _) -> Hashtbl.find_opt got v <> Hashtbl.find_opt want v) adjacency
  in
  Alcotest.(check int) "vertices off their LDG shard" 0 (List.length off);
  Alcotest.(check (float 0.0))
    "edge cut after is the LDG cut"
    (Weaver_partition.Partition.edge_cut want adjacency)
    r.Rebalance.edge_cut_after

let suites =
  [
    ( "migration",
      [
        Alcotest.test_case "basic migration" `Quick test_basic_migration;
        Alcotest.test_case "missing vertex" `Quick test_migrate_missing_vertex_fails;
        Alcotest.test_case "same shard noop" `Quick test_migrate_same_shard_noop;
        Alcotest.test_case "noop migrate records dedup" `Quick
          test_migrate_noop_records_dedup;
        Alcotest.test_case "traversal across migration" `Quick test_traversal_across_migration;
        Alcotest.test_case "rebalance improves cut" `Quick test_rebalance_improves_cut;
        Alcotest.test_case "rebalance move budget" `Quick test_rebalance_budget;
        Alcotest.test_case "rebalance target is LDG" `Quick test_rebalance_is_ldg;
      ] );
  ]
