(* Shard multi-version GC (§4.5): a watermark round compacts only the
   vertices that may hold a closed version. These tests pin the entry
   points of that set: records paged in or migrated in from the durable
   store (which keeps the full history) must be compacted at the next
   round, and a round with no writes since the last one visits nothing. *)

open Weaver_core
module Mgraph = Weaver_graph.Mgraph
module Programs = Weaver_programs.Std_programs

let mk_cluster cfg =
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  c

let ok what = function Ok v -> v | Error e -> Alcotest.failf "%s failed: %s" what e

let commit client f =
  let tx = Client.Tx.begin_ client in
  let r = f tx in
  ok "commit" (Client.commit client tx);
  r

let get_node client vid =
  ok "get_node"
    (Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ vid ] ())

let resident c ~shard vid =
  match Cluster.shard_vertex c ~shard vid with
  | Some v -> v
  | None -> Alcotest.failf "%s not resident on shard %d" vid shard

let visits c = (Cluster.counters c).Runtime.gc_compact_visits

(* long enough for several watermark rounds to pass every stamp issued
   before it *)
let gc_rounds c = Cluster.run_for c (6.0 *. (Cluster.config c).Config.gc_period)

(* "a" with one live and one deleted edge *)
let with_deleted_edge client =
  commit client (fun tx ->
      List.iter (fun id -> ignore (Client.Tx.create_vertex tx ~id ())) [ "a"; "b" ]);
  let gone = commit client (fun tx -> Client.Tx.create_edge tx ~src:"a" ~dst:"b") in
  ignore (commit client (fun tx -> Client.Tx.create_edge tx ~src:"a" ~dst:"b"));
  commit client (fun tx -> Client.Tx.delete_edge tx ~src:"a" ~eid:gone)

let test_page_in_enrols () =
  let cfg = { Config.default with Config.n_shards = 1; Config.shard_capacity = Some 2 } in
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  with_deleted_edge client;
  (* push "a" out of shard memory *)
  commit client (fun tx ->
      List.iter (fun id -> ignore (Client.Tx.create_vertex tx ~id ())) [ "c"; "d"; "e" ]);
  Alcotest.(check bool) "a evicted" true (Cluster.shard_vertex c ~shard:0 "a" = None);
  (* a read pages it back in with its full store history *)
  ignore (get_node client "a");
  Alcotest.(check bool) "paged-in record holds the deleted edge" true
    (Mgraph.has_closed (resident c ~shard:0 "a"));
  gc_rounds c;
  let v = resident c ~shard:0 "a" in
  Alcotest.(check bool) "compacted after page-in" false (Mgraph.has_closed v);
  Alcotest.(check int) "live edge kept" 1 (Array.length v.Mgraph.out)

let test_migrate_in_enrols () =
  let c = mk_cluster Config.default in
  let client = Cluster.client c in
  with_deleted_edge client;
  let from_shard = Cluster.shard_of_vertex c "a" in
  let to_shard = (from_shard + 1) mod (Cluster.config c).Config.n_shards in
  ok "migrate" (Client.migrate client ~vid:"a" ~to_shard);
  Alcotest.(check bool) "migrated record holds the deleted edge" true
    (Mgraph.has_closed (resident c ~shard:to_shard "a"));
  gc_rounds c;
  let v = resident c ~shard:to_shard "a" in
  Alcotest.(check bool) "compacted after migrate-in" false (Mgraph.has_closed v);
  Alcotest.(check int) "live edge kept" 1 (Array.length v.Mgraph.out)

let test_quiet_round_visits_nothing () =
  let cfg = { Config.default with Config.n_shards = 1 } in
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  with_deleted_edge client;
  commit client (fun tx ->
      for i = 0 to 19 do
        ignore (Client.Tx.create_vertex tx ~id:("q" ^ string_of_int i) ())
      done;
      Client.Tx.set_vertex_prop tx ~vid:"b" ~key:"k" ~value:"1");
  commit client (fun tx -> Client.Tx.set_vertex_prop tx ~vid:"b" ~key:"k" ~value:"2");
  gc_rounds c;
  Alcotest.(check bool) "closed versions compacted" false
    (Mgraph.has_closed (resident c ~shard:0 "a") || Mgraph.has_closed (resident c ~shard:0 "b"));
  let busy = visits c in
  Alcotest.(check bool) "the written vertices were visited" true (busy > 0);
  Alcotest.(check bool) "but not every resident vertex each round" true
    (busy < Cluster.shard_resident c 0);
  (* two more rounds with no writes in between: nothing to visit *)
  let floor = Cluster.shard_gc_floor c 0 in
  Cluster.run_for c (2.0 *. cfg.Config.gc_period);
  Alcotest.(check bool) "watermark rounds ran" true (Cluster.shard_gc_floor c 0 <> floor);
  Alcotest.(check int) "quiet rounds visit no vertex" busy (visits c);
  Alcotest.(check (option int)) "counter is a registry gauge" (Some busy)
    (List.assoc_opt "gc.compact_visits" (Weaver_obs.Metrics.int_values (Cluster.metrics c)))

let suites =
  [
    ( "shard.gc",
      [
        Alcotest.test_case "page-in enrols closed versions" `Quick test_page_in_enrols;
        Alcotest.test_case "migrate-in enrols closed versions" `Quick test_migrate_in_enrols;
        Alcotest.test_case "quiet round visits nothing" `Quick
          test_quiet_round_visits_nothing;
      ] );
  ]
