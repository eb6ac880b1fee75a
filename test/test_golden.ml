(* Golden fingerprint: a small fixed-seed cluster (2 gatekeepers, 2 shards,
   4 closed-loop clients, 40 ms of mixed reads and writes) must reproduce
   exactly the counters, virtual latencies and reply stream recorded
   below. Refactors that claim to leave every event unchanged (engine
   queue, stamp comparisons, caches, tracing guards) are checked here by
   the suite instead of by hand. A change that alters behaviour on
   purpose re-records the expected string and says so. *)

open Weaver_core
module Xrand = Weaver_util.Xrand
module Metrics = Weaver_obs.Metrics
module Stats = Weaver_util.Stats
module Programs = Weaver_programs.Std_programs

let n_vertices = 24
let n_clients = 4
let window_us = 40_000.0

(* recorded on the tree before the two-tier engine queue; re-recorded when
   the per-server decision caches went: the one pair a cache answered
   became a consult (16 -> 17) and the cache-hit count left the string;
   re-recorded when answered requests began cancelling their client
   timeouts: the engine counts live events only, so engine.pending fell
   267 -> 17 and engine.pending_hwm 277 -> 31, every event unchanged *)
let expected =
  "tx.committed=104 tx.aborted=1 prog.completed=145 prog.vertices_read=258 \
   msg.nop=1800 msg.announce=90 msg.shard_tx=106 msg.prog_batch=176 \
   oracle.consults=17 net.sent=3250 net.delivered=3244 \
   store.commits=104 store.aborts=1 engine.events=4880 engine.pending=17 \
   engine.pending_hwm=31 gk.admission_wait=20.000/55.014 \
   shard.queue_wait=31.006/269.974 shard.prog_gate_wait=700.272/971.153 \
   now=45000.000 replies=01540119dbd650e199b766368a0f25f3"

(* [prof], when given, is attached before any message flows; measuring
   must leave the fingerprint unchanged *)
let run ?prof () =
  let cfg =
    { Config.default with Config.seed = 11; Config.n_gatekeepers = 2; Config.n_shards = 2 }
  in
  let c = Cluster.create cfg in
  (Cluster.runtime c).Runtime.profiler <- prof;
  Programs.Std.register_all (Cluster.registry c);
  let vid i = Printf.sprintf "g%d" i in
  let setup = Cluster.client c in
  let tx = Client.Tx.begin_ setup in
  for i = 0 to n_vertices - 1 do
    ignore (Client.Tx.create_vertex tx ~id:(vid i) ())
  done;
  (match Client.commit setup tx with Ok () -> () | Error e -> Alcotest.failf "setup: %s" e);
  let tx = Client.Tx.begin_ setup in
  for i = 0 to n_vertices - 1 do
    ignore (Client.Tx.create_edge tx ~src:(vid i) ~dst:(vid ((i * 7 + 3) mod n_vertices)))
  done;
  (match Client.commit setup tx with Ok () -> () | Error e -> Alcotest.failf "edges: %s" e);
  (* every reply in completion order, with its virtual time *)
  let log = Buffer.create 4096 in
  let record ~client ~kind result =
    Printf.bprintf log "%.3f %d %s %s\n" (Cluster.now c) client kind
      (match result with Ok s -> s | Error e -> "error:" ^ e)
  in
  let stop = ref false and outstanding = ref 0 in
  let rng = Xrand.create ~seed:5 () in
  for k = 0 to n_clients - 1 do
    let client = Cluster.client c in
    let r = Xrand.split rng in
    (* edges this client created and has not deleted yet *)
    let mine = ref [] in
    let rec next () =
      if not !stop then begin
        incr outstanding;
        let finish kind result =
          decr outstanding;
          record ~client:k ~kind result;
          next ()
        in
        let v = vid (Xrand.int r n_vertices) in
        let read prog params =
          Client.run_program_async client ~prog ~params ~starts:[ v ]
            ~on_result:(fun res -> finish prog (Result.map Progval.to_string res))
            ()
        in
        match Xrand.int r 10 with
        | 0 | 1 -> read "get_edges" Progval.Null
        | 2 | 3 -> read "count_edges" Progval.Null
        | 4 -> read "get_node" Progval.Null
        | 5 -> read "nhop_count" (Progval.Assoc [ ("depth", Progval.Int 2) ])
        | 6 | 7 ->
            let tx = Client.Tx.begin_ client in
            let dst = vid (Xrand.int r n_vertices) in
            let eid = Client.Tx.create_edge tx ~src:v ~dst in
            Client.commit_async client tx ~on_result:(fun res ->
                if res = Ok () then mine := (v, eid) :: !mine;
                finish "create_edge" (Result.map (fun () -> eid) res))
        | 8 when !mine <> [] ->
            let src, eid = List.hd !mine in
            mine := List.tl !mine;
            let tx = Client.Tx.begin_ client in
            Client.Tx.delete_edge tx ~src ~eid;
            Client.commit_async client tx ~on_result:(fun res ->
                finish "delete_edge" (Result.map (fun () -> eid) res))
        | _ ->
            let tx = Client.Tx.begin_ client in
            Client.Tx.set_vertex_prop tx ~vid:v ~key:"n"
              ~value:(string_of_int (Xrand.int r 1000));
            Client.commit_async client tx ~on_result:(fun res ->
                finish "set_prop" (Result.map (fun () -> v) res))
      end
    in
    next ()
  done;
  Cluster.run_for c window_us;
  stop := true;
  let budget = ref 100 in
  while !outstanding > 0 && !budget > 0 do
    decr budget;
    Cluster.run_for c 1_000.0
  done;
  Alcotest.(check int) "every request answered" 0 !outstanding;
  let ints = Metrics.int_values (Cluster.metrics c) in
  let int name =
    match List.assoc_opt name ints with
    | Some v -> Printf.sprintf "%s=%d" name v
    | None -> Alcotest.failf "no metric %s" name
  in
  let pct name =
    let s = Metrics.reservoir (Cluster.metrics c) name in
    Printf.sprintf "%s=%.3f/%.3f" name (Stats.percentile s 50.0) (Stats.percentile s 99.0)
  in
  String.concat " "
    (List.map int
       [
         "tx.committed"; "tx.aborted"; "prog.completed"; "prog.vertices_read";
         "msg.nop"; "msg.announce"; "msg.shard_tx"; "msg.prog_batch";
         "oracle.consults"; "net.sent"; "net.delivered";
         "store.commits"; "store.aborts"; "engine.events"; "engine.pending";
         "engine.pending_hwm";
       ]
    @ List.map pct [ "gk.admission_wait"; "shard.queue_wait"; "shard.prog_gate_wait" ]
    @ [ Printf.sprintf "now=%.3f" (Cluster.now c); "replies=" ^ Digest.to_hex (Digest.string (Buffer.contents log)) ])

(* The paged multi-hop path: 3 shards holding at most 8 resident vertices
   each out of 48, depth-2 and depth-3 [nhop_count] traversals over two
   out-edges per vertex, a writer adding edges, and one vertex migrated
   mid-run. Program hops cross shards, page vertices in and evict them,
   and follow a directory entry that changes under them. [watch], when
   given, sees the cluster before any message flows. *)
(* engine.pending_hwm re-recorded 122 -> 38 when answered requests began
   cancelling their client timeouts (live events only, every event
   unchanged) *)
let paged_expected =
  "tx.committed=12 tx.aborted=0 prog.completed=78 prog.vertices_read=882 \
   msg.prog_batch=403 paging.page_ins=471 paging.evictions=496 net.sent=4495 \
   net.delivered=4487 engine.events=6164 engine.pending_hwm=38 \
   shard.queue_wait=65.294/235.189 shard.prog_gate_wait=0.000/1045.321 \
   now=52000.000 replies=9530f78a57e0499b78c5e87a3d7b4ffd"

let paged_vertices = 48

let run_paged ?(watch = fun _ -> ()) () =
  let cfg =
    {
      Config.default with
      Config.seed = 23;
      Config.n_gatekeepers = 2;
      Config.n_shards = 3;
      Config.shard_capacity = Some 8;
    }
  in
  let c = Cluster.create cfg in
  watch c;
  Programs.Std.register_all (Cluster.registry c);
  let vid i = Printf.sprintf "p%d" i in
  let setup = Cluster.client c in
  let tx = Client.Tx.begin_ setup in
  for i = 0 to paged_vertices - 1 do
    ignore (Client.Tx.create_vertex tx ~id:(vid i) ())
  done;
  (match Client.commit setup tx with Ok () -> () | Error e -> Alcotest.failf "setup: %s" e);
  let tx = Client.Tx.begin_ setup in
  for i = 0 to paged_vertices - 1 do
    ignore (Client.Tx.create_edge tx ~src:(vid i) ~dst:(vid ((i * 5 + 1) mod paged_vertices)));
    ignore (Client.Tx.create_edge tx ~src:(vid i) ~dst:(vid ((i * 11 + 7) mod paged_vertices)))
  done;
  (match Client.commit setup tx with Ok () -> () | Error e -> Alcotest.failf "edges: %s" e);
  let log = Buffer.create 4096 in
  let record ~client ~kind result =
    Printf.bprintf log "%.3f %d %s %s\n" (Cluster.now c) client kind
      (match result with Ok s -> s | Error e -> "error:" ^ e)
  in
  let stop = ref false and outstanding = ref 0 in
  let rng = Xrand.create ~seed:9 () in
  for k = 0 to n_clients - 1 do
    let client = Cluster.client c in
    let r = Xrand.split rng in
    let rec next () =
      if not !stop then begin
        incr outstanding;
        let finish kind result =
          decr outstanding;
          record ~client:k ~kind result;
          next ()
        in
        let v = vid (Xrand.int r paged_vertices) in
        match Xrand.int r 8 with
        | 0 ->
            let tx = Client.Tx.begin_ client in
            let eid = Client.Tx.create_edge tx ~src:v ~dst:(vid (Xrand.int r paged_vertices)) in
            Client.commit_async client tx ~on_result:(fun res ->
                finish "create_edge" (Result.map (fun () -> eid) res))
        | n ->
            let depth = if n < 4 then 2 else 3 in
            Client.run_program_async client ~prog:"nhop_count"
              ~params:(Progval.Assoc [ ("depth", Progval.Int depth) ])
              ~starts:[ v ]
              ~on_result:(fun res -> finish "nhop_count" (Result.map Progval.to_string res))
              ()
      end
    in
    next ()
  done;
  Cluster.run_for c (window_us /. 2.0);
  let mover = Cluster.client c in
  let moved = vid 5 in
  let to_shard = (Cluster.shard_of_vertex c moved + 1) mod cfg.Config.n_shards in
  incr outstanding;
  Client.migrate_async mover ~vid:moved ~to_shard ~on_result:(fun res ->
      decr outstanding;
      record ~client:n_clients ~kind:"migrate" (Result.map (fun () -> moved) res));
  Cluster.run_for c (window_us /. 2.0);
  stop := true;
  let budget = ref 100 in
  while !outstanding > 0 && !budget > 0 do
    decr budget;
    Cluster.run_for c 1_000.0
  done;
  Alcotest.(check int) "every request answered" 0 !outstanding;
  Alcotest.(check int) "migrated" to_shard (Cluster.shard_of_vertex c moved);
  let ints = Metrics.int_values (Cluster.metrics c) in
  let int name =
    match List.assoc_opt name ints with
    | Some v -> Printf.sprintf "%s=%d" name v
    | None -> Alcotest.failf "no metric %s" name
  in
  let pct name =
    let s = Metrics.reservoir (Cluster.metrics c) name in
    Printf.sprintf "%s=%.3f/%.3f" name (Stats.percentile s 50.0) (Stats.percentile s 99.0)
  in
  String.concat " "
    (List.map int
       [
         "tx.committed"; "tx.aborted"; "prog.completed"; "prog.vertices_read";
         "msg.prog_batch"; "paging.page_ins"; "paging.evictions"; "net.sent";
         "net.delivered"; "engine.events"; "engine.pending_hwm";
       ]
    @ List.map pct [ "shard.queue_wait"; "shard.prog_gate_wait" ]
    @ [ Printf.sprintf "now=%.3f" (Cluster.now c); "replies=" ^ Digest.to_hex (Digest.string (Buffer.contents log)) ])

let test_fingerprint () =
  let fp = run () in
  Alcotest.(check string) "rerun is identical" fp (run ());
  Alcotest.(check string) "fingerprint as recorded" expected fp

let test_paged_fingerprint () =
  let fp = run_paged () in
  Alcotest.(check string) "rerun is identical" fp (run_paged ());
  Alcotest.(check string) "fingerprint as recorded" paged_expected fp

let suites =
  [
    ( "golden",
      [
        Alcotest.test_case "fixed-seed cluster fingerprint" `Quick test_fingerprint;
        Alcotest.test_case "paged multi-hop fingerprint" `Quick test_paged_fingerprint;
      ] );
  ]
