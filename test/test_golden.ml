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

(* recorded on the tree before the two-tier engine queue *)
let expected =
  "tx.committed=104 tx.aborted=1 prog.completed=145 prog.vertices_read=258 \
   msg.nop=1800 msg.announce=90 msg.shard_tx=106 msg.prog_batch=176 \
   oracle.consults=16 oracle.cache_hits=1 net.sent=3250 net.delivered=3244 \
   store.commits=104 store.aborts=1 engine.events=4880 engine.pending=267 \
   engine.pending_hwm=277 gk.admission_wait=20.000/55.014 \
   shard.queue_wait=31.006/269.974 shard.prog_gate_wait=700.272/971.153 \
   now=45000.000 replies=01540119dbd650e199b766368a0f25f3"

(* [prof] and [audit], when given, are attached before any message
   flows; measuring and shadow probes must leave the fingerprint
   unchanged *)
let run ?prof ?audit () =
  let cfg =
    { Config.default with Config.seed = 11; Config.n_gatekeepers = 2; Config.n_shards = 2 }
  in
  let c = Cluster.create cfg in
  (Cluster.runtime c).Runtime.profiler <- prof;
  (Cluster.runtime c).Runtime.probe_audit <- audit;
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
         "oracle.consults"; "oracle.cache_hits"; "net.sent"; "net.delivered";
         "store.commits"; "store.aborts"; "engine.events"; "engine.pending";
         "engine.pending_hwm";
       ]
    @ List.map pct [ "gk.admission_wait"; "shard.queue_wait"; "shard.prog_gate_wait" ]
    @ [ Printf.sprintf "now=%.3f" (Cluster.now c); "replies=" ^ Digest.to_hex (Digest.string (Buffer.contents log)) ])

let test_fingerprint () =
  let fp = run () in
  Alcotest.(check string) "rerun is identical" fp (run ());
  Alcotest.(check string) "fingerprint as recorded" expected fp

let suites = [ ("golden", [ Alcotest.test_case "fixed-seed cluster fingerprint" `Quick test_fingerprint ]) ]
