(* Observability: metrics registry, causal request tracing, and the
   regression tests for the bugs the tracing work surfaced (memoization
   key, migrate/epoch race, dead-source send accounting, LRU eviction). *)

open Weaver_core
module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Metrics = Weaver_obs.Metrics
module Trace = Weaver_obs.Trace
module Stats = Weaver_util.Stats
module Json = Weaver_util.Json
module Programs = Weaver_programs.Std_programs

let mk_cluster cfg =
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  c

let ok = function Ok v -> v | Error e -> Alcotest.failf "%s" e

(* ------------------------------------------------------------------ *)
(* Metrics registry units. *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c.a" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  let cell = ref 17 in
  Metrics.gauge m "g.b" (fun () -> !cell);
  Metrics.observe m "r.lat" 10.0;
  Metrics.observe m "r.lat" 30.0;
  cell := 18;
  Alcotest.(check (list (pair string int)))
    "int values read through" [ ("c.a", 5); ("g.b", 18) ] (Metrics.int_values m);
  (match Metrics.reservoirs m with
  | [ ("r.lat", s) ] ->
      Alcotest.(check int) "samples" 2 (Stats.count s);
      Alcotest.(check (float 0.01)) "mean" 20.0 (Stats.mean s)
  | l -> Alcotest.failf "unexpected reservoirs (%d)" (List.length l));
  (* a name that needs escaping must survive the JSON round trip *)
  Metrics.incr (Metrics.counter m "a\"b\\c");
  let json = Json.parse_exn (Metrics.to_json m) in
  let counter name = Option.bind (Json.member "counters" json) (Json.number_member name) in
  Alcotest.(check (option (float 0.0))) "json has counter" (Some 5.0) (counter "c.a");
  Alcotest.(check (option (float 0.0))) "json has escaped counter" (Some 1.0)
    (counter "a\"b\\c");
  Alcotest.(check (option (float 0.0))) "json has reservoir" (Some 2.0)
    (Option.bind
       (Option.bind (Json.member "reservoirs" json) (Json.member "r.lat"))
       (Json.number_member "n"))

(* ------------------------------------------------------------------ *)
(* Trace collector units: span-tree assembly, message ledger, eviction. *)

let test_trace_assembly () =
  let tr = Trace.create ~capacity:8 in
  (* untraced traffic is discarded *)
  Trace.span tr ~trace:0 ~name:"noise" ~actor:"x" ~start:0.0 ~stop:1.0 ();
  Trace.span tr ~trace:7 ~name:"outer" ~actor:"gk0" ~start:0.0 ~stop:100.0 ();
  Trace.span tr ~trace:7 ~name:"inner1" ~actor:"store" ~start:10.0 ~stop:20.0 ();
  Trace.span tr ~trace:7 ~name:"inner2" ~actor:"store" ~start:30.0 ~stop:40.0 ();
  Trace.span tr ~trace:7 ~name:"overlap" ~actor:"shard1" ~start:50.0 ~stop:150.0 ();
  Trace.message tr ~trace:7 ~time:5.0 ~src:9 ~dst:0 ~kind:"Tx_req";
  Trace.message tr ~trace:7 ~time:99.0 ~src:0 ~dst:9 ~kind:"Tx_reply";
  Alcotest.(check (list int)) "ids" [ 7 ] (Trace.trace_ids tr);
  Alcotest.(check int) "messages" 2 (Trace.message_count tr 7);
  Alcotest.(check int) "spans recorded" 4 (List.length (Trace.spans tr 7));
  (match Trace.assemble tr 7 with
  | [ { Trace.node = o; children = [ c1; c2 ] }; { Trace.node = ov; children = [] } ] ->
      Alcotest.(check string) "root" "outer" o.Trace.sp_name;
      Alcotest.(check string) "child 1" "inner1" c1.Trace.node.Trace.sp_name;
      Alcotest.(check string) "child 2" "inner2" c2.Trace.node.Trace.sp_name;
      Alcotest.(check string) "overlapping root" "overlap" ov.Trace.sp_name
  | forest -> Alcotest.failf "unexpected forest shape (%d roots)" (List.length forest));
  let rendered = Trace.render tr 7 in
  Alcotest.(check bool) "render mentions ledger" true
    (String.length rendered > 0 && String.index_opt rendered '\n' <> None)

let test_trace_eviction () =
  let tr = Trace.create ~capacity:2 in
  List.iter
    (fun id -> Trace.span tr ~trace:id ~name:"s" ~actor:"a" ~start:0.0 ~stop:1.0 ())
    [ 1; 2; 3 ];
  Alcotest.(check (list int)) "oldest evicted whole" [ 2; 3 ] (Trace.trace_ids tr);
  Alcotest.(check int) "evicted trace empty" 0 (List.length (Trace.spans tr 1))

(* ------------------------------------------------------------------ *)
(* Acceptance: a traced transaction's span tree contains the
   gatekeeper -> store -> shard chain, in non-decreasing virtual time. *)

let test_traced_tx_chain () =
  let cfg = { Config.default with Config.enable_tracing = true } in
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"t1" ());
  ignore (Client.Tx.create_vertex tx ~id:"t2" ());
  ok (Client.commit client tx);
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_edge tx ~src:"t1" ~dst:"t2");
  ok (Client.commit client tx);
  let id = Client.last_request_id client in
  Cluster.run_for c 10_000.0;
  let tr =
    match Cluster.request_tracer c with
    | Some tr -> tr
    | None -> Alcotest.fail "tracer missing with enable_tracing"
  in
  let spans = Trace.spans tr id in
  let find name =
    match List.find_opt (fun s -> s.Trace.sp_name = name) spans with
    | Some s -> s
    | None -> Alcotest.failf "span %s missing" name
  in
  let admission = find "gk.admission" in
  let gtx = find "gk.tx" in
  let store = find "store.round_trip" in
  let squeue = find "shard.queue" in
  (* the chain: admission, then the gatekeeper's tx handling containing the
     store round trips, then queueing at the shard *)
  Alcotest.(check bool) "admission before tx" true
    (admission.Trace.sp_start <= gtx.Trace.sp_start);
  Alcotest.(check bool) "store inside tx" true
    (gtx.Trace.sp_start <= store.Trace.sp_start
    && store.Trace.sp_stop <= gtx.Trace.sp_stop +. 1e-9);
  Alcotest.(check bool) "shard queue after commit" true
    (squeue.Trace.sp_start >= store.Trace.sp_start);
  (* every span is a well-formed, non-decreasing interval *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s non-decreasing" s.Trace.sp_name)
        true
        (s.Trace.sp_stop >= s.Trace.sp_start))
    spans;
  (* assembled tree nests the store round trips under the tx span *)
  let forest = Trace.assemble tr id in
  let rec tree_has name { Trace.node; children } =
    node.Trace.sp_name = name || List.exists (tree_has name) children
  in
  let tx_tree =
    match
      List.find_opt (fun t -> t.Trace.node.Trace.sp_name = "gk.tx") forest
    with
    | Some t -> t
    | None -> Alcotest.fail "gk.tx not a root"
  in
  Alcotest.(check bool) "store nested under gk.tx" true
    (List.exists (tree_has "store.round_trip") tx_tree.Trace.children);
  Alcotest.(check bool) "messages attributed" true (Trace.message_count tr id >= 3)

(* node programs leave their own chain: admission, gk.prog, shard spans *)
let test_traced_prog_chain () =
  let cfg = { Config.default with Config.enable_tracing = true } in
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"p1" ());
  ok (Client.commit client tx);
  (match
     Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "p1" ] ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "program: %s" e);
  let id = Client.last_request_id client in
  Cluster.run_for c 5_000.0;
  let tr = Option.get (Cluster.request_tracer c) in
  let names = List.map (fun s -> s.Trace.sp_name) (Trace.spans tr id) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "gk.admission"; "gk.prog"; "shard.prog_hop"; "shard.prog_gate"; "shard.prog_exec" ]

(* ------------------------------------------------------------------ *)
(* Regression: the memo key must cover the snapshot and consistency mode.
   Before the fix, a historical run could be served a memoized current-time
   result (and vice versa), and weak/strong runs shared entries. *)

let test_memo_ignores_historical () =
  let cfg =
    { Config.default with Config.enable_memoization = true; Config.n_gatekeepers = 1 }
  in
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"h" ());
  Client.Tx.set_vertex_prop tx ~vid:"h" ~key:"k" ~value:"old";
  ok (Client.commit client tx);
  Cluster.run_for c 20_000.0;
  let snapshot = Cluster.gk_clock c 0 in
  let tx = Client.Tx.begin_ client in
  Client.Tx.set_vertex_prop tx ~vid:"h" ~key:"k" ~value:"new";
  ok (Client.commit client tx);
  Cluster.run_for c 20_000.0;
  let prop_of ?at () =
    match
      Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "h" ]
        ?at ()
    with
    | Ok (Progval.List [ s ]) -> Progval.assoc_opt "k" (Progval.assoc "props" s)
    | Ok v -> Alcotest.failf "unexpected result %s" (Progval.to_string v)
    | Error e -> Alcotest.failf "program: %s" e
  in
  (* memoize the current-time result *)
  Alcotest.(check bool) "current sees new" true
    (prop_of () = Some (Progval.Str "new"));
  Alcotest.(check bool) "repeat still new" true
    (prop_of () = Some (Progval.Str "new"));
  Alcotest.(check int) "second run memo-hit" 1
    (Cluster.counters c).Runtime.memo_hits;
  (* the historical run must not be served from (or stored into) the memo *)
  Alcotest.(check bool) "snapshot sees old value" true
    (prop_of ~at:snapshot () = Some (Progval.Str "old"));
  Alcotest.(check int) "historical bypasses memo" 1
    (Cluster.counters c).Runtime.memo_hits;
  (* ... and a later current-time run is again a hit, not poisoned *)
  Alcotest.(check bool) "current still new" true
    (prop_of () = Some (Progval.Str "new"));
  Alcotest.(check int) "current memo intact" 2
    (Cluster.counters c).Runtime.memo_hits

let test_memo_key_covers_consistency () =
  let cfg =
    {
      Config.default with
      Config.enable_memoization = true;
      Config.n_gatekeepers = 1;
      Config.read_replicas = 1;
    }
  in
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"w" ());
  ok (Client.commit client tx);
  Cluster.run_for c 20_000.0;
  let run consistency =
    match
      Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "w" ]
        ~consistency ()
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "program: %s" e
  in
  run `Strong;
  (* a weak run must not hit the strong run's entry *)
  run `Weak;
  Alcotest.(check int) "weak does not reuse strong memo" 0
    (Cluster.counters c).Runtime.memo_hits;
  run `Strong;
  Alcotest.(check int) "strong reuses strong" 1
    (Cluster.counters c).Runtime.memo_hits

(* ------------------------------------------------------------------ *)
(* Regression: an epoch change while a migration's store round trip is in
   flight must abort the migration (stale FIFO sequence numbers would
   desynchronize both shards' channels). *)

let test_migrate_epoch_race () =
  let cfg =
    { Config.default with Config.n_gatekeepers = 1; Config.net_jitter = 0.0 }
  in
  let c = mk_cluster cfg in
  let rt = Cluster.runtime c in
  let client = Cluster.client c in
  (* the default policy would transparently resubmit on "epoch-change" and
     the second attempt would succeed; this test asserts on the raw
     abort-on-barrier behaviour, so disable retries *)
  Client.set_retry_policy client Client.no_retry_policy;
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"race" ());
  ok (Client.commit client tx);
  Cluster.run_for c 5_000.0;
  let to_shard =
    (Cluster.shard_of_vertex c "race" + 1) mod (Cluster.config c).Config.n_shards
  in
  let result = ref None in
  Client.migrate_async client ~vid:"race" ~to_shard ~on_result:(fun r ->
      result := Some r);
  (* Migrate_req arrives at +50 (zero jitter), admission completes at +70,
     the store round trip lands at +160. An epoch change delivered in
     between (sent at +70, arriving +120) zeroes the gatekeeper's FIFO
     sequence numbers while the migration is mid-flight. *)
  Engine.schedule rt.Runtime.engine ~delay:70.0 (fun () ->
      Net.send rt.Runtime.net ~src:(Runtime.manager_addr rt)
        ~dst:(Runtime.gk_addr rt 0)
        (Msg.Epoch_change { epoch = 1 }));
  Cluster.run_for c 10_000.0;
  (match !result with
  | Some (Error "epoch-change") -> ()
  | Some (Ok ()) -> Alcotest.fail "migration completed across an epoch change"
  | Some (Error e) -> Alcotest.failf "unexpected error: %s" e
  | None -> Alcotest.fail "migration still pending");
  Alcotest.(check int) "no migration recorded" 0
    (Cluster.counters c).Runtime.migrations;
  Alcotest.(check int) "directory unchanged" (Cluster.shard_of_vertex c "race")
    ((to_shard + (Cluster.config c).Config.n_shards - 1)
    mod (Cluster.config c).Config.n_shards)

(* ------------------------------------------------------------------ *)
(* Regression: sends from a dead source are suppressed, not counted (and
   not shown to the tracer) as real traffic. *)

let test_dead_source_not_counted () =
  let engine = Engine.create ~seed:1 () in
  let net : int Net.t = Net.create engine ~latency:Net.local_latency in
  let got = ref [] in
  Net.register net 0 (fun ~src:_ _ -> ());
  Net.register net 1 (fun ~src:_ m -> got := m :: !got);
  let traced = ref 0 in
  Net.set_tracer net (Some (fun ~time:_ ~src:_ ~dst:_ _ -> incr traced));
  Net.send net ~src:0 ~dst:1 10;
  Net.set_alive net 0 false;
  Net.send net ~src:0 ~dst:1 11;
  Net.send net ~src:0 ~dst:1 12;
  Engine.run ~until:1_000.0 engine;
  Alcotest.(check int) "only live send counted" 1 (Net.messages_sent net);
  Alcotest.(check int) "suppressed counted separately" 2 (Net.messages_suppressed net);
  Alcotest.(check int) "only live send delivered" 1 (Net.messages_delivered net);
  Alcotest.(check int) "tracer saw only the live send" 1 !traced;
  Alcotest.(check (list int)) "payload" [ 10 ] !got

(* ------------------------------------------------------------------ *)
(* Regression: LRU eviction under duplicate recency entries. The
   count-based eviction must keep residency at capacity and still serve
   every vertex correctly through demand paging. *)

let test_paging_eviction_capacity () =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = 1;
      Config.n_shards = 1;
      Config.shard_capacity = Some 8;
    }
  in
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  let n = 30 in
  for i = 0 to n - 1 do
    let tx = Client.Tx.begin_ client in
    ignore (Client.Tx.create_vertex tx ~id:(Printf.sprintf "pv%d" i) ());
    Client.Tx.set_vertex_prop tx
      ~vid:(Printf.sprintf "pv%d" i)
      ~key:"i" ~value:(string_of_int i);
    ok (Client.commit client tx)
  done;
  Cluster.run_for c 50_000.0;
  Alcotest.(check bool) "resident at most capacity" true
    (Cluster.shard_resident c 0 <= 8);
  (* every vertex pages back in on demand, with many stale duplicate
     recency entries in between (each read re-touches) *)
  for round = 0 to 2 do
    for i = 0 to n - 1 do
      let vid = Printf.sprintf "pv%d" i in
      match
        Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ vid ] ()
      with
      | Ok (Progval.List [ s ]) ->
          Alcotest.(check bool)
            (Printf.sprintf "round %d: %s intact" round vid)
            true
            (Progval.assoc_opt "i" (Progval.assoc "props" s)
            = Some (Progval.Str (string_of_int i)))
      | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
      | Error e -> Alcotest.failf "%s: %s" vid e
    done;
    Alcotest.(check bool)
      (Printf.sprintf "round %d: still capped" round)
      true
      (Cluster.shard_resident c 0 <= 8)
  done;
  let ctr = Cluster.counters c in
  Alcotest.(check bool) "paged in" true (ctr.Runtime.page_ins > 0);
  Alcotest.(check bool) "evicted" true (ctr.Runtime.evictions > 0)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
        Alcotest.test_case "trace assembly" `Quick test_trace_assembly;
        Alcotest.test_case "trace eviction" `Quick test_trace_eviction;
        Alcotest.test_case "traced tx chain" `Quick test_traced_tx_chain;
        Alcotest.test_case "traced prog chain" `Quick test_traced_prog_chain;
        Alcotest.test_case "memo skips historical" `Quick test_memo_ignores_historical;
        Alcotest.test_case "memo key covers consistency" `Quick
          test_memo_key_covers_consistency;
        Alcotest.test_case "migrate epoch race" `Quick test_migrate_epoch_race;
        Alcotest.test_case "dead source suppressed" `Quick test_dead_source_not_counted;
        Alcotest.test_case "paging eviction capacity" `Quick
          test_paging_eviction_capacity;
      ] );
  ]
