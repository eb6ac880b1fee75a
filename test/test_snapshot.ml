(* Historical reads below a shard's cut (DESIGN §12) and the
   historical-read GC bugfix.

   A historical query whose [at] stamp lies below the GC watermark used to
   run against the compacted in-memory graph and silently return
   post-compaction state. The shard tracks its compaction floor and never
   reads the live graph below it; a read below its cut (the pointwise
   minimum of the gatekeepers' latest watermarks) is served from the
   durable store, which keeps the full version history, and returns the
   historical answer without waiting on the ordering gate. *)

open Weaver_core
module Vclock = Weaver_vclock.Vclock
module Fault = Weaver_sim.Fault
module Programs = Weaver_programs.Std_programs

let mk_cluster cfg =
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  c

let ok = function Ok v -> v | Error e -> Alcotest.failf "%s" e

(* ------------------------------------------------------------------ *)
(* Config validation: historical reads need no knob. With GC off no round
   ever sets a cut, and every historical read is gated against the live
   graph, which then keeps every version. *)

let test_config_validation () =
  Config.validate Config.default;
  Config.validate { Config.default with Config.gc_period = 0.0 }

(* ------------------------------------------------------------------ *)
(* The shared scenario: write k=1, capture a timestamp, overwrite twice,
   let GC compact the closed versions out of shard memory, then read back
   at the captured timestamp. *)

let scenario_cfg =
  {
    Config.default with
    Config.n_gatekeepers = 1;
    Config.n_shards = 1;
    Config.gc_period = 2_000.0;
    Config.net_jitter = 0.0;
  }

let set_k client v =
  let tx = Client.Tx.begin_ client in
  Client.Tx.set_vertex_prop tx ~vid:"h" ~key:"k" ~value:v;
  ok (Client.commit client tx)

let read_at client at =
  Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "h" ] ~at ()

(* the value of [k] in a [get_node] answer *)
let k_of = function
  | Ok (Progval.List [ s ]) -> (
      match Progval.assoc_opt "k" (Progval.assoc "props" s) with
      | Some v -> Progval.to_str v
      | None -> "<none>")
  | Ok v -> Alcotest.failf "unexpected result %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "historical read failed: %s" e

let prop_at_capture cfg =
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"h" ());
  Client.Tx.set_vertex_prop tx ~vid:"h" ~key:"k" ~value:"1";
  ok (Client.commit client tx);
  Cluster.run_for c 5_000.0;
  let at1 = Cluster.gk_clock c 0 in
  List.iter (set_k client) [ "2"; "3" ];
  (* several GC rounds: the closed k=1 and k=2 versions are compacted out
     of the shard's in-memory copy and the floor passes [at1] *)
  Cluster.run_for c 30_000.0;
  (match Cluster.shard_gc_floor c 0 with
  | Some floor ->
      Alcotest.(check bool) "floor passed capture" true (Vclock.precedes at1 floor)
  | None -> Alcotest.fail "no compaction happened");
  (c, client, at1)

(* below the floor the in-memory copy has lost the k=1 version, but the
   stamp is below the cut too: the store answers it, first time *)
let test_read_below_floor_served_from_store () =
  let c, client, at1 = prop_at_capture scenario_cfg in
  Alcotest.(check string) "sees the captured version" "1" (k_of (read_at client at1));
  let ctr = Cluster.counters c in
  Alcotest.(check int) "no client retry" 0 ctr.Runtime.client_retries;
  Alcotest.(check bool) "served from the store" true (ctr.Runtime.pinned_reads > 0);
  (* weak runs re-stamped at a follower watermark still get this error
     from an owner that compacted past their stamp: it stays a retry
     signal for every stock policy *)
  Alcotest.(check bool) "retryable (default)" true
    (Client.retryable Client.default_policy "snapshot-gced");
  Alcotest.(check bool) "retryable (reliable)" true
    (Client.retryable Client.reliable_policy "snapshot-gced")

(* the same read on a shard whose memory holds one record: the store read
   neither pages [h] back in nor evicts the resident record, so analytics
   leave the writers' hot set alone *)
let test_pinned_snapshot_serves_gced_read () =
  let c, client, at1 =
    prop_at_capture { scenario_cfg with Config.shard_capacity = Some 1 }
  in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"x" ());
  ok (Client.commit client tx);
  Cluster.run_for c 5_000.0;
  Alcotest.(check (list string)) "x evicted h" [ "x" ] (Cluster.shard_resident_ids c 0);
  let ctr = Cluster.counters c in
  let page_ins = ctr.Runtime.page_ins and evictions = ctr.Runtime.evictions in
  Alcotest.(check string) "sees the captured version" "1" (k_of (read_at client at1));
  Alcotest.(check bool) "served from the store" true (ctr.Runtime.pinned_reads > 0);
  Alcotest.(check int) "no page-in" page_ins ctr.Runtime.page_ins;
  Alcotest.(check int) "no eviction" evictions ctr.Runtime.evictions;
  Alcotest.(check (list string)) "memory untouched" [ "x" ] (Cluster.shard_resident_ids c 0)

(* A historical run in flight holds no GC watermark: a slow read keeps its
   run open at the gatekeeper across many watermark rounds, the shard's
   floor passes its stamp meanwhile, and it still answers at that stamp.
   After the shard crash-restarts (dropping its cut and floor and
   reloading from the store), the same read returns the same value. *)
let test_inflight_read_holds_no_gc () =
  let cfg =
    {
      scenario_cfg with
      Config.gc_period = 1_000.0;
      (* each visit costs 20 ms of shard time: the run stays open at the
         gatekeeper for about 20 watermark rounds *)
      Config.vertex_read_cost = 20_000.0;
    }
  in
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"h" ());
  Client.Tx.set_vertex_prop tx ~vid:"h" ~key:"k" ~value:"1";
  ok (Client.commit client tx);
  Cluster.run_for c 5_000.0;
  let at1 = Cluster.gk_clock c 0 in
  let got = ref None in
  Client.run_program_async client ~prog:"get_node" ~params:Progval.Null ~starts:[ "h" ]
    ~at:at1
    ~on_result:(fun r -> got := Some r)
    ();
  (* overwrite while the read is open: k=1 closes, and compaction may drop
     it once the floor passes [at1] *)
  let writer = Cluster.client c in
  let tx = Client.Tx.begin_ writer in
  Client.Tx.set_vertex_prop tx ~vid:"h" ~key:"k" ~value:"2";
  Client.commit_async writer tx ~on_result:(fun r -> ignore (ok r));
  let passed_in_flight = ref false in
  for _ = 1 to 60 do
    Cluster.run_for c 500.0;
    match (!got, Cluster.shard_gc_floor c 0) with
    | None, Some floor when Vclock.precedes at1 floor -> passed_in_flight := true
    | _ -> ()
  done;
  Alcotest.(check bool) "floor passed the stamp while the run was open" true
    !passed_in_flight;
  let first =
    match !got with Some r -> k_of r | None -> Alcotest.fail "program never completed"
  in
  Alcotest.(check string) "answers at its stamp" "1" first;
  ignore
    (Cluster.install_fault_plan c
       (Fault.scripted
          [
            (Cluster.now c +. 100.0, Fault.Crash (Fault.Shard 0));
            (Cluster.now c +. 600.0, Fault.Restart (Fault.Shard 0));
          ]));
  Cluster.run_for c 5_000.0;
  Alcotest.(check string) "same value after a restart" first (k_of (read_at client at1))

(* ------------------------------------------------------------------ *)
(* satellite bugfix: crash-recovery reload is deterministic. The reload
   keeps the first [shard_capacity] owned records of the store scan, so
   the scan order (now sorted by key) fully determines the resident set:
   it must equal the lexicographically-first capacity-many owned vids —
   under the pre-fix unspecified Hashtbl order it was whatever the table
   layout produced. *)

let test_deterministic_capacity_reload () =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = 1;
      Config.n_shards = 2;
      Config.shard_capacity = Some 5;
      Config.gc_period = 0.0;
    }
  in
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  for i = 0 to 19 do
    let tx = Client.Tx.begin_ client in
    ignore (Client.Tx.create_vertex tx ~id:(Printf.sprintf "v%02d" i) ());
    ok (Client.commit client tx)
  done;
  Cluster.run_for c 20_000.0;
  Cluster.reload_shards c;
  for sid = 0 to 1 do
    let owned =
      List.filter
        (fun i -> Cluster.shard_of_vertex c (Printf.sprintf "v%02d" i) = sid)
        (List.init 20 Fun.id)
      |> List.map (Printf.sprintf "v%02d")
      |> List.sort String.compare
    in
    let expected = List.filteri (fun i _ -> i < 5) owned in
    Alcotest.(check (list string))
      (Printf.sprintf "shard %d resident set" sid)
      expected
      (Cluster.shard_resident_ids c sid)
  done

let suites =
  [
    ( "snapshot",
      [
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "read below the floor served from the store" `Quick
          test_read_below_floor_served_from_store;
        Alcotest.test_case "pinned snapshot serves gced read" `Quick
          test_pinned_snapshot_serves_gced_read;
        Alcotest.test_case "in-flight read holds no gc" `Quick test_inflight_read_holds_no_gc;
        Alcotest.test_case "deterministic capacity reload" `Quick
          test_deterministic_capacity_reload;
      ] );
  ]
