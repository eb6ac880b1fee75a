(* Versioned snapshot store ([Config.snapshot_reads]) and the historical-
   read GC bugfix.

   The regression at the heart of this file: a historical query whose [at]
   timestamp lies at or below the GC watermark used to run against the
   compacted in-memory graph and silently return post-compaction state.
   Post-fix the shard tracks its compaction floor and fails such reads
   with a retryable ["snapshot-gced"] error — unless snapshot serving is
   on, in which case the read pins a published snapshot (rebuilt from the
   durable store, which keeps the full version history) and returns the
   correct historical answer lock-free. *)

open Weaver_core
module Vclock = Weaver_vclock.Vclock
module Snapshot = Weaver_store.Snapshot
module Mgraph = Weaver_graph.Mgraph
module Programs = Weaver_programs.Std_programs

let mk_cluster cfg =
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  c

let ok = function Ok v -> v | Error e -> Alcotest.failf "%s" e

(* ------------------------------------------------------------------ *)
(* Registry units: retention window, pinning, refcount discipline. *)

let test_registry_retention () =
  let t = Snapshot.create ~retain:2 () in
  let _e1 = Snapshot.publish t ~key:"k1" 1 in
  let _e2 = Snapshot.publish t ~key:"k2" 2 in
  let _e3 = Snapshot.publish t ~key:"k3" 3 in
  Alcotest.(check int) "window of 2" 2 (Snapshot.count t);
  Alcotest.(check int) "published total" 3 (Snapshot.published t);
  (match Snapshot.latest t with
  | Some e ->
      Alcotest.(check string) "latest key" "k3" (Snapshot.key e);
      Alcotest.(check int) "latest value" 3 (Snapshot.value e)
  | None -> Alcotest.fail "no latest");
  (* k1 fell out of the window *)
  Alcotest.(check bool) "k1 pruned" true (Snapshot.find t (fun v -> v = 1) = None);
  (* find returns the newest match *)
  match Snapshot.find t (fun v -> v >= 2) with
  | Some e -> Alcotest.(check string) "newest match" "k3" (Snapshot.key e)
  | None -> Alcotest.fail "no match"

let test_registry_pinning () =
  let t = Snapshot.create ~retain:2 () in
  let _ = Snapshot.publish t ~key:"k1" 1 in
  let e2 = Snapshot.publish t ~key:"k2" 2 in
  Snapshot.acquire t e2;
  let _ = Snapshot.publish t ~key:"k3" 3 in
  let _ = Snapshot.publish t ~key:"k4" 4 in
  (* k2 outlived the window because it is pinned *)
  Alcotest.(check int) "window + pin" 3 (Snapshot.count t);
  Alcotest.(check int) "one pinned" 1 (List.length (Snapshot.pinned t));
  Alcotest.(check int) "refs" 1 (Snapshot.refs e2);
  Snapshot.release t e2;
  (* the last release of a retired entry prunes it immediately *)
  Alcotest.(check int) "pruned on release" 2 (Snapshot.count t);
  Alcotest.(check bool) "k2 gone" true (Snapshot.find t (fun v -> v = 2) = None);
  Alcotest.(check int) "acquires" 1 (Snapshot.acquires t);
  Alcotest.(check int) "releases" 1 (Snapshot.releases t);
  (match Snapshot.release t e2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double release must raise");
  match Snapshot.create ~retain:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "retain 0 must raise"

(* ------------------------------------------------------------------ *)
(* Config validation for the new knobs. *)

let test_config_validation () =
  let expect_invalid name cfg =
    match Config.validate cfg with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  Config.validate Config.default;
  Config.validate { Config.default with Config.snapshot_reads = true };
  expect_invalid "snapshots without GC"
    { Config.default with Config.snapshot_reads = true; Config.gc_period = 0.0 }

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

let prop_at_capture cfg =
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"h" ());
  Client.Tx.set_vertex_prop tx ~vid:"h" ~key:"k" ~value:"1";
  ok (Client.commit client tx);
  Cluster.run_for c 5_000.0;
  let at1 = Cluster.gk_clock c 0 in
  List.iter
    (fun v ->
      let tx = Client.Tx.begin_ client in
      Client.Tx.set_vertex_prop tx ~vid:"h" ~key:"k" ~value:v;
      ok (Client.commit client tx))
    [ "2"; "3" ];
  (* several GC rounds: the closed k=1 and k=2 versions are compacted out
     of the shard's in-memory copy and the floor passes [at1] *)
  Cluster.run_for c 30_000.0;
  (match Cluster.shard_gc_floor c 0 with
  | Some floor ->
      Alcotest.(check bool) "floor passed capture" true (Vclock.precedes at1 floor)
  | None -> Alcotest.fail "no compaction happened");
  let result =
    Client.run_program client ~prog:"get_node" ~params:Progval.Null
      ~starts:[ "h" ] ~at:at1 ()
  in
  (c, result)

(* satellite bugfix: at/below the floor with no snapshot to pin, the read
   must fail retryably instead of silently returning post-compaction
   state (pre-fix this returned [Ok] with the k=1 version missing) *)
let test_gced_read_fails_retryably () =
  let c, result = prop_at_capture scenario_cfg in
  (match result with
  | Error "snapshot-gced" -> ()
  | Error e -> Alcotest.failf "wrong error: %s" e
  | Ok v -> Alcotest.failf "silently read post-GC state: %s" (Progval.to_string v));
  (* the error is a retry signal for every stock policy *)
  Alcotest.(check bool) "retryable (default)" true
    (Client.retryable Client.default_policy "snapshot-gced");
  Alcotest.(check bool) "retryable (reliable)" true
    (Client.retryable Client.reliable_policy "snapshot-gced");
  (* ... and the client layer actually resubmitted before giving up *)
  Alcotest.(check bool) "client retried" true
    ((Cluster.counters c).Runtime.client_retries > 0)

(* tentpole: with snapshot serving on, the same read pins the newest
   published snapshot (whose durable-store build covers every version in
   history) and returns the correct pre-overwrite value *)
let test_pinned_snapshot_serves_gced_read () =
  let cfg = { scenario_cfg with Config.snapshot_reads = true } in
  let c, result = prop_at_capture cfg in
  (match result with
  | Ok (Progval.List [ s ]) ->
      Alcotest.(check bool) "sees the captured version" true
        (Progval.assoc_opt "k" (Progval.assoc "props" s) = Some (Progval.Str "1"))
  | Ok v -> Alcotest.failf "unexpected result %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "snapshot read failed: %s" e);
  let ctr = Cluster.counters c in
  Alcotest.(check bool) "snapshots published" true (ctr.Runtime.snap_published > 0);
  Alcotest.(check bool) "read was pinned" true (ctr.Runtime.snap_pinned_reads > 0);
  Alcotest.(check bool) "snapshots retained" true (Cluster.shard_snapshots c 0 > 0);
  (* the run's Prog_gc released its pin *)
  Cluster.run_for c 5_000.0;
  Alcotest.(check int) "no pins left" 0 (Cluster.shard_snapshots_pinned c 0)

(* a pin held across watermark rounds clamps compaction: the gossiped
   watermark keeps advancing but the effective one stops at the pinned
   snapshot's stamp, counted as [snap.gc_deferred] *)
let test_pin_defers_gc () =
  let cfg =
    {
      scenario_cfg with
      Config.snapshot_reads = true;
      Config.gc_period = 500.0;
      (* slow network: the pin (acquired when the Prog_batch arrives)
         stays held for two round trips — partial out, Prog_gc back —
         spanning several watermark rounds *)
      Config.net_base_latency = 2_000.0;
    }
  in
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"h" ());
  Client.Tx.set_vertex_prop tx ~vid:"h" ~key:"k" ~value:"1";
  ok (Client.commit client tx);
  Cluster.run_for c 10_000.0;
  let at1 = Cluster.gk_clock c 0 in
  Cluster.run_for c 5_000.0;
  let got = ref None in
  Client.run_program_async client ~prog:"get_node" ~params:Progval.Null
    ~starts:[ "h" ] ~at:at1
    ~on_result:(fun r -> got := Some r)
    ();
  (* concurrent writer: keeps the gatekeeper clock ticking so the gossiped
     watermark advances past the pinned snapshot's stamp *)
  let stop = ref false in
  let writer = Cluster.client c in
  let rec next k =
    if not !stop then begin
      let tx = Client.Tx.begin_ writer in
      Client.Tx.set_vertex_prop tx ~vid:"h" ~key:"w" ~value:(string_of_int k);
      Client.commit_async writer tx ~on_result:(fun _ -> next (k + 1))
    end
  in
  next 0;
  let max_pinned = ref 0 in
  for _ = 1 to 60 do
    Cluster.run_for c 500.0;
    max_pinned := max !max_pinned (Cluster.shard_snapshots_pinned c 0)
  done;
  stop := true;
  (match !got with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "program: %s" e
  | None -> Alcotest.fail "program never completed");
  Alcotest.(check bool) "a pin was observed" true (!max_pinned > 0);
  Alcotest.(check bool) "gc deferred while pinned" true
    ((Cluster.counters c).Runtime.snap_gc_deferred > 0);
  Alcotest.(check int) "pin released" 0 (Cluster.shard_snapshots_pinned c 0)

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
        Alcotest.test_case "registry retention" `Quick test_registry_retention;
        Alcotest.test_case "registry pinning" `Quick test_registry_pinning;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "gced read fails retryably" `Quick
          test_gced_read_fails_retryably;
        Alcotest.test_case "pinned snapshot serves gced read" `Quick
          test_pinned_snapshot_serves_gced_read;
        Alcotest.test_case "pin defers gc" `Quick test_pin_defers_gc;
        Alcotest.test_case "deterministic capacity reload" `Quick
          test_deterministic_capacity_reload;
      ] );
  ]
