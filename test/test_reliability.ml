(* Fault-injection harness and client reliability: declarative fault
   plans, retry policy + failure-aware routing, gatekeeper duplicate
   suppression, cross-gatekeeper memo invalidation, shard in-place
   resync, late-reply accounting, and the chaos benchmark's determinism
   and JSON schema. *)

open Weaver_core
open Weaver_workloads
module Fault = Weaver_sim.Fault
module Engine = Weaver_sim.Engine
module Json = Weaver_util.Json
module Xrand = Weaver_util.Xrand
module Programs = Weaver_programs.Std_programs

let mk_cluster ?(cfg = Config.default) () =
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  c

let ok = function Ok v -> v | Error e -> Alcotest.failf "%s" e

(* ------------------------------------------------------------------ *)
(* Fault plans are pure data and install as plain engine events. *)

let test_fault_plan_install () =
  let plan =
    Fault.rolling_crashes
      ~targets:[ Fault.Gatekeeper 1; Fault.Shard 0 ]
      ~start:1_000.0 ~gap:500.0 ~downtime:200.0
  in
  Alcotest.(check int) "two crash/restart pairs" 4 (List.length plan);
  let engine = Engine.create ~seed:1 () in
  let seen = ref [] in
  let n =
    Fault.install engine plan ~exec:(fun a ->
        seen := (Engine.now engine, Fault.action_name a) :: !seen)
  in
  Alcotest.(check int) "all events installed" 4 n;
  Engine.run ~until:10_000.0 engine;
  let seen = List.rev !seen in
  Alcotest.(check (list (pair (float 0.0) string)))
    "events fire in order at their times"
    [
      (1_000.0, "crash"); (1_200.0, "restart"); (1_500.0, "crash"); (1_700.0, "restart");
    ]
    seen

let test_random_plan_deterministic () =
  let mk () =
    let rng = Xrand.create ~seed:9 () in
    Fault.random_plan ~rng
      ~targets:[ Fault.Gatekeeper 0; Fault.Shard 1 ]
      ~start:0.0 ~until:500_000.0 ~mean_gap:50_000.0 ~downtime:10_000.0
  in
  let p1 = mk () and p2 = mk () in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check bool) "plan is non-trivial" true (List.length p1 > 2);
  List.iter
    (fun (e : Fault.event) ->
      Alcotest.(check bool) "within horizon (plus downtime)" true
        (e.Fault.at <= 500_000.0 +. 10_000.0))
    p1

(* ------------------------------------------------------------------ *)
(* Regression (stale memo): a write through one gatekeeper must
   invalidate memoized node-program results held by its peers. Before
   commit-note propagation, gatekeeper 1 kept serving the old value. *)

let test_memo_staleness_across_gatekeepers () =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = 2;
      Config.enable_memoization = true;
      Config.net_jitter = 0.0;
    }
  in
  let c = mk_cluster ~cfg () in
  let writer = Cluster.client c in
  let reader = Cluster.client c in
  Client.set_gatekeeper writer (Some 0);
  Client.set_gatekeeper reader (Some 1);
  let tx = Client.Tx.begin_ writer in
  ignore (Client.Tx.create_vertex tx ~id:"memo0" ());
  Client.Tx.set_vertex_prop tx ~vid:"memo0" ~key:"x" ~value:"1";
  ok (Client.commit writer tx);
  Cluster.run_for c 5_000.0;
  let prop_x () =
    match
      ok
        (Client.run_program reader ~prog:"get_node" ~params:Progval.Null
           ~starts:[ "memo0" ] ())
    with
    | Progval.List [ Progval.Assoc fields ] -> (
        match List.assoc_opt "props" fields with
        | Some (Progval.Assoc props) -> (
            match List.assoc_opt "x" props with Some (Progval.Str s) -> s | _ -> "?")
        | _ -> "?")
    | v -> Alcotest.failf "unexpected get_node result %s" (Progval.to_string v)
  in
  Alcotest.(check string) "initial read" "1" (prop_x ());
  (* prime gatekeeper 1's memo with a second, identical read *)
  Alcotest.(check string) "memoized read" "1" (prop_x ());
  let tx = Client.Tx.begin_ writer in
  Client.Tx.set_vertex_prop tx ~vid:"memo0" ~key:"x" ~value:"2";
  ok (Client.commit writer tx);
  Cluster.run_for c 5_000.0;
  Alcotest.(check string) "peer read sees the write" "2" (prop_x ());
  Alcotest.(check bool) "remote invalidations counted" true
    ((Cluster.counters c).Runtime.memo_remote_invalidations >= 1)

(* ------------------------------------------------------------------ *)
(* Regression (double apply): a commit whose reply misses the client
   timeout must answer the retry from the duplicate-suppression window
   with Ok — not re-execute and fail with "invalid: vertex exists". *)

let test_timed_out_commit_not_double_applied () =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = 1;
      Config.net_jitter = 0.0;
      (* store round trips dominate: the commit lands long after the
         client-side timeout *)
      Config.store_op_cost = 20_000.0;
    }
  in
  let c = mk_cluster ~cfg () in
  let client = Cluster.client c in
  Client.set_timeout client 30_000.0;
  (* huge deterministic backoff: the retry reaches the gatekeeper only
     after the original commit has completed and recorded its dedup entry *)
  Client.set_retry_policy client
    {
      Client.default_policy with
      Client.rp_backoff = 500_000.0;
      Client.rp_backoff_cap = 500_000.0;
    };
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"dup0" ());
  (match Client.commit client tx with
  | Ok () -> ()
  | Error e -> Alcotest.failf "retried commit failed: %s" e);
  let cnt = Cluster.counters c in
  Alcotest.(check int) "applied exactly once" 1 cnt.Runtime.tx_committed;
  Alcotest.(check bool) "retry answered from the dedup window" true
    (cnt.Runtime.dedup_hits >= 1);
  Alcotest.(check bool) "original reply accounted as late" true
    (cnt.Runtime.late_replies >= 1);
  (* the late original shows up in the slow-request log *)
  let late_logged =
    List.exists
      (fun (e : Weaver_obs.Slowlog.entry) ->
        String.length e.Weaver_obs.Slowlog.e_result >= 5
        && String.sub e.Weaver_obs.Slowlog.e_result 0 5 = "late:")
      (Weaver_obs.Slowlog.entries (Cluster.slow_log c))
  in
  Alcotest.(check bool) "late reply in slowlog" true late_logged

(* ------------------------------------------------------------------ *)
(* Failure-aware routing: with one of two gatekeepers crash-stopped (and
   the failure detector disabled), the default policy routes around the
   dead one after the first timeout; a single-attempt client dies on it. *)

let test_routes_around_dead_gatekeeper () =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = 2;
      Config.failure_timeout = 1e12;
      Config.net_jitter = 0.0;
    }
  in
  let c = mk_cluster ~cfg () in
  Cluster.kill_gatekeeper c 0;
  let client = Cluster.client c in
  Client.set_timeout client 50_000.0;
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"route0" ());
  (match Client.commit client tx with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default policy should fail over: %s" e);
  Alcotest.(check bool) "a retry was needed" true
    ((Cluster.counters c).Runtime.client_retries >= 1);
  (* fresh client, no retries, round-robin starts at the dead gatekeeper *)
  let naive = Cluster.client c in
  Client.set_timeout naive 50_000.0;
  Client.set_retry_policy naive Client.no_retry_policy;
  let tx = Client.Tx.begin_ naive in
  ignore (Client.Tx.create_vertex tx ~id:"route1" ());
  match Client.commit naive tx with
  | Error "timeout" -> ()
  | Error e -> Alcotest.failf "expected timeout, got %s" e
  | Ok () -> Alcotest.fail "single-attempt commit to a dead gatekeeper succeeded"

(* ------------------------------------------------------------------ *)
(* In-place shard restart: resync re-baselines the FIFO channels, so a
   revived shard keeps working in the same epoch (no recovery barrier). *)

let test_shard_crash_restart_in_place () =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = 1;
      Config.n_shards = 2;
      Config.failure_timeout = 1e12;
      Config.net_jitter = 0.0;
    }
  in
  let c = mk_cluster ~cfg () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"rs0" ());
  ok (Client.commit client tx);
  Cluster.run_for c 5_000.0;
  let s = Cluster.shard_of_vertex c "rs0" in
  Cluster.apply_fault c (Fault.Crash (Fault.Shard s));
  Cluster.run_for c 50_000.0;
  Cluster.apply_fault c (Fault.Restart (Fault.Shard s));
  Cluster.run_for c 50_000.0;
  Alcotest.(check int) "no epoch barrier ran" 0 (Cluster.epoch c);
  (* the revived shard accepts new FIFO traffic and serves programs *)
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"rs1" ());
  ok (Client.commit client tx);
  match
    Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "rs0" ] ()
  with
  | Ok (Progval.List [ _ ]) -> ()
  | Ok v -> Alcotest.failf "unexpected result %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "query after restart failed: %s" e

(* ------------------------------------------------------------------ *)
(* Crash recovery is bit-identical: the store reload behind [Shard.resync]
   iterates [Store.scan_prefix], whose order is part of the contract
   (sorted by key). With a capacity-limited shard the subset of vertices
   resident after recovery depends on that order, so two identical
   fault-plan runs must leave identical residency. Before scan_prefix was
   sorted this depended on Hashtbl internals. *)

let recovery_residency () =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = 1;
      Config.n_shards = 2;
      Config.shard_capacity = Some 4;
      Config.failure_timeout = 1e12;
      Config.net_jitter = 0.0;
    }
  in
  let c = mk_cluster ~cfg () in
  let client = Cluster.client c in
  for i = 0 to 11 do
    let tx = Client.Tx.begin_ client in
    ignore (Client.Tx.create_vertex tx ~id:(Printf.sprintf "bi%02d" i) ());
    ok (Client.commit client tx)
  done;
  Cluster.run_for c 20_000.0;
  let plan =
    Fault.scripted
      [
        (Cluster.now c +. 1_000.0, Fault.Crash (Fault.Shard 0));
        (Cluster.now c +. 1_500.0, Fault.Crash (Fault.Shard 1));
        (Cluster.now c +. 30_000.0, Fault.Restart (Fault.Shard 0));
        (Cluster.now c +. 31_000.0, Fault.Restart (Fault.Shard 1));
      ]
  in
  ignore (Cluster.install_fault_plan c plan);
  Cluster.run_for c 60_000.0;
  List.map (fun sid -> Cluster.shard_resident_ids c sid) [ 0; 1 ]

let test_recovery_bit_identical () =
  let r1 = recovery_residency () in
  let r2 = recovery_residency () in
  List.iteri
    (fun sid ids ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d respects capacity" sid)
        4 (List.length ids);
      Alcotest.(check (list string))
        (Printf.sprintf "shard %d residency identical across runs" sid)
        ids
        (List.nth r2 sid))
    r1

(* ------------------------------------------------------------------ *)
(* Chaos benchmark: bit-identical across runs with equal options, higher
   availability with the reliability layer on, and valid JSON. *)

let chaos_opts reliable =
  {
    Chaosbench.default_opts with
    Chaosbench.co_seed = 7;
    co_clients = 6;
    co_duration = 400_000.0;
    co_window = 40_000.0;
    co_reliable = reliable;
  }

let test_chaosbench_deterministic_and_better () =
  let off1 = Chaosbench.run (chaos_opts false) in
  let off2 = Chaosbench.run (chaos_opts false) in
  Alcotest.(check string) "same opts, identical JSON"
    (Json.to_string (Chaosbench.to_json off1))
    (Json.to_string (Chaosbench.to_json off2));
  let on_ = Chaosbench.run (chaos_opts true) in
  Alcotest.(check bool) "faults actually injected" true
    (off1.Chaosbench.r_fault_events > 0);
  Alcotest.(check bool) "baseline suffers" true (off1.Chaosbench.r_total_err > 0);
  Alcotest.(check bool) "reliability raises availability" true
    (on_.Chaosbench.r_availability > off1.Chaosbench.r_availability)

let test_chaosbench_json_schema () =
  let o = chaos_opts true in
  let r = Chaosbench.run o in
  (* the document the chaos experiment writes to BENCH_chaos.json *)
  let doc = Json.to_string (Json.Obj (Weaver_bench.Experiments.Chaos.document o (r, r))) in
  match Json.parse doc with
  | Error e -> Alcotest.failf "BENCH_chaos document does not parse: %s" e
  | Ok j ->
      Alcotest.(check (option string))
        "experiment tag" (Some "chaos") (Json.string_member "experiment" j);
      let run = Option.get (Json.member "on" j) in
      List.iter
        (fun field ->
          Alcotest.(check bool)
            (field ^ " is numeric") true
            (Option.is_some (Json.number_member field run)))
        [ "total_ok"; "total_err"; "availability"; "p50_us"; "p99_us"; "retries" ];
      let windows = Option.get (Json.to_list (Option.get (Json.member "windows" run))) in
      Alcotest.(check bool) "windows present" true (List.length windows > 0);
      List.iter
        (fun w ->
          List.iter
            (fun field ->
              Alcotest.(check bool)
                ("window " ^ field) true
                (Option.is_some (Json.number_member field w)))
            [ "start_us"; "ok"; "err" ])
        windows

let suites =
  [
    ( "reliability",
      [
        Alcotest.test_case "fault plan install" `Quick test_fault_plan_install;
        Alcotest.test_case "random plan deterministic" `Quick
          test_random_plan_deterministic;
        Alcotest.test_case "memo staleness across gatekeepers" `Quick
          test_memo_staleness_across_gatekeepers;
        Alcotest.test_case "timed-out commit not double-applied" `Quick
          test_timed_out_commit_not_double_applied;
        Alcotest.test_case "routes around dead gatekeeper" `Quick
          test_routes_around_dead_gatekeeper;
        Alcotest.test_case "recovery bit-identical" `Quick
          test_recovery_bit_identical;
        Alcotest.test_case "shard crash/restart in place" `Quick
          test_shard_crash_restart_in_place;
        Alcotest.test_case "chaosbench deterministic and better" `Slow
          test_chaosbench_deterministic_and_better;
        Alcotest.test_case "chaosbench json schema" `Quick test_chaosbench_json_schema;
      ] );
  ]
