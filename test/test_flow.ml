(* Tests for the overload-management subsystem (Weaver_flow + its wiring):
   admission/credit unit behavior, config-knob validation, the determinism
   guarantees (flow machinery enabled-but-idle is invisible; credits-on
   reruns bit-identically), shedding under open overload, credit-based
   backpressure under a degraded link, and the dead-endpoint drop
   counters. *)

open Weaver_core
module Flow = Weaver_flow.Flow
module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Fault = Weaver_sim.Fault
module Slowlog = Weaver_obs.Slowlog

(* ------------------------------------------------------------------ *)
(* Pure units: admission decisions, credit accounting, priority classes *)

let test_admission_decisions () =
  let open Flow.Admission in
  let off = create ~deadline_budget:0.0 in
  Alcotest.(check bool) "disabled" false (enabled off);
  Alcotest.(check bool) "disabled admits" true
    (decide off ~now:0.0 ~busy_until:1e9 = Admit);
  Alcotest.(check bool) "negative budget disables" false
    (enabled (create ~deadline_budget:(-5.0)));
  (* a queue bound of 2 requests at 20 µs each is a 20 µs wait budget *)
  let capped = create ~deadline_budget:20.0 in
  Alcotest.(check bool) "enabled" true (enabled capped);
  Alcotest.(check bool) "empty queue admits" true
    (decide capped ~now:0.0 ~busy_until:0.0 = Admit);
  Alcotest.(check bool) "one queued admits" true
    (decide capped ~now:0.0 ~busy_until:20.0 = Admit);
  Alcotest.(check bool) "two queued sheds" true
    (decide capped ~now:0.0 ~busy_until:40.0 = Shed_deadline);
  Alcotest.(check bool) "wait is relative to now" true
    (decide capped ~now:100.0 ~busy_until:110.0 = Admit);
  Alcotest.(check bool) "an idle horizon in the past admits" true
    (decide capped ~now:100.0 ~busy_until:0.0 = Admit);
  let budget = create ~deadline_budget:50.0 in
  Alcotest.(check bool) "within budget admits" true
    (decide budget ~now:0.0 ~busy_until:50.0 = Admit);
  Alcotest.(check bool) "over budget sheds" true
    (decide budget ~now:0.0 ~busy_until:50.1 = Shed_deadline)

let test_credit_accounting () =
  let open Flow.Credits in
  let c = create ~peers:2 ~credits:2 in
  Alcotest.(check bool) "enabled" true (enabled c);
  Alcotest.(check int) "initial balance" 2 (available c 0);
  consume c 0;
  consume c 0;
  Alcotest.(check bool) "exhausted after max consumes" true (exhausted c 0);
  Alcotest.(check bool) "peers independent" false (exhausted c 1);
  refund c 0 5;
  Alcotest.(check int) "refund caps at max" 2 (available c 0);
  consume c 1;
  reset_peer c 1;
  Alcotest.(check int) "per-peer reset refills" 2 (available c 1);
  consume c 0;
  consume c 1;
  reset c;
  Alcotest.(check int) "global reset refills" 4 (available c 0 + available c 1);
  let off = create ~peers:2 ~credits:0 in
  Alcotest.(check bool) "zero credits disables" false (enabled off);
  consume off 0;
  Alcotest.(check bool) "disabled never exhausts" false (exhausted off 0)

let test_priority_classes () =
  let control k =
    Alcotest.(check bool) (k ^ " is control") true
      (Flow.priority_of_kind k = Flow.Control)
  in
  List.iter control
    [ "Announce"; "Shard_tx(nop)"; "Heartbeat"; "Commit_note"; "Credit";
      "Epoch_change"; "Epoch_ack"; "Watermark"; "Prog_gc" ];
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " is client traffic") true
        (Flow.priority_of_kind k = Flow.Client_req))
    [ "Tx_req"; "Prog_req"; "Migrate_req"; "Shard_tx" ];
  (* the classifier keys on Msg.kind's rendering: pin the two new ones *)
  Alcotest.(check string) "credit kind" "Credit"
    (Msg.kind (Msg.Credit { shard = 0; gk = 0; n = 1 }));
  Alcotest.(check string) "overloaded kind" "Overloaded"
    (Msg.kind (Msg.Overloaded { req_id = 1; reason = "deadline" }))

(* ------------------------------------------------------------------ *)
(* Config validation: the new flow knobs plus regression coverage for the
   observability capacities *)

let test_config_validation_flow () =
  let bad field f =
    Alcotest.check_raises ("bad " ^ field)
      (Invalid_argument ("Config: bad " ^ field))
      (fun () -> Config.validate (f Config.default))
  in
  bad "deadline_budget" (fun c -> { c with Config.deadline_budget = -0.5 });
  bad "shard_credits" (fun c -> { c with Config.shard_credits = -2 });
  bad "trace_capacity" (fun c -> { c with Config.trace_capacity = 0 });
  bad "slow_log_capacity" (fun c -> { c with Config.slow_log_capacity = 0 });
  (* read replicas advertise coverage at watermark boundaries *)
  bad "read_replicas (requires gc_period > 0)" (fun c ->
      { c with Config.read_replicas = 1; gc_period = 0.0 });
  (* flow knobs at their defaults (off) and enabled values both validate *)
  Config.validate Config.default;
  Config.validate
    {
      Config.default with
      Config.deadline_budget = 1_200.0;
      Config.shard_credits = 64;
    }

(* ------------------------------------------------------------------ *)
(* Determinism: under light load, enabling the admission gate must not
   change a single counter (the gate is pure reads of existing state);
   credits-on runs are deterministic across reruns *)

let mixed_workload cfg =
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  let client = Cluster.client c in
  let rng = Weaver_util.Xrand.create ~seed:99 () in
  let vids =
    List.init 20 (fun i ->
        let tx = Client.Tx.begin_ client in
        let v = Client.Tx.create_vertex tx ~id:(Printf.sprintf "f%d" i) () in
        (match Client.commit client tx with Ok () -> () | Error e -> failwith e);
        v)
  in
  let vertices = Array.of_list vids in
  for _ = 1 to 10 do
    let tx = Client.Tx.begin_ client in
    let src = Weaver_util.Xrand.pick rng vertices in
    ignore (Client.Tx.create_edge tx ~src ~dst:(Weaver_util.Xrand.pick rng vertices));
    ignore (Client.commit client tx)
  done;
  for _ = 1 to 5 do
    ignore
      (Client.run_program client ~prog:"get_edges" ~params:Progval.Null
         ~starts:[ Weaver_util.Xrand.pick rng vertices ]
         ())
  done;
  Cluster.run_for c 20_000.0;
  c

let fingerprint c =
  let ctr = Cluster.counters c in
  let rt = Cluster.runtime c in
  ( ( ctr.Runtime.tx_committed,
      ctr.Runtime.tx_aborted,
      ctr.Runtime.progs_completed,
      ctr.Runtime.shed_deadline + ctr.Runtime.shed_credit ),
    ( Net.messages_sent rt.Runtime.net,
      Net.messages_delivered rt.Runtime.net,
      ctr.Runtime.oracle_consults,
      ctr.Runtime.nop_msgs,
      ctr.Runtime.credit_msgs ) )

let test_idle_gate_is_invisible () =
  let base = { Config.default with Config.seed = 31 } in
  let off = mixed_workload base in
  (* admission enabled with lenient limits and credits off: every request
     admits, and the gate draws no randomness and sends no messages *)
  let on_ =
    mixed_workload
      { base with Config.deadline_budget = 1e9 }
  in
  Alcotest.(check bool) "committed some" true
    ((Cluster.counters off).Runtime.tx_committed > 0);
  Alcotest.(check bool) "bit-identical counters" true
    (fingerprint off = fingerprint on_);
  Alcotest.(check int) "nothing shed" 0
    (Cluster.counters on_).Runtime.shed_deadline

let test_credits_deterministic () =
  let cfg =
    {
      Config.default with
      Config.seed = 32;
      Config.shard_credits = 8;
      Config.deadline_budget = 1e9;
    }
  in
  let a = mixed_workload cfg in
  let b = mixed_workload cfg in
  Alcotest.(check bool) "credits actually flowed" true
    ((Cluster.counters a).Runtime.credit_msgs > 0);
  Alcotest.(check bool) "rerun bit-identical" true (fingerprint a = fingerprint b)

(* ------------------------------------------------------------------ *)
(* Shedding under open overload: a burst far past the deadline budget is
   rejected early with shed: errors, control traffic keeps flowing, and
   the slow log records the rejects *)

let flood c ~clients ~requests =
  let results = ref [] in
  let handles =
    Array.init clients (fun _ ->
        let cl = Cluster.client c in
        Client.set_retry_policy cl Client.no_retry_policy;
        cl)
  in
  for i = 0 to requests - 1 do
    let tx = Client.Tx.begin_ handles.(i mod clients) in
    ignore (Client.Tx.create_vertex tx ());
    Client.commit_async handles.(i mod clients) tx ~on_result:(fun r ->
        results := r :: !results)
  done;
  Cluster.run_for c 300_000.0;
  !results

let count_errors results prefix =
  List.length
    (List.filter
       (function
         | Error e ->
             String.length e >= String.length prefix
             && String.sub e 0 (String.length prefix) = prefix
         | Ok () -> false)
       results)

let test_shed_deadline () =
  let cfg =
    {
      Config.default with
      Config.seed = 34;
      Config.n_gatekeepers = 1;
      Config.n_shards = 2;
      Config.deadline_budget = 30.0;
      Config.slow_log_capacity = 200;
    }
  in
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  let results = flood c ~clients:8 ~requests:80 in
  let ctr = Cluster.counters c in
  Alcotest.(check int) "every request resolved" 80 (List.length results);
  Alcotest.(check bool) "some admitted" true (List.exists Result.is_ok results);
  Alcotest.(check bool) "deadline sheds observed" true
    (count_errors results "shed:deadline" > 0);
  Alcotest.(check int) "counter matches replies" ctr.Runtime.shed_deadline
    (count_errors results "shed:deadline");
  Alcotest.(check int) "every shed is a deadline shed" (count_errors results "shed:")
    (count_errors results "shed:deadline");
  (* control traffic kept flowing: heartbeats were never shed, so the
     manager saw no failure and drove no recovery *)
  Alcotest.(check bool) "heartbeats flowed" true (ctr.Runtime.heartbeat_msgs > 0);
  Alcotest.(check bool) "nops flowed" true (ctr.Runtime.nop_msgs > 0);
  Alcotest.(check int) "no spurious recovery" 0 ctr.Runtime.recoveries;
  (* the slow log records rejects with the shed: prefix, like late: *)
  let shed_logged =
    List.exists
      (fun e ->
        String.length e.Slowlog.e_result >= 5
        && String.sub e.Slowlog.e_result 0 5 = "shed:")
      (Slowlog.entries (Cluster.slow_log c))
  in
  Alcotest.(check bool) "slowlog has shed: entries" true shed_logged

let test_shed_is_retryable () =
  Alcotest.(check bool) "shed retryable" true
    (Client.retryable Client.default_policy "shed:credit");
  Alcotest.(check bool) "shed retryable (deadline)" true
    (Client.retryable Client.reliable_policy "shed:deadline");
  Alcotest.(check bool) "invalid not retryable" false
    (Client.retryable Client.reliable_policy "invalid: bad op")

(* ------------------------------------------------------------------ *)
(* Credit backpressure under a fault plan: a latency-degraded shard link
   delays refunds, admission rejects with shed:credit, and recovery
   restores the full balance and goodput *)

let test_credit_backpressure_under_degrade () =
  let cfg =
    {
      Config.default with
      Config.seed = 35;
      Config.n_gatekeepers = 1;
      Config.n_shards = 1;
      Config.shard_credits = 3;
    }
  in
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  Cluster.run_for c 2_000.0;
  let degrade_at = Cluster.now c +. 1_000.0 in
  let restore_at = degrade_at +. 15_000.0 in
  let installed =
    Cluster.install_fault_plan c
      (Fault.scripted
         [
           ( degrade_at,
             Fault.Link_degrade
               {
                 src = Fault.Shard 0;
                 dst = Fault.Gatekeeper 0;
                 factor = 400.0;
               } );
           ( restore_at,
             Fault.Link_degrade
               { src = Fault.Shard 0; dst = Fault.Gatekeeper 0; factor = 1.0 }
           );
         ])
  in
  Alcotest.(check int) "plan installed" 2 installed;
  let client = Cluster.client c in
  Client.set_retry_policy client Client.no_retry_policy;
  let results = ref [] in
  for _ = 0 to 39 do
    let tx = Client.Tx.begin_ client in
    ignore (Client.Tx.create_vertex tx ());
    Client.commit_async client tx ~on_result:(fun r -> results := r :: !results);
    Cluster.run_for c 400.0
  done;
  let ctr = Cluster.counters c in
  Alcotest.(check bool) "credits drained, admission rejected" true
    (ctr.Runtime.shed_credit > 0);
  Alcotest.(check bool) "shed:credit surfaced to the client" true
    (count_errors !results "shed:credit" > 0);
  (* recovery: the restored link lets refunds drain back *)
  Cluster.run_for c 100_000.0;
  Alcotest.(check int) "balance restored" 3 (Cluster.gk_credits c ~gid:0 ~shard:0);
  let after = Client.commit client (let tx = Client.Tx.begin_ client in
                                    ignore (Client.Tx.create_vertex tx ());
                                    tx)
  in
  Alcotest.(check bool) "goodput restored" true (Result.is_ok after);
  Alcotest.(check int) "no further credit sheds" ctr.Runtime.shed_credit
    (Cluster.counters c).Runtime.shed_credit

(* ------------------------------------------------------------------ *)
(* Dead-endpoint drop accounting at the network layer *)

let test_net_dropped () =
  let engine = Engine.create ~seed:5 () in
  let net = Net.create engine ~latency:(Net.uniform_latency ~base:50.0 ~jitter:0.0) in
  Net.register net 1 (fun ~src:_ _ -> ());
  Net.register net 2 (fun ~src:_ _ -> ());
  Net.set_alive net 1 false;
  for _ = 1 to 3 do
    Net.send net ~src:0 ~dst:1 "dead"
  done;
  Net.send net ~src:0 ~dst:2 "alive";
  Engine.run engine;
  Alcotest.(check int) "dropped counted" 3 (Net.messages_dropped net);
  Alcotest.(check (list (pair int int))) "per-destination breakdown" [ (1, 3) ]
    (Net.drops_by_dst net);
  Alcotest.(check int) "live traffic delivered" 4 (Net.messages_sent net);
  Net.set_alive net 1 true;
  Net.send net ~src:0 ~dst:1 "revived";
  Engine.run engine;
  Alcotest.(check int) "revival stops the count" 3 (Net.messages_dropped net)

let suites =
  [
    ( "flow.units",
      [
        Alcotest.test_case "admission decisions" `Quick test_admission_decisions;
        Alcotest.test_case "credit accounting" `Quick test_credit_accounting;
        Alcotest.test_case "priority classes" `Quick test_priority_classes;
        Alcotest.test_case "config validation" `Quick test_config_validation_flow;
        Alcotest.test_case "shed errors retryable" `Quick test_shed_is_retryable;
      ] );
    ( "flow.cluster",
      [
        Alcotest.test_case "idle gate is invisible" `Quick test_idle_gate_is_invisible;
        Alcotest.test_case "credits deterministic" `Quick test_credits_deterministic;
        Alcotest.test_case "shed on deadline" `Quick test_shed_deadline;
        Alcotest.test_case "credit backpressure + recovery" `Quick
          test_credit_backpressure_under_degrade;
        Alcotest.test_case "net dropped at dead endpoints" `Quick test_net_dropped;
      ] );
  ]
