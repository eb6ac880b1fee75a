(* End-to-end strict serializability checks over the full stack (paper
   §4.4): concurrent writers and readers race on shared vertices through
   different gatekeepers, and the observable history must admit a serial
   order consistent with real time.

   The key observable: with only edge creations on a hub vertex, the degree
   is monotonically non-decreasing in any serializable order. Strict
   serializability additionally forces real-time consistency: if read R1's
   response precedes read R2's invocation, then R1's value <= R2's value;
   and every read lies between the number of writes whose responses
   preceded its invocation (lower bound) and the number of writes invoked
   before its response (upper bound). *)

open Weaver_core
module Programs = Weaver_programs.Std_programs

type read_obs = { r_invoked : float; r_responded : float; r_degree : int }
type write_obs = { w_invoked : float; w_responded : float }

let run_race ?cfg ?(side_writers = 0) ?(pin_hub_writers = false) ~seed ~writers
    ~readers ~writes_per_writer () =
  let cfg =
    match cfg with
    | Some c -> { c with Config.seed }
    | None -> { Config.default with Config.seed; Config.n_shards = 4 }
  in
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  let setup = Cluster.client c in
  let tx = Client.Tx.begin_ setup in
  ignore (Client.Tx.create_vertex tx ~id:"hub" ());
  ignore (Client.Tx.create_vertex tx ~id:"leaf" ());
  for i = 0 to side_writers - 1 do
    ignore (Client.Tx.create_vertex tx ~id:(Printf.sprintf "side%d" i) ())
  done;
  (match Client.commit setup tx with Ok () -> () | Error e -> Alcotest.failf "setup: %s" e);
  let reads : read_obs list ref = ref [] in
  let writes : write_obs list ref = ref [] in
  (* writers: sequential edge creations on the hub, retrying on conflicts.
     When pinned, all hub traffic (writers and readers alike) goes through
     gatekeeper 0: the hub's last-update stamp checks then order it by
     vector clock alone, so the timeline oracle accumulates no hub-driven
     edges — cross-gatekeeper conflicts between the side writers must be
     refined reactively at the shard instead *)
  for _ = 1 to writers do
    let client = Cluster.client c in
    if pin_hub_writers then Client.set_gatekeeper client (Some 0);
    let remaining = ref writes_per_writer in
    let rec next () =
      if !remaining > 0 then begin
        let invoked = Cluster.now c in
        let tx = Client.Tx.begin_ client in
        ignore (Client.Tx.create_edge tx ~src:"hub" ~dst:"leaf");
        Client.commit_async client tx ~on_result:(fun r ->
            (match r with
            | Ok () ->
                decr remaining;
                writes := { w_invoked = invoked; w_responded = Cluster.now c } :: !writes
            | Error _ -> () (* OCC conflict: retry *));
            next ())
      end
    in
    next ()
  done;
  (* readers: repeated degree reads on the hub *)
  let stop = ref false in
  for _ = 1 to readers do
    let client = Cluster.client c in
    if pin_hub_writers then Client.set_gatekeeper client (Some 0);
    let rec next () =
      if not !stop then begin
        let invoked = Cluster.now c in
        Client.run_program_async client ~prog:"count_edges" ~params:Progval.Null
          ~starts:[ "hub" ]
          ~on_result:(fun r ->
            (match r with
            | Ok (Progval.Int d) ->
                reads :=
                  { r_invoked = invoked; r_responded = Cluster.now c; r_degree = d }
                  :: !reads
            | _ -> ());
            next ())
          ()
      end
    in
    next ()
  done;
  (* side writers: single-vertex property writes on distinct vertices
     through pinned, distinct gatekeepers. Same-vertex write-write races
     are ordered proactively at the gatekeepers via the last-update stamp
     check, so they never reach a shard undecided; cross-vertex races on
     one shard have no such gate — concurrent queue heads from different
     gatekeepers are exactly the pairs the shard must refine reactively. *)
  for i = 0 to side_writers - 1 do
    let client = Cluster.client c in
    Client.set_gatekeeper client (Some (i mod cfg.Config.n_gatekeepers));
    let vid = Printf.sprintf "side%d" i in
    let k = ref 0 in
    let rec next () =
      if not !stop then begin
        incr k;
        let tx = Client.Tx.begin_ client in
        Client.Tx.set_vertex_prop tx ~vid ~key:"n" ~value:(string_of_int !k);
        Client.commit_async client tx ~on_result:(fun _ -> next ())
      end
    in
    next ()
  done;
  (* run until all writes are done, then a little longer for final reads *)
  let budget = ref 4_000 in
  let all_done () = List.length !writes >= writers * writes_per_writer in
  while (not (all_done ())) && !budget > 0 do
    decr budget;
    Cluster.run_for c 1_000.0
  done;
  Alcotest.(check bool) "all writes committed" true (all_done ());
  Cluster.run_for c 20_000.0;
  stop := true;
  Cluster.run_for c 20_000.0;
  (c, List.rev !reads, List.rev !writes)

let check_strict_serializability reads writes =
  (* 1. reads are monotone across non-overlapping pairs *)
  List.iter
    (fun r1 ->
      List.iter
        (fun r2 ->
          if r1.r_responded < r2.r_invoked then
            Alcotest.(check bool)
              (Printf.sprintf "monotone reads (%d then %d)" r1.r_degree r2.r_degree)
              true
              (r1.r_degree <= r2.r_degree))
        reads)
    reads;
  (* 2. each read bounded by completed-before and invoked-before writes *)
  List.iter
    (fun r ->
      let completed_before =
        List.length (List.filter (fun w -> w.w_responded < r.r_invoked) writes)
      in
      let invoked_before =
        List.length (List.filter (fun w -> w.w_invoked < r.r_responded) writes)
      in
      Alcotest.(check bool)
        (Printf.sprintf "read %d >= %d completed writes" r.r_degree completed_before)
        true
        (r.r_degree >= completed_before);
      Alcotest.(check bool)
        (Printf.sprintf "read %d <= %d invoked writes" r.r_degree invoked_before)
        true
        (r.r_degree <= invoked_before))
    reads

let test_race seed () =
  let c, reads, writes =
    run_race ~seed ~writers:3 ~readers:2 ~writes_per_writer:5 ()
  in
  Alcotest.(check bool) "some reads observed" true (List.length reads > 3);
  check_strict_serializability reads writes;
  (* final state: hub degree equals total committed creates, on the shard
     AND in the durable store *)
  let client = Cluster.client c in
  (match
     Client.run_program client ~prog:"count_edges" ~params:Progval.Null ~starts:[ "hub" ] ()
   with
  | Ok (Progval.Int d) -> Alcotest.(check int) "final degree" 15 d
  | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "final read: %s" e);
  match Cluster.stored_vertex c "hub" with
  | Some v -> Alcotest.(check int) "durable degree" 15 (Array.length v.Weaver_graph.Mgraph.out)
  | None -> Alcotest.fail "hub missing from store"

(* Forced-coalescing configuration: three gatekeepers hammer the same hub
   vertex while announcements are rare (large τ), so gatekeeper clocks stay
   mutually concurrent and the proactive stage decides almost nothing —
   shard event loops repeatedly hit undecided head pairs, including while a
   consult is already in flight, which exercises the batch-join path under
   real traffic. Frequent NOPs keep every queue fed so the loop keeps
   confronting those heads instead of idling. *)
let coalesce_cfg =
  {
    Config.default with
    Config.n_gatekeepers = 3;
    Config.n_shards = 1;
    Config.tau = 50_000.0;
    Config.nop_period = 400.0;
  }

(* The same topology with shard credits on: hub writers pinned to
   gatekeeper 0 queue up behind a stalled shard head during a consult, and
   when it lands the shard burst-drains the queue — one flow-control
   [Credit] per applied transaction, all to gatekeeper 0. *)
let credit_cfg = { coalesce_cfg with Config.shard_credits = 64 }

let coalesce_fingerprint c =
  let ctr = Cluster.counters c in
  let rt = Cluster.runtime c in
  ( ( ctr.Runtime.tx_committed,
      ctr.Runtime.tx_aborted,
      ctr.Runtime.oracle_consults,
      ctr.Runtime.shard_oracle_consults,
      ctr.Runtime.shard_oracle_batched ),
    ( Weaver_sim.Net.messages_sent rt.Runtime.net,
      Weaver_sim.Net.messages_delivered rt.Runtime.net,
      Runtime.oracle_queries_served rt,
      ctr.Runtime.nop_msgs ) )

let test_coalesced_race ?(cfg = coalesce_cfg) seed () =
  let writers = 3 and readers = 2 and writes_per_writer = 5 in
  let c, reads, writes =
    run_race ~cfg ~side_writers:6 ~pin_hub_writers:true ~seed ~writers
      ~readers ~writes_per_writer ()
  in
  (* the configuration must actually exercise the refinement path *)
  Alcotest.(check bool) "oracle consulted" true
    ((Cluster.counters c).Runtime.shard_oracle_consults > 0);
  (* capture before the extra final-degree read below advances c's engine:
     both fingerprints must describe the same logical point (end of race) *)
  let fp = coalesce_fingerprint c in
  Alcotest.(check bool) "some reads observed" true (List.length reads > 3);
  check_strict_serializability reads writes;
  (let client = Cluster.client c in
   match
     Client.run_program client ~prog:"count_edges" ~params:Progval.Null
       ~starts:[ "hub" ] ()
   with
   | Ok (Progval.Int d) ->
       Alcotest.(check int) "final degree" (writers * writes_per_writer) d
   | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
   | Error e -> Alcotest.failf "final read: %s" e);
  (* coalesced refinement must stay bit-for-bit deterministic: the same
     seed reruns to the identical counter fingerprint *)
  let c2, _, _ =
    run_race ~cfg ~side_writers:6 ~pin_hub_writers:true ~seed ~writers
      ~readers ~writes_per_writer ()
  in
  Alcotest.(check bool) "bit-identical rerun" true
    (fp = coalesce_fingerprint c2)

let test_coalescing_observed () =
  (* across the seed sweep, at least one run must have folded a mid-flight
     conflict into an outstanding consult — otherwise the suite is not
     testing coalescing at all *)
  let total = ref 0 in
  List.iter
    (fun seed ->
      let c, _, _ =
        run_race ~cfg:coalesce_cfg ~side_writers:6 ~pin_hub_writers:true ~seed
          ~writers:3 ~readers:2 ~writes_per_writer:5 ()
      in
      total := !total + (Cluster.counters c).Runtime.shard_oracle_batched)
    [ 404; 505; 606 ];
  Alcotest.(check bool) "batch joins happened" true (!total > 0)

(* Historical analytics against live hub-write traffic: the program runs
   at a captured past stamp, below the shards' cut and so served from the
   durable store, while writers keep growing the hub, and its answer must
   equal the store's state at exactly that cut — not a blend of versions.
   One gatekeeper keeps every stamp vclock-ordered, so the expected value
   is computable with vector-clock comparison alone. *)
let test_snapshot_analytics_consistent_cut () =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = 1;
      Config.n_shards = 2;
      Config.gc_period = 10_000.0;
      Config.net_jitter = 0.0;
    }
  in
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  let setup = Cluster.client c in
  let tx = Client.Tx.begin_ setup in
  ignore (Client.Tx.create_vertex tx ~id:"hub" ());
  ignore (Client.Tx.create_vertex tx ~id:"leaf" ());
  (match Client.commit setup tx with Ok () -> () | Error e -> Alcotest.failf "setup: %s" e);
  for _ = 1 to 4 do
    let tx = Client.Tx.begin_ setup in
    ignore (Client.Tx.create_edge tx ~src:"hub" ~dst:"leaf");
    match Client.commit setup tx with
    | Ok () -> ()
    | Error e -> Alcotest.failf "pre-cut write: %s" e
  done;
  Cluster.run_for c 30_000.0;
  let at0 = Cluster.gk_clock c 0 in
  (* writers race ahead of the cut; let a few watermark rounds pass so
     every shard's cut passes [at0] before the analytics arrives *)
  let stop = ref false in
  for _ = 1 to 2 do
    let w = Cluster.client c in
    let rec next () =
      if not !stop then begin
        let tx = Client.Tx.begin_ w in
        ignore (Client.Tx.create_edge tx ~src:"hub" ~dst:"leaf");
        Client.commit_async w tx ~on_result:(fun _ -> next ())
      end
    in
    next ()
  done;
  Cluster.run_for c 25_000.0;
  let result = ref None in
  let analyst = Cluster.client c in
  Client.run_program_async analyst ~prog:"count_edges" ~params:Progval.Null
    ~starts:[ "hub" ] ~at:at0
    ~on_result:(fun r -> result := Some r)
    ();
  let budget = ref 200 in
  while !result = None && !budget > 0 do
    decr budget;
    Cluster.run_for c 1_000.0
  done;
  stop := true;
  Cluster.run_for c 20_000.0;
  let expected =
    match Cluster.stored_vertex c "hub" with
    | Some v ->
        List.length
          (Weaver_graph.Mgraph.out_edges
             (fun a b -> Weaver_vclock.Vclock.precedes a b)
             v ~at:at0)
    | None -> Alcotest.fail "hub missing from store"
  in
  Alcotest.(check int) "cut captured before the writers" 4 expected;
  (match !result with
  | Some (Ok (Progval.Int d)) ->
      Alcotest.(check int) "pinned read equals store at the cut" expected d
  | Some (Ok v) -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Some (Error e) -> Alcotest.failf "analytics: %s" e
  | None -> Alcotest.fail "analytics never completed");
  Alcotest.(check bool) "served from the store" true
    ((Cluster.counters c).Runtime.pinned_reads > 0);
  (* hub keeps growing past the cut: the writers actually raced *)
  match Cluster.stored_vertex c "hub" with
  | Some v -> Alcotest.(check bool) "writers advanced the hub" true
      (Array.length v.Weaver_graph.Mgraph.out > expected)
  | None -> Alcotest.fail "hub missing from store"

(* The full race under live partial replication: owner streaming and
   covered-read routing must not weaken the client-observable
   history — strong reads stay strictly serializable and the final state is
   exact. *)
let test_race_with_replication seed () =
  let cfg =
    {
      Config.default with
      Config.n_shards = 4;
      Config.enable_heat = true;
      Config.replication_factor = 2;
      Config.gc_period = 2_000.0;
    }
  in
  let c, reads, writes =
    run_race ~cfg ~seed ~writers:3 ~readers:2 ~writes_per_writer:5 ()
  in
  Alcotest.(check bool) "some reads observed" true (List.length reads > 3);
  check_strict_serializability reads writes;
  let client = Cluster.client c in
  match
    Client.run_program client ~prog:"count_edges" ~params:Progval.Null
      ~starts:[ "hub" ] ()
  with
  | Ok (Progval.Int d) -> Alcotest.(check int) "final degree" 15 d
  | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "final read: %s" e

(* A pinned-stamp read against a replicated hot range: once follower
   coverage passes the cut (and the owner's own compaction floor moves
   beyond it), the read is served by a follower copy — and its answer must
   equal the durable store's state at exactly that cut, every time. *)
let test_replicated_pinned_cut () =
  let cfg =
    {
      Config.default with
      Config.seed = 31;
      Config.n_gatekeepers = 1;
      Config.n_shards = 4;
      Config.enable_heat = true;
      Config.replication_factor = 2;
      Config.gc_period = 2_000.0;
      Config.net_jitter = 0.0;
    }
  in
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  let setup = Cluster.client c in
  let tx = Client.Tx.begin_ setup in
  ignore (Client.Tx.create_vertex tx ~id:"hub" ());
  ignore (Client.Tx.create_vertex tx ~id:"leaf" ());
  (match Client.commit setup tx with Ok () -> () | Error e -> Alcotest.failf "setup: %s" e);
  for _ = 1 to 4 do
    let tx = Client.Tx.begin_ setup in
    ignore (Client.Tx.create_edge tx ~src:"hub" ~dst:"leaf");
    match Client.commit setup tx with
    | Ok () -> ()
    | Error e -> Alcotest.failf "pre-cut write: %s" e
  done;
  (* make the hub hot; wait until its range is replicated and covered *)
  let ctr = Cluster.counters c in
  let budget = ref 300 in
  while ctr.Runtime.repl_routed = 0 && !budget > 0 do
    decr budget;
    ignore
      (Client.run_program setup ~prog:"count_edges" ~params:Progval.Null
         ~starts:[ "hub" ] ~consistency:`Weak ());
    Cluster.run_for c 200.0
  done;
  Alcotest.(check bool) "hub range replicated and covered" true
    (ctr.Runtime.repl_routed > 0);
  Cluster.run_for c 6_000.0;
  let at0 = Cluster.gk_clock c 0 in
  (* writers race past the cut *)
  let stop = ref false in
  for _ = 1 to 2 do
    let w = Cluster.client c in
    let rec next () =
      if not !stop then begin
        let tx = Client.Tx.begin_ w in
        ignore (Client.Tx.create_edge tx ~src:"hub" ~dst:"leaf");
        Client.commit_async w tx ~on_result:(fun _ -> next ())
      end
    in
    next ()
  done;
  (* a few watermark rounds: follower coverage passes [at0] *)
  Cluster.run_for c 8_000.0;
  let routed0 = ctr.Runtime.repl_routed in
  let expected =
    match Cluster.stored_vertex c "hub" with
    | Some v ->
        List.length
          (Weaver_graph.Mgraph.out_edges
             (fun a b -> Weaver_vclock.Vclock.precedes a b)
             v ~at:at0)
    | None -> Alcotest.fail "hub missing from store"
  in
  Alcotest.(check int) "cut captured before the writers" 4 expected;
  for i = 1 to 4 do
    match
      Client.run_program setup ~prog:"count_edges" ~params:Progval.Null
        ~starts:[ "hub" ] ~at:at0 ()
    with
    | Ok (Progval.Int d) ->
        Alcotest.(check int)
          (Printf.sprintf "pinned read %d equals the store at the cut" i)
          expected d
    | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
    | Error e -> Alcotest.failf "pinned read %d: %s" i e
  done;
  stop := true;
  Cluster.run_for c 20_000.0;
  Alcotest.(check bool) "pinned reads served by followers" true
    (ctr.Runtime.repl_routed > routed0);
  match Cluster.stored_vertex c "hub" with
  | Some v ->
      Alcotest.(check bool) "writers advanced past the cut" true
        (Array.length v.Weaver_graph.Mgraph.out > expected)
  | None -> Alcotest.fail "hub missing from store"

let test_write_skew_prevented () =
  (* two transactions each read both flags and flip one; under strict
     serializability at most... actually exactly one must abort because
     both declare read dependencies on both vertices *)
  let c = Cluster.create Config.default in
  Programs.Std.register_all (Cluster.registry c);
  let c1 = Cluster.client c and c2 = Cluster.client c in
  let setup = Cluster.client c in
  let tx = Client.Tx.begin_ setup in
  ignore (Client.Tx.create_vertex tx ~id:"f1" ());
  ignore (Client.Tx.create_vertex tx ~id:"f2" ());
  (match Client.commit setup tx with Ok () -> () | Error e -> Alcotest.failf "%s" e);
  let r1 = ref None and r2 = ref None in
  let tx1 = Client.Tx.begin_ c1 in
  Client.Tx.read_vertex tx1 "f1";
  Client.Tx.read_vertex tx1 "f2";
  Client.Tx.set_vertex_prop tx1 ~vid:"f1" ~key:"on" ~value:"true";
  let tx2 = Client.Tx.begin_ c2 in
  Client.Tx.read_vertex tx2 "f1";
  Client.Tx.read_vertex tx2 "f2";
  Client.Tx.set_vertex_prop tx2 ~vid:"f2" ~key:"on" ~value:"true";
  Client.commit_async c1 tx1 ~on_result:(fun r -> r1 := Some r);
  Client.commit_async c2 tx2 ~on_result:(fun r -> r2 := Some r);
  Cluster.run_for c 100_000.0;
  let ok r = r = Some (Ok ()) in
  Alcotest.(check int) "exactly one flag-flip commits" 1
    (List.length (List.filter ok [ !r1; !r2 ]))

let suites =
  [
    ( "serializability",
      [
        Alcotest.test_case "race seed 1" `Quick (test_race 101);
        Alcotest.test_case "race seed 2" `Quick (test_race 202);
        Alcotest.test_case "race seed 3" `Quick (test_race 303);
        Alcotest.test_case "coalesced race seed 1" `Quick (test_coalesced_race 404);
        Alcotest.test_case "coalesced race seed 2" `Quick (test_coalesced_race 505);
        Alcotest.test_case "coalesced race seed 3" `Quick (test_coalesced_race 606);
        Alcotest.test_case "coalescing observed" `Quick test_coalescing_observed;
        (* the same race with shard credits on: the credit-burst topology *)
        Alcotest.test_case "coalesced race seed 4" `Quick
          (test_coalesced_race ~cfg:credit_cfg 707);
        Alcotest.test_case "coalesced race seed 5" `Quick
          (test_coalesced_race ~cfg:credit_cfg 808);
        Alcotest.test_case "snapshot analytics consistent cut" `Quick
          test_snapshot_analytics_consistent_cut;
        Alcotest.test_case "race with replication on" `Quick
          (test_race_with_replication 909);
        Alcotest.test_case "replicated pinned cut" `Quick
          test_replicated_pinned_cut;
        Alcotest.test_case "write skew prevented" `Quick test_write_skew_prevented;
      ] );
  ]
