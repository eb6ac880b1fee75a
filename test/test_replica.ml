(* Tests for read-only shard replicas (§6.4): replication stream,
   eventual convergence, weak reads, and observable staleness. *)

open Weaver_core
module Fault = Weaver_sim.Fault
module Programs = Weaver_programs.Std_programs

let mk_cluster ?(replicas = 1) () =
  let cfg = { Config.default with Config.read_replicas = replicas } in
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  c

let ok = function Ok v -> v | Error e -> Alcotest.failf "%s" e

let test_replication_stream_converges () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"r1" ());
  ignore (Client.Tx.create_vertex tx ~id:"r2" ());
  ignore (Client.Tx.create_edge tx ~src:"r1" ~dst:"r2");
  ok (Client.commit client tx);
  let shard = Cluster.shard_of_vertex c "r1" in
  (* at commit time the replica may not have applied yet — that is the
     staleness window; primaries have the write as soon as they apply *)
  Cluster.run_for c 50_000.0;
  (match Cluster.replica_vertex c ~shard ~replica:0 "r1" with
  | Some v -> Alcotest.(check int) "replica has the edge" 1 (Array.length v.Weaver_graph.Mgraph.out)
  | None -> Alcotest.fail "replica missing r1");
  Alcotest.(check bool) "stream counted" true
    (Cluster.replica_applied c ~shard ~replica:0 >= 1)

let test_staleness_window_observable () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"sw" ());
  ok (Client.commit client tx);
  Cluster.run_for c 20_000.0;
  (* second write: the primary applies it one replication hop before the
     replica does — advance the clock in tiny steps to land inside that
     window *)
  let shard = Cluster.shard_of_vertex c "sw" in
  let prop_of vo =
    match vo with
    | Some v ->
        Array.exists
          (fun (p : Weaver_graph.Mgraph.prop) -> p.Weaver_graph.Mgraph.pval = "new")
          v.Weaver_graph.Mgraph.v_props
    | None -> false
  in
  let tx = Client.Tx.begin_ client in
  Client.Tx.set_vertex_prop tx ~vid:"sw" ~key:"v" ~value:"new";
  Client.commit_async client tx ~on_result:(fun _ -> ());
  let budget = ref 100_000 in
  while (not (prop_of (Cluster.shard_vertex c ~shard "sw"))) && !budget > 0 do
    decr budget;
    Cluster.run_for c 10.0
  done;
  Alcotest.(check bool) "primary applied" true
    (prop_of (Cluster.shard_vertex c ~shard "sw"));
  Alcotest.(check bool) "replica still stale" false
    (prop_of (Cluster.replica_vertex c ~shard ~replica:0 "sw"));
  (* ... and converges *)
  Cluster.run_for c 50_000.0;
  Alcotest.(check bool) "replica converged" true
    (prop_of (Cluster.replica_vertex c ~shard ~replica:0 "sw"))

let test_weak_read_serves_from_replica () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"wk" ());
  ok (Client.commit client tx);
  Cluster.run_for c 50_000.0;
  let v0 = (Cluster.counters c).Runtime.vertices_read in
  match
    Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "wk" ]
      ~consistency:`Weak ()
  with
  | Ok (Progval.List [ s ]) ->
      Alcotest.(check string) "vid" "wk" (Progval.to_str (Progval.assoc "vid" s));
      Alcotest.(check bool) "read happened somewhere" true
        ((Cluster.counters c).Runtime.vertices_read > v0)
  | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "weak read: %s" e

let test_weak_traversal_across_replicas () =
  let c = mk_cluster ~replicas:2 () in
  let client = Cluster.client c in
  let g = Weaver_workloads.Graphgen.chain ~prefix:"wt" ~vertices:20 () in
  Weaver_workloads.Loader.fast_install c g;
  Cluster.run_for c 20_000.0;
  match
    Client.run_program client ~prog:"reachable"
      ~params:(Progval.Assoc [ ("target", Progval.Str "wt19") ])
      ~starts:[ "wt0" ] ~consistency:`Weak ()
  with
  | Ok (Progval.Bool b) -> Alcotest.(check bool) "weak traversal works" true b
  | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "weak traversal: %s" e

let test_weak_without_replicas_falls_back () =
  (* a deployment without replicas serves weak reads from the primaries *)
  let c = mk_cluster ~replicas:0 () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"fb" ());
  ok (Client.commit client tx);
  match
    Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "fb" ]
      ~consistency:`Weak ()
  with
  | Ok (Progval.List [ _ ]) -> ()
  | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "fallback: %s" e

let test_strong_reads_unaffected_by_replicas () =
  let c = mk_cluster ~replicas:2 () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"st" ());
  ok (Client.commit client tx);
  (* a strong read immediately after commit always sees the write *)
  match
    Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "st" ] ()
  with
  | Ok (Progval.List [ _ ]) -> ()
  | Ok v -> Alcotest.failf "strong read missed the write: %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "%s" e

(* the first vertex id [prefix^i] that hashed placement puts on [shard] *)
let vid_on c ~prefix shard =
  let rec go i =
    let vid = prefix ^ string_of_int i in
    if Cluster.shard_of_vertex c vid = shard then vid else go (i + 1)
  in
  go 0

let degrees = function
  | Progval.List summaries ->
      List.map (fun s -> Progval.to_int (Progval.assoc "degree" s)) summaries
  | v -> Alcotest.failf "unexpected %s" (Progval.to_string v)

(* A weak read must see one consistent cut: a transaction that writes on
   two shards is either visible on both or on neither, even when one
   replica's stream lags far behind the other's. With each replica
   applying its own owner's stream independently, a weak read of both
   endpoints could return the cross-shard edge pair half-applied. *)
let test_no_torn_cross_shard_tx () =
  let cfg =
    { Config.default with Config.n_shards = 2; n_gatekeepers = 1; read_replicas = 1 }
  in
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  ignore
    (Cluster.install_fault_plan c
       (Fault.scripted
          [
            ( 0.0,
              Fault.Link_degrade
                {
                  src = Fault.Shard 1;
                  dst = Fault.Replica { shard = 1; replica = 0 };
                  factor = 50.0;
                } );
          ]));
  let client = Cluster.client c in
  let a = vid_on c ~prefix:"ta" 0 and b = vid_on c ~prefix:"tb" 1 in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:a ());
  ignore (Client.Tx.create_vertex tx ~id:b ());
  ok (Client.commit client tx);
  (* past the first watermark round: both replicas are seeded *)
  Cluster.run_for c 60_000.0;
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_edge tx ~src:a ~dst:b);
  ignore (Client.Tx.create_edge tx ~src:b ~dst:a);
  ok (Client.commit client tx);
  for i = 1 to 20 do
    match
      Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ a; b ]
        ~consistency:`Weak ()
    with
    | Ok v -> (
        match degrees v with
        | [ d1; d2 ] ->
            if d1 <> d2 then
              Alcotest.failf "read %d at t=%.0f us saw a torn transaction: degrees %d,%d" i
                (Cluster.now c) d1 d2
        | ds -> Alcotest.failf "read %d: %d summaries" i (List.length ds))
    | Error e -> Alcotest.failf "weak read %d: %s" i e
  done

(* A weak run is stamped at the watermark of the replicas it reads; behind
   a slow link (here about 100 ms, two watermark rounds) that stamp is
   older than the owners' compaction floor. An owner serving another start
   of the same run must not read its compacted copy at that stamp, where a
   property overwritten in between would read as absent. Every read
   returns both endpoints' values from one cut, and a run that met a
   compacted owner is re-run by its gatekeeper, not by the client. *)
let test_owner_reads_at_replica_stamp () =
  let cfg =
    { Config.default with Config.n_shards = 2; n_gatekeepers = 1; read_replicas = 1 }
  in
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  ignore
    (Cluster.install_fault_plan c
       (Fault.scripted
          [
            ( 0.0,
              Fault.Link_degrade
                {
                  src = Fault.Shard 1;
                  dst = Fault.Replica { shard = 1; replica = 0 };
                  factor = 2000.0;
                } );
          ]));
  let client = Cluster.client c in
  let a = vid_on c ~prefix:"pa" 0 and b = vid_on c ~prefix:"pb" 1 in
  let set_both value =
    let tx = Client.Tx.begin_ client in
    Client.Tx.set_vertex_prop tx ~vid:a ~key:"p" ~value;
    Client.Tx.set_vertex_prop tx ~vid:b ~key:"p" ~value;
    ok (Client.commit client tx)
  in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:a ());
  ignore (Client.Tx.create_vertex tx ~id:b ());
  ok (Client.commit client tx);
  set_both "v0";
  Cluster.run_for c 60_000.0;
  let retries0 = (Cluster.counters c).Runtime.client_retries in
  for i = 1 to 40 do
    set_both (Printf.sprintf "v%d" i);
    (* every third read starts at [a] alone, shifting [a]'s range against
       [b]'s in the rotation, so the two-start reads meet every mix of
       owners and replicas *)
    let starts = if i mod 3 = 0 then [ a ] else [ a; b ] in
    (match
       Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts
         ~consistency:`Weak ()
     with
    | Ok (Progval.List summaries) -> (
        let values =
          List.map
            (fun s ->
              Option.map Progval.to_str (Progval.assoc_opt "p" (Progval.assoc "props" s)))
            summaries
        in
        match values with
        | Some v :: rest
          when List.length values = List.length starts
               && List.for_all (( = ) (Some v)) rest ->
            ()
        | _ ->
            Alcotest.failf "read %d at t=%.0f us saw [%s]" i (Cluster.now c)
              (String.concat "; "
                 (List.map (Option.value ~default:"absent") values)))
    | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
    | Error e -> Alcotest.failf "weak read %d: %s" i e);
    Cluster.run_for c 10_000.0
  done;
  Alcotest.(check int) "no client retries" retries0
    (Cluster.counters c).Runtime.client_retries

(* Replicas keep advancing under steady weak load. Owners advance their
   replicas only to GC watermarks, so a weak run stamped at the replicas'
   cut must not hold its gatekeeper's watermark there: with runs in flight
   at every round, every later cut would stay at the first one, and a
   replica-served read would never see a newer write. 48 closed-loop weak
   readers keep runs in flight on both gatekeepers at every round; three
   rounds after a write, every weak read sees it. *)
let test_replicas_advance_under_weak_load () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let set value =
    let tx = Client.Tx.begin_ client in
    Client.Tx.set_vertex_prop tx ~vid:"ld" ~key:"p" ~value;
    ok (Client.commit client tx)
  in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"ld" ());
  ok (Client.commit client tx);
  set "old";
  Cluster.run_for c 60_000.0;
  let stop = ref false in
  let rec reader () =
    if not !stop then
      Client.run_program_async client ~prog:"get_node" ~params:Progval.Null
        ~starts:[ "ld" ] ~consistency:`Weak
        ~on_result:(fun _ -> reader ())
        ()
  in
  for _ = 1 to 48 do
    reader ()
  done;
  Cluster.run_for c 20_000.0;
  set "new";
  Cluster.run_for c 150_000.0;
  let routed0 = (Cluster.counters c).Runtime.repl_routed in
  for i = 1 to 4 do
    match
      Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "ld" ]
        ~consistency:`Weak ()
    with
    | Ok (Progval.List [ s ]) ->
        Alcotest.(check (option string))
          (Printf.sprintf "weak read %d sees the write" i)
          (Some "new")
          (Option.map Progval.to_str (Progval.assoc_opt "p" (Progval.assoc "props" s)))
    | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
    | Error e -> Alcotest.failf "weak read %d: %s" i e
  done;
  Alcotest.(check bool) "replicas served reads meanwhile" true
    ((Cluster.counters c).Runtime.repl_routed > routed0);
  stop := true;
  Cluster.run_for c 10_000.0

(* A crashed read replica that restarts has lost its copies: its owner
   reseeds it at the next watermark, after which it matches the owner and
   takes its share of weak reads again, with no client retry. *)
let test_restarted_replica_reseeded () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"rr" ());
  ok (Client.commit client tx);
  Cluster.run_for c 60_000.0;
  let shard = Cluster.shard_of_vertex c "rr" in
  let target = Fault.Replica { shard; replica = 0 } in
  let t0 = Cluster.now c in
  ignore
    (Cluster.install_fault_plan c
       (Fault.scripted
          [ (t0 +. 1_000.0, Fault.Crash target); (t0 +. 30_000.0, Fault.Restart target) ]));
  Cluster.run_for c 5_000.0;
  (* a write the replica misses while it is down *)
  let tx = Client.Tx.begin_ client in
  Client.Tx.set_vertex_prop tx ~vid:"rr" ~key:"v" ~value:"new";
  ok (Client.commit client tx);
  Cluster.run_for c 30_000.0;
  Alcotest.(check bool) "restart dropped the copy" true
    (Cluster.replica_vertex c ~shard ~replica:0 "rr" = None);
  (* two watermark rounds later the owner has reseeded it *)
  Cluster.run_for c 100_000.0;
  let prop vo =
    Option.bind vo (fun (v : Weaver_graph.Mgraph.vertex) ->
        Array.find_map
          (fun (p : Weaver_graph.Mgraph.prop) ->
            if p.Weaver_graph.Mgraph.p_life.Weaver_graph.Mgraph.deleted = None then
              Some p.Weaver_graph.Mgraph.pval
            else None)
          v.Weaver_graph.Mgraph.v_props)
  in
  Alcotest.(check (option string)) "replica converged with the owner"
    (prop (Cluster.shard_vertex c ~shard "rr"))
    (prop (Cluster.replica_vertex c ~shard ~replica:0 "rr"));
  let ctr = Cluster.counters c in
  let retries0 = ctr.Runtime.client_retries and routed0 = ctr.Runtime.repl_routed in
  for _ = 1 to 10 do
    match
      Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "rr" ]
        ~consistency:`Weak ()
    with
    | Ok (Progval.List [ s ]) ->
        Alcotest.(check (option string)) "weak read sees the write" (Some "new")
          (Option.map Progval.to_str
             (Progval.assoc_opt "v" (Progval.assoc "props" s)))
    | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
    | Error e -> Alcotest.failf "weak read: %s" e
  done;
  Alcotest.(check bool) "the replica serves weak reads again" true
    (ctr.Runtime.repl_routed > routed0);
  Alcotest.(check int) "no client retries" retries0 ctr.Runtime.client_retries

let suites =
  [
    ( "replica",
      [
        Alcotest.test_case "stream converges" `Quick test_replication_stream_converges;
        Alcotest.test_case "staleness observable" `Quick test_staleness_window_observable;
        Alcotest.test_case "weak read" `Quick test_weak_read_serves_from_replica;
        Alcotest.test_case "weak traversal" `Quick test_weak_traversal_across_replicas;
        Alcotest.test_case "weak without replicas" `Quick test_weak_without_replicas_falls_back;
        Alcotest.test_case "strong unaffected" `Quick test_strong_reads_unaffected_by_replicas;
        Alcotest.test_case "no torn cross-shard tx" `Quick test_no_torn_cross_shard_tx;
        Alcotest.test_case "restarted replica reseeded" `Quick test_restarted_replica_reseeded;
        Alcotest.test_case "owner reads at a replica stamp" `Quick
          test_owner_reads_at_replica_stamp;
        Alcotest.test_case "replicas advance under weak load" `Quick
          test_replicas_advance_under_weak_load;
      ] );
  ]
