(* Tests for timestamp-consistent partial replication (DESIGN §16): the
   coverage predicate and routing table, the one follower-placement rule
   ([Runtime.standing_plan]) and its [Config] limits, the end-to-end
   install → seed → stream → route pipeline, survival of covered reads
   across an owner crash, credit-starved stream resync, healing after a
   follower-and-owner restart, and the two fixes that ride along —
   replica-served reads feeding heat attribution, and weak-read routing
   skipping dead replicas. *)

open Weaver_core
module Programs = Weaver_programs.Std_programs
module Heat = Weaver_obs.Heat
module Fault = Weaver_sim.Fault
module Repl = Weaver_repl.Repl
module Vclock = Runtime.Vclock

let ok = function Ok v -> v | Error e -> Alcotest.failf "commit failed: %s" e

let mk_cluster cfg =
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  c

let repl_cfg ?(factor = 2) seed =
  {
    Config.default with
    Config.seed;
    n_gatekeepers = 1;
    enable_heat = true;
    replication_factor = factor;
    gc_period = 2_000.0;
  }

let create_vertex client vid =
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:vid ());
  ok (Client.commit client tx)

let set_prop client vid key value =
  let tx = Client.Tx.begin_ client in
  Client.Tx.set_vertex_prop tx ~vid ~key ~value;
  ok (Client.commit client tx)

let weak_read client vid =
  Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ vid ]
    ~consistency:`Weak ()

(* the followers [Runtime.standing_plan] gives [range] *)
let plan_followers c range =
  match
    List.find_opt (fun (r, _, _) -> r = range) (Runtime.standing_plan (Cluster.runtime c))
  with
  | Some (_, _, followers) -> followers
  | None -> []

(* the value of vertex prop [key] out of a [get_node] result *)
let prop_of result key =
  match result with
  | Progval.List [ s ] -> Progval.assoc_opt key (Progval.assoc "props" s)
  | _ -> Alcotest.fail "unexpected get_node result shape"

(* ------------------------------------------------------------------ *)
(* Coverage predicate and routing table. *)

let vc clocks = Vclock.make ~epoch:0 ~origin:0 (Array.of_list clocks)

let test_covers_and_table () =
  let wm = vc [ 5; 3 ] in
  Alcotest.(check bool) "equal stamp covered" true (Repl.covers ~wm (vc [ 5; 3 ]));
  Alcotest.(check bool) "below covered" true (Repl.covers ~wm (vc [ 2; 3 ]));
  Alcotest.(check bool) "one dim above" false (Repl.covers ~wm (vc [ 5; 4 ]));
  Alcotest.(check bool) "epoch mismatch" false
    (Repl.covers ~wm (Vclock.make ~epoch:1 ~origin:0 [| 1; 1 |]));
  let t = Repl.Table.create () in
  Alcotest.(check int) "empty" 0 (Repl.Table.size t);
  Repl.Table.install t ~range:7 ~followers:[ 2; 3 ];
  Alcotest.(check (list int)) "replicated" [ 2; 3 ]
    (List.map fst (Repl.Table.followers t ~range:7));
  Alcotest.(check (list int)) "no coverage yet" []
    (Repl.Table.covering t ~range:7 ~at:(vc [ 0; 0 ]));
  Repl.Table.set_wm t ~range:7 ~follower:2 (vc [ 4; 4 ]);
  Repl.Table.set_wm t ~range:7 ~follower:3 (vc [ 9; 9 ]);
  Alcotest.(check (list int)) "both cover low stamp" [ 2; 3 ]
    (Repl.Table.covering t ~range:7 ~at:(vc [ 1; 1 ]));
  Alcotest.(check (list int)) "only the fresher covers" [ 3 ]
    (Repl.Table.covering t ~range:7 ~at:(vc [ 6; 6 ]));
  Repl.Table.clear_wms t;
  Alcotest.(check (list int)) "epoch barrier clears coverage" []
    (Repl.Table.covering t ~range:7 ~at:(vc [ 1; 1 ]));
  Alcotest.(check (list int)) "install survives the barrier" [ 2; 3 ]
    (List.map fst (Repl.Table.followers t ~range:7))

(* ------------------------------------------------------------------ *)
(* Satellite: replica-served reads must feed heat attribution.

   With one §6.4 read replica, weak reads alternate between the primary
   and the replica once the replica is seeded; if only primary-side visits
   called [Runtime.heat_read], a vertex served half from its replica would
   look half as hot to the balancer. *)

let test_replica_reads_feed_heat () =
  let cfg =
    { Config.default with Config.n_shards = 1; read_replicas = 1; enable_heat = true }
  in
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  create_vertex client "hh";
  (* past the first watermark round: the owner has seeded the replica *)
  Cluster.run_for c 60_000.0;
  for _ = 1 to 20 do
    match weak_read client "hh" with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "weak read failed: %s" e
  done;
  let ctr = Cluster.counters c in
  let h = Option.get (Cluster.heat c) in
  Alcotest.(check bool) "reads actually happened" true (ctr.Runtime.vertices_read >= 20);
  Alcotest.(check bool) "some were replica-served" true (ctr.Runtime.repl_routed > 0);
  Alcotest.(check int) "every visit attributed, replica-served included"
    ctr.Runtime.vertices_read
    (Heat.total h ~shard:0 ~kind:Heat.Read)

(* ------------------------------------------------------------------ *)
(* Satellite: weak-read routing must skip dead replicas.

   A round-robin that kept dealing weak reads to a crashed replica would
   burn a timeout + client retry on every other request; the rotation
   only takes live copies (ultimately the primary). *)

let test_dead_replica_routed_around () =
  let cfg = { Config.default with Config.n_shards = 2; read_replicas = 1 } in
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  create_vertex client "wk";
  (* past the first watermark round: the replica advertises coverage *)
  Cluster.run_for c 60_000.0;
  let shard = Cluster.shard_of_vertex c "wk" in
  let crash_at = Cluster.now c +. 1_000.0 in
  ignore
    (Cluster.install_fault_plan c
       (Fault.scripted
          [ (crash_at, Fault.Crash (Fault.Replica { shard; replica = 0 })) ]));
  Cluster.run_for c 2_000.0;
  let ctr = Cluster.counters c in
  let retries0 = ctr.Runtime.client_retries in
  for _ = 1 to 10 do
    match weak_read client "wk" with
    | Ok (Progval.List [ s ]) ->
        Alcotest.(check string) "served" "wk" (Progval.to_str (Progval.assoc "vid" s))
    | Ok _ -> Alcotest.fail "unexpected result shape"
    | Error e -> Alcotest.failf "weak read vs dead replica failed: %s" e
  done;
  Alcotest.(check int) "no timeouts, no retries" retries0 ctr.Runtime.client_retries

(* ------------------------------------------------------------------ *)
(* A range of the standing plan gets seeded and streamed by its owner,
   advertised by its followers, and weak reads get routed to follower
   copies — which stay convergent with the owner. *)

let test_install_stream_route_converge () =
  let c = mk_cluster (repl_cfg 11) in
  let client = Cluster.client c in
  create_vertex client "hot";
  let last = ref 0 in
  for i = 1 to 120 do
    (match weak_read client "hot" with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "weak read %d failed: %s" i e);
    if i mod 10 = 0 then begin
      set_prop client "hot" "v" (string_of_int i);
      last := i
    end;
    Cluster.run_for c 200.0
  done;
  let ctr = Cluster.counters c in
  Alcotest.(check int) "the plan follows the range" 2
    (List.length (plan_followers c (Runtime.repl_range (Cluster.runtime c) "hot")));
  Alcotest.(check bool) "owner streamed updates" true (ctr.Runtime.repl_updates >= 1);
  Alcotest.(check bool) "gatekeeper routed reads to followers" true
    (ctr.Runtime.repl_routed >= 1);
  (* quiesce: the watermark passes the last write, follower copies cover
     it, and a weak read — wherever it lands — sees the final value *)
  Cluster.run_for c 20_000.0;
  match weak_read client "hot" with
  | Ok v ->
      Alcotest.(check (option string)) "converged to the last write"
        (Some (string_of_int !last))
        (Option.map Progval.to_str (prop_of v "v"))
  | Error e -> Alcotest.failf "post-quiesce weak read failed: %s" e

(* ------------------------------------------------------------------ *)
(* Chaos: once a follower covers a stamp, a read pinned at that stamp
   survives the owner crashing — the gatekeeper routes it to a covering
   survivor and the answer matches the pre-crash one. *)

(* A replicated "hot" vertex, written once and left for two watermark
   rounds: returns the cluster, its owner and a read pinned at a stamp
   that the followers cover and the owner's cut has passed. *)
let covered_pinned_read () =
  let c = mk_cluster (repl_cfg 13) in
  let client = Cluster.client c in
  create_vertex client "hot";
  let owner = Cluster.shard_of_vertex c "hot" in
  let ctr = Cluster.counters c in
  (* hammer until the range is replicated and reads are being routed *)
  let tries = ref 0 in
  while ctr.Runtime.repl_routed = 0 && !tries < 300 do
    incr tries;
    ignore (weak_read client "hot");
    Cluster.run_for c 200.0
  done;
  Alcotest.(check bool) "replication became active" true (ctr.Runtime.repl_routed > 0);
  set_prop client "hot" "v" "final";
  Cluster.run_for c 6_000.0;
  let ts = Cluster.gk_clock c 0 in
  (* two more watermark rounds: follower coverage passes [ts] *)
  Cluster.run_for c 6_000.0;
  let read_at () =
    Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "hot" ]
      ~at:ts ()
  in
  (c, owner, read_at)

let test_owner_crash_covered_reads_survive () =
  let c, owner, read_at = covered_pinned_read () in
  let baseline =
    match read_at () with
    | Ok v -> v
    | Error e -> Alcotest.failf "pinned read before crash failed: %s" e
  in
  Alcotest.(check (option string)) "pinned read sees the write" (Some "final")
    (Option.map Progval.to_str (prop_of baseline "v"));
  let crash_at = Cluster.now c +. 500.0 in
  ignore
    (Cluster.install_fault_plan c
       (Fault.scripted [ (crash_at, Fault.Crash (Fault.Shard owner)) ]));
  Cluster.run_for c 1_000.0;
  match read_at () with
  | Ok after ->
      Alcotest.(check (option string)) "covered read survives the owner crash"
        (Option.map Progval.to_str (prop_of baseline "v"))
        (Option.map Progval.to_str (prop_of after "v"))
  | Error e -> Alcotest.failf "pinned read after owner crash failed: %s" e

(* The same reads before any crash, rotating over the owner and its
   covering followers: the stamp is below the owner's compaction floor,
   but also below its cut, so the owner answers from the durable store
   instead of failing the read for the client to retry. *)
let test_pinned_reads_below_owner_floor () =
  let c, owner, read_at = covered_pinned_read () in
  (match Cluster.shard_gc_floor c owner with
  | Some _ -> ()
  | None -> Alcotest.fail "the owner never compacted");
  let ctr = Cluster.counters c in
  let retries0 = ctr.Runtime.client_retries in
  for i = 1 to 5 do
    match read_at () with
    | Ok v ->
        Alcotest.(check (option string)) (Printf.sprintf "pinned read %d" i) (Some "final")
          (Option.map Progval.to_str (prop_of v "v"))
    | Error e -> Alcotest.failf "pinned read %d failed: %s" i e
  done;
  Alcotest.(check int) "no client retries" retries0 ctr.Runtime.client_retries

(* ------------------------------------------------------------------ *)
(* A credit-starved stream degrades to a wholesale reseed, not a stall:
   degrade the owner→follower link so refunds lag the write rate, burst
   writes, and the owner must mark the follower dirty and reseed it at
   the next watermark — after which the copy converges again. *)

let test_credit_exhaustion_forces_resync () =
  let cfg = { (repl_cfg ~factor:1 17) with Config.n_gatekeepers = 2; shard_credits = 1 } in
  let c = mk_cluster cfg in
  let client = Cluster.client c in
  create_vertex client "hot";
  let ctr = Cluster.counters c in
  let tries = ref 0 in
  while ctr.Runtime.repl_routed = 0 && !tries < 300 do
    incr tries;
    ignore (weak_read client "hot");
    Cluster.run_for c 200.0
  done;
  Alcotest.(check bool) "range replicated" true (ctr.Runtime.repl_routed >= 1);
  let owner = Cluster.shard_of_vertex c "hot" in
  let h = Option.get (Cluster.heat c) in
  let range = Heat.range_of h "hot" in
  let followers = plan_followers c range in
  Alcotest.(check bool) "follower chosen" true (followers <> []);
  (* slow the stream's return path: refunds now lag the burst *)
  List.iter
    (fun f ->
      Cluster.apply_fault c
        (Fault.Link_degrade
           { src = Fault.Shard f; dst = Fault.Shard owner; factor = 50.0 }))
    followers;
  (* every range's first seed is counted too: the burst must add one *)
  let seeded = ctr.Runtime.repl_resyncs in
  let pending = ref 0 in
  let committed = ref [] in
  for i = 0 to 9 do
    let tx = Client.Tx.begin_ client in
    Client.Tx.set_vertex_prop tx ~vid:"hot" ~key:("k" ^ string_of_int i) ~value:"x";
    incr pending;
    (* under 1-credit admission some burst commits may shed out their
       retries — only the ones that committed must converge *)
    Client.commit_async client tx ~on_result:(fun r ->
        decr pending;
        if Result.is_ok r then committed := i :: !committed)
  done;
  Cluster.run_for c 60_000.0;
  Alcotest.(check int) "burst drained" 0 !pending;
  Alcotest.(check bool) "burst made progress" true (List.length !committed >= 2);
  Alcotest.(check bool) "stream interrupted and reseeded" true
    (ctr.Runtime.repl_resyncs >= 1);
  Alcotest.(check bool) "reseeded beyond the first seeds" true
    (ctr.Runtime.repl_resyncs > seeded);
  List.iter
    (fun f ->
      Cluster.apply_fault c
        (Fault.Link_degrade
           { src = Fault.Shard f; dst = Fault.Shard owner; factor = 1.0 }))
    followers;
  Cluster.run_for c 20_000.0;
  match weak_read client "hot" with
  | Ok v ->
      List.iter
        (fun i ->
          Alcotest.(check (option string))
            (Printf.sprintf "post-resync copy has k%d" i)
            (Some "x")
            (Option.map Progval.to_str (prop_of v ("k" ^ string_of_int i))))
        !committed
  | Error e -> Alcotest.failf "post-resync weak read failed: %s" e

(* ------------------------------------------------------------------ *)
(* Owned records and follower copies share one vertex table, so a visit
   must tell them apart. With memory below the partition, a vertex evicted
   at its owner is missing from the seed; a follower that paged the
   owner's durable record in as its own would keep serving it after the
   stream updated the owner. The follower must forward the read instead. *)

let test_follower_never_pages_in () =
  let c = mk_cluster { (repl_cfg 11) with Config.shard_capacity = Some 3 } in
  let client = Cluster.client c in
  let rt = Cluster.runtime c in
  create_vertex client "hot";
  let owner = Cluster.shard_of_vertex c "hot" in
  let range = Runtime.repl_range rt "hot" in
  let rec first_in_range i =
    let vid = Printf.sprintf "cold%d" i in
    if Runtime.repl_range rt vid = range then vid else first_in_range (i + 1)
  in
  let cold = first_in_range 0 in
  create_vertex client cold;
  set_prop client cold "v" "0";
  (* fillers on the owner, in other ranges, push [cold] out of its memory *)
  let rec fill i n =
    if n > 0 then begin
      let vid = Printf.sprintf "fill%d" i in
      if Runtime.shard_of_vertex rt vid = owner && Runtime.repl_range rt vid <> range
      then begin
        create_vertex client vid;
        fill (i + 1) (n - 1)
      end
      else fill (i + 1) n
    end
  in
  fill 0 4;
  Alcotest.(check bool) "cold evicted at its owner" false
    (List.mem cold (Cluster.shard_resident_ids c owner));
  let ctr = Cluster.counters c in
  let tries = ref 0 in
  while ctr.Runtime.repl_routed = 0 && !tries < 300 do
    incr tries;
    ignore (weak_read client "hot");
    Cluster.run_for c 200.0
  done;
  Alcotest.(check bool) "replication became active" true (ctr.Runtime.repl_routed > 0);
  for _ = 1 to 6 do
    ignore (weak_read client cold)
  done;
  set_prop client cold "v" "1";
  Cluster.run_for c 20_000.0;
  for i = 1 to 8 do
    match weak_read client cold with
    | Ok v ->
        Alcotest.(check (option string))
          (Printf.sprintf "weak read %d sees the write" i)
          (Some "1")
          (Option.map Progval.to_str (prop_of v "v"))
    | Error e -> Alcotest.failf "weak read %d failed: %s" i e
  done

(* A vertex can migrate onto a shard that follows its range. Its old owner
   then streams the vertex's migration to that shard; the stream must
   leave the new owner's record alone, and the new owner must serve the
   next write. *)

let test_migrate_onto_follower () =
  let c = mk_cluster (repl_cfg 11) in
  let client = Cluster.client c in
  create_vertex client "hot";
  let ctr = Cluster.counters c in
  let tries = ref 0 in
  while ctr.Runtime.repl_routed = 0 && !tries < 300 do
    incr tries;
    ignore (weak_read client "hot");
    Cluster.run_for c 200.0
  done;
  Alcotest.(check bool) "replication became active" true (ctr.Runtime.repl_routed > 0);
  let range = Runtime.repl_range (Cluster.runtime c) "hot" in
  let follower =
    match plan_followers c range with
    | f :: _ -> f
    | [] -> Alcotest.fail "no follower for the hot range"
  in
  set_prop client "hot" "v" "a";
  Cluster.run_for c 6_000.0;
  Alcotest.(check bool) "the follower holds a copy" true
    (Cluster.shard_vertex c ~shard:follower "hot" <> None
    && not (List.mem "hot" (Cluster.shard_resident_ids c follower)));
  ok (Client.migrate client ~vid:"hot" ~to_shard:follower);
  Cluster.run_for c 6_000.0;
  Alcotest.(check int) "directory names the follower" follower
    (Cluster.shard_of_vertex c "hot");
  Alcotest.(check bool) "the new owner holds an owned record" true
    (List.mem "hot" (Cluster.shard_resident_ids c follower));
  set_prop client "hot" "v" "b";
  Cluster.run_for c 6_000.0;
  let strong =
    Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "hot" ] ()
  in
  (match strong with
  | Ok v ->
      Alcotest.(check (option string)) "the new owner served the write" (Some "b")
        (Option.map Progval.to_str (prop_of v "v"))
  | Error e -> Alcotest.failf "strong read failed: %s" e);
  Alcotest.(check bool) "the owned record survived the stream" true
    (List.mem "hot" (Cluster.shard_resident_ids c follower))

(* ------------------------------------------------------------------ *)
(* The one follower-placement rule. With [replication_factor = k] each
   range is followed by the k shards after its home shard, so every range
   has k distinct non-owner followers and every shard follows the same
   number of ranges; with read replicas the plan is the §6.4 one. *)

let plan cfg = Runtime.standing_plan (Runtime.create cfg)

let test_factor_plan () =
  for n = 1 to 5 do
    for k = 0 to n - 1 do
      let name fmt = Printf.ksprintf (Printf.sprintf "n=%d k=%d: %s" n k) fmt in
      let p = plan { Config.default with Config.n_shards = n; replication_factor = k } in
      (* every range, numbered densely, nested in its home shard *)
      let ranges = List.map (fun (r, _, _) -> r) p in
      Alcotest.(check (list int)) (name "ranges") (List.init (List.length p) Fun.id) ranges;
      Alcotest.(check bool) (name "range count") true
        (if k = 0 then p = [] else List.length p >= 64 && List.length p mod n = 0);
      let follows = Array.make n 0 in
      List.iter
        (fun (range, owner, followers) ->
          Alcotest.(check int) (name "owner of r%d" range) (range mod n) owner;
          Alcotest.(check int) (name "r%d has k followers" range) k
            (List.length (List.sort_uniq compare followers));
          Alcotest.(check bool) (name "r%d not followed by its owner" range) false
            (List.mem owner followers);
          List.iter
            (fun f ->
              Alcotest.(check bool) (name "r%d follower is a shard" range) true
                (f >= 0 && f < n);
              follows.(f) <- follows.(f) + 1)
            followers)
        p;
      Array.iteri
        (fun s m ->
          Alcotest.(check int) (name "shard %d follows its share" s) follows.(0) m)
        follows
    done
  done

let test_read_replica_plan_pinned () =
  (* the §6.4 plan: replica r of shard s is server 4 + 2s + r *)
  let p = plan { Config.default with Config.read_replicas = 2 } in
  Alcotest.(check (list int)) "every range" (List.init 64 Fun.id)
    (List.map (fun (r, _, _) -> r) p);
  List.iter
    (fun (range, owner, followers) ->
      Alcotest.(check int) "home shard" (range mod 4) owner;
      Alcotest.(check (list int)) "the owner's replicas"
        [ 4 + (2 * owner); 5 + (2 * owner) ]
        followers)
    p

let test_factor_config_limits () =
  let rejects name cfg =
    match Config.validate cfg with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  let base = Config.default in
  rejects "factor = n_shards" { base with Config.replication_factor = 4 };
  rejects "factor > n_shards" { base with Config.n_shards = 2; replication_factor = 3 };
  rejects "single shard" { base with Config.n_shards = 1; replication_factor = 1 };
  rejects "factor with read replicas"
    { base with Config.read_replicas = 1; replication_factor = 1 };
  rejects "negative factor" { base with Config.replication_factor = -1 };
  Config.validate { base with Config.replication_factor = 3 };
  Config.validate { base with Config.read_replicas = 2 }

(* ------------------------------------------------------------------ *)
(* A crash-restart of a shard that both owns a range and follows another
   heals by itself: the restarted owner reinstalls the plan at resync and
   reseeds its followers, and the owner of the range it follows reseeds it
   ([Shard.on_peer_restart]). Weak reads of both ranges converge. *)

let test_restart_heals_both_roles () =
  let c = mk_cluster (repl_cfg ~factor:1 19) in
  let client = Cluster.client c in
  let rt = Cluster.runtime c in
  let s = 1 in
  (* a vertex in a range [s] owns, and one in a range [s] follows *)
  let rec vertex_on shard i =
    let vid = Printf.sprintf "v%d" i in
    if Runtime.shard_of_vertex rt vid = shard then vid else vertex_on shard (i + 1)
  in
  let va = vertex_on s 0 and vb = vertex_on 0 0 in
  Alcotest.(check (list int)) "s follows the range of vb" [ s ]
    (plan_followers c (Runtime.repl_range rt vb));
  Alcotest.(check (list int)) "s owns the range of va" [ s + 1 ]
    (plan_followers c (Runtime.repl_range rt va));
  create_vertex client va;
  create_vertex client vb;
  set_prop client va "v" "0";
  set_prop client vb "v" "0";
  Cluster.run_for c 10_000.0;
  let ctr = Cluster.counters c in
  let resyncs0 = ctr.Runtime.repl_resyncs in
  let t0 = Cluster.now c in
  ignore
    (Cluster.install_fault_plan c
       (Fault.scripted
          [
            (t0 +. 500.0, Fault.Crash (Fault.Shard s));
            (t0 +. 3_000.0, Fault.Restart (Fault.Shard s));
          ]));
  Cluster.run_for c 5_000.0;
  set_prop client va "v" "1";
  set_prop client vb "v" "1";
  Cluster.run_for c 20_000.0;
  Alcotest.(check bool) "the restart was reseeded" true (ctr.Runtime.repl_resyncs > resyncs0);
  (* the live value of [vid]'s prop "v" in the copy [shard] holds *)
  let copy_value shard vid =
    let open Weaver_graph.Mgraph in
    Option.bind (Cluster.shard_vertex c ~shard vid) (fun v ->
        Array.find_map
          (fun p -> if p.pkey = "v" && p.p_life.deleted = None then Some p.pval else None)
          v.v_props)
  in
  Alcotest.(check (option string)) "the restarted follower's copy converged" (Some "1")
    (copy_value s vb);
  Alcotest.(check (option string)) "the restarted owner's follower converged" (Some "1")
    (copy_value (s + 1) va);
  List.iter
    (fun vid ->
      for i = 1 to 4 do
        match weak_read client vid with
        | Ok v ->
            Alcotest.(check (option string))
              (Printf.sprintf "%s weak read %d sees the last write" vid i)
              (Some "1")
              (Option.map Progval.to_str (prop_of v "v"))
        | Error e -> Alcotest.failf "%s weak read %d failed: %s" vid i e
      done)
    [ va; vb ]

let suites =
  [
    ( "replication",
      [
        Alcotest.test_case "coverage predicate and table" `Quick test_covers_and_table;
        Alcotest.test_case "replica-served reads feed heat attribution" `Quick
          test_replica_reads_feed_heat;
        Alcotest.test_case "dead replica is routed around without retries" `Quick
          test_dead_replica_routed_around;
        Alcotest.test_case "install, stream, route, converge" `Quick
          test_install_stream_route_converge;
        Alcotest.test_case "pinned reads below the owner's floor need no retry" `Quick
          test_pinned_reads_below_owner_floor;
        Alcotest.test_case "owner crash: covered reads served by survivors" `Quick
          test_owner_crash_covered_reads_survive;
        Alcotest.test_case "credit exhaustion forces reseed, then converges" `Quick
          test_credit_exhaustion_forces_resync;
        Alcotest.test_case "follower never pages in a vertex it does not own" `Quick
          test_follower_never_pages_in;
        Alcotest.test_case "migration onto a follower keeps the owned record" `Quick
          test_migrate_onto_follower;
        Alcotest.test_case "factor-k plan: k distinct non-owner followers, even load" `Quick
          test_factor_plan;
        Alcotest.test_case "read-replica plan pinned" `Quick test_read_replica_plan_pinned;
        Alcotest.test_case "factor limits rejected by Config.validate" `Quick
          test_factor_config_limits;
        Alcotest.test_case "restart of an owner-and-follower heals both ranges" `Quick
          test_restart_heals_both_roles;
      ] );
  ]
