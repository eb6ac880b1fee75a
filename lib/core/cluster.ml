module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Store = Weaver_store.Store
module Oracle = Weaver_oracle.Oracle
module Membership = Weaver_cluster.Membership
module Vclock = Weaver_vclock.Vclock
module Metrics = Weaver_obs.Metrics
module Heat = Weaver_obs.Heat
module Health = Weaver_obs.Health

type manager = {
  m_rt : Runtime.t;
  m_addr : int;
  membership : Membership.t;
  m_wm : (int, Vclock.t) Hashtbl.t; (* gatekeeper → latest watermark *)
  mutable acks : int;
}

type t = {
  rt : Runtime.t;
  mutable gks : Gatekeeper.t array;
  mutable shards : Shard.t array;
      (* every shard server: the shards, then their read replicas
         ([Runtime.replica_server]) *)
  mgr : manager;
  trace_ring : (float * int * int * string) Queue.t;
  health : Health.t option;  (* Some iff [Config.enable_health] *)
  mutable balancer : Balancer.t option;  (* Some iff [Config.enable_rebalance] *)
}

let config t = t.rt.Runtime.cfg
let runtime t = t.rt
let registry t = t.rt.Runtime.registry
let counters t = t.rt.Runtime.counters
let client t = Client.create t.rt
let now t = Engine.now t.rt.Runtime.engine

let run_for t dur =
  let engine = t.rt.Runtime.engine in
  Engine.run ~until:(Engine.now engine +. dur) engine

let epoch t = Membership.epoch t.mgr.membership
let metrics t = t.rt.Runtime.metrics
let request_tracer t = t.rt.Runtime.tracer
let timeline t = t.rt.Runtime.timeline
let slow_log t = t.rt.Runtime.slowlog
let heat t = t.rt.Runtime.heat
let health t = t.health
let balancer t = t.balancer
let actor_of_addr t a = Runtime.actor_of_addr t.rt a

(* ------------------------------------------------------------------ *)
(* Cluster manager (§3.2, §4.3): failure detection by heartbeat timeout,
   replacement spawning, epoch barrier, and oracle GC. *)

let recover cluster failures =
  let mgr = cluster.mgr in
  let rt = cluster.rt in
  let new_epoch = Membership.bump_epoch mgr.membership in
  let old_epoch = new_epoch - 1 in
  List.iter
    (fun (id, role) ->
      rt.Runtime.counters.Runtime.recoveries <-
        rt.Runtime.counters.Runtime.recoveries + 1;
      match (role : Membership.role) with
      | Membership.Gatekeeper ->
          let gid = id in
          Gatekeeper.retire cluster.gks.(gid);
          (* replacement registers a fresh handler at the same address and
             re-registers with the manager *)
          cluster.gks.(gid) <- Gatekeeper.spawn rt ~gid ~epoch:old_epoch;
          Membership.register mgr.membership ~id ~role
            ~now:(Engine.now rt.Runtime.engine)
      | Membership.Shard ->
          let sid = id - rt.Runtime.cfg.Config.n_gatekeepers in
          Shard.retire cluster.shards.(sid);
          cluster.shards.(sid) <- Shard.spawn rt ~sid ~epoch:old_epoch;
          Membership.register mgr.membership ~id ~role
            ~now:(Engine.now rt.Runtime.engine))
    failures;
  (* the barrier: move every server to the new epoch in unison (§4.3) *)
  mgr.acks <- 0;
  for g = 0 to rt.Runtime.cfg.Config.n_gatekeepers - 1 do
    Runtime.send rt ~src:mgr.m_addr ~dst:(Runtime.gk_addr rt g)
      (Msg.Epoch_change { epoch = new_epoch })
  done;
  for s = 0 to Runtime.n_servers rt - 1 do
    Runtime.send rt ~src:mgr.m_addr ~dst:(Runtime.shard_addr rt s)
      (Msg.Epoch_change { epoch = new_epoch })
  done

let manager_handle cluster ~src:_ msg =
  let mgr = cluster.mgr in
  match (msg : Msg.t) with
  | Msg.Heartbeat { server } ->
      Membership.heartbeat mgr.membership ~id:server
        ~now:(Engine.now cluster.rt.Runtime.engine)
  | Msg.Epoch_ack { server = _; epoch = _ } -> mgr.acks <- mgr.acks + 1
  | Msg.Watermark { gk; ts } ->
      Hashtbl.replace mgr.m_wm gk ts;
      if Hashtbl.length mgr.m_wm = cluster.rt.Runtime.cfg.Config.n_gatekeepers then begin
        let wm =
          Hashtbl.fold
            (fun _ ts acc ->
              match acc with
              | None -> Some ts
              | Some m -> Some (Runtime.stamp_min m ts))
            mgr.m_wm None
          |> Option.get
        in
        ignore (Runtime.oracle_gc cluster.rt ~watermark:wm)
      end
  | _ -> ()

let start_manager cluster =
  let rt = cluster.rt in
  let mgr = cluster.mgr in
  Runtime.register rt mgr.m_addr (fun ~src msg ->
      manager_handle cluster ~src msg);
  let cfgv = rt.Runtime.cfg in
  Engine.every rt.Runtime.engine ~period:cfgv.Config.heartbeat_period (fun () ->
      let failures =
        Membership.detect_failures mgr.membership
          ~now:(Engine.now rt.Runtime.engine)
          ~timeout:cfgv.Config.failure_timeout
      in
      if failures <> [] then recover cluster failures;
      true)

(* ------------------------------------------------------------------ *)

let create cfg =
  Config.validate cfg;
  let rt = Runtime.create cfg in
  let mgr =
    {
      m_rt = rt;
      m_addr = Runtime.manager_addr rt;
      membership = Membership.create ();
      m_wm = Hashtbl.create 8;
      acks = 0;
    }
  in
  let cluster =
    {
      rt;
      gks = [||];
      shards = [||];
      mgr;
      trace_ring = Queue.create ();
      health =
        (if cfg.Config.enable_health then begin
           (* a healthy watermark only advances every gc_period, so the
              stall threshold must span at least two gossip rounds or the
              watchdog alerts on the normal cadence *)
           let stall_checks =
             max Health.default_config.Health.stall_checks
               (1
               + int_of_float
                   (ceil (2.0 *. cfg.Config.gc_period /. cfg.Config.health_period)))
           in
           Some
             (Health.create
                ~config:{ Health.default_config with Health.stall_checks }
                ())
         end
         else None);
      balancer = None;
    }
  in
  cluster.gks <-
    Array.init cfg.Config.n_gatekeepers (fun gid -> Gatekeeper.spawn rt ~gid ~epoch:0);
  cluster.shards <- Array.init (Runtime.n_servers rt) (fun sid -> Shard.spawn rt ~sid ~epoch:0);
  Array.iter
    (fun gk ->
      Membership.register mgr.membership ~id:(Runtime.gk_addr rt (Gatekeeper.gid gk))
        ~role:Membership.Gatekeeper ~now:0.0)
    cluster.gks;
  (* read replicas are not failure-detected: they send no heartbeats *)
  for sid = 0 to cfg.Config.n_shards - 1 do
    Membership.register mgr.membership ~id:(Runtime.shard_addr rt sid)
      ~role:Membership.Shard ~now:0.0
  done;
  start_manager cluster;
  (* the live rebalancer: created only when enabled, AFTER the server
     actors, so the planner's private client takes the first dynamic
     address only in runs that opted in — baseline address plans (and so
     fingerprints) are untouched. Rounds that plan nothing only read heat
     and directory state, which is why a balanced cluster with the knob on
     stays bit-identical to one with it off (test-enforced). *)
  (if cfg.Config.enable_rebalance then begin
     let b = Balancer.create rt in
     cluster.balancer <- Some b;
     Engine.every rt.Runtime.engine ~period:cfg.Config.rebalance_period (fun () ->
         Balancer.run_round b;
         true)
   end);
  (* the health watchdog: a periodic check over the registry snapshot and
     the manager's watermark table. Like the timeline sampler it only
     reads state — no sends, no RNG — so enabling it leaves the counter
     fingerprint bit-identical (pinned by a determinism test) *)
  (match cluster.health with
  | Some h ->
      let metrics = rt.Runtime.metrics in
      Metrics.gauge metrics "health.checks" (fun () -> Health.checks h);
      Metrics.gauge metrics "health.info" (fun () ->
          let i, _, _ = Health.alert_counts h in
          i);
      Metrics.gauge metrics "health.warn" (fun () ->
          let _, w, _ = Health.alert_counts h in
          w);
      Metrics.gauge metrics "health.crit" (fun () ->
          let _, _, c = Health.alert_counts h in
          c);
      Engine.every rt.Runtime.engine ~period:cfg.Config.health_period (fun () ->
          let watermark =
            if Hashtbl.length mgr.m_wm = 0 then None
            else
              Hashtbl.fold
                (fun _ ts acc ->
                  match acc with
                  | None -> Some ts
                  | Some m -> Some (Runtime.stamp_min m ts))
                mgr.m_wm None
              |> Option.map Vclock.key
          in
          Health.observe h
            ~now:(Engine.now rt.Runtime.engine)
            ~watermark
            ~values:(Metrics.int_values metrics);
          true)
  | None -> ());
  cluster

let kill_gatekeeper t gid = Net.set_alive t.rt.Runtime.net (Runtime.gk_addr t.rt gid) false
let kill_shard t sid = Net.set_alive t.rt.Runtime.net (Runtime.shard_addr t.rt sid) false

let shard_vertex t ~shard vid = Shard.vertex t.shards.(shard) vid

let stored_vertex t vid =
  match Store.get_now t.rt.Runtime.store (Runtime.vkey vid) with
  | Some (Runtime.Vrec v) -> Some v
  | _ -> None

let shard_of_vertex t vid = Runtime.shard_of_vertex t.rt vid
let gk_clock t gid = Gatekeeper.clock t.gks.(gid)
let shard_resident t sid = Shard.resident_vertices t.shards.(sid)
let shard_resident_ids t sid = Shard.resident_ids t.shards.(sid)
let shard_gc_floor t sid = Shard.gc_floor t.shards.(sid)

let reload_shards t = Shard.reload_all t.rt t.shards

let replica t ~shard ~replica = t.shards.(Runtime.replica_server t.rt ~shard ~replica)
let replica_vertex t ~shard ~replica:r vid = Shard.vertex (replica t ~shard ~replica:r) vid
let replica_applied t ~shard ~replica:r = Shard.repl_applied (replica t ~shard ~replica:r)

let shard_queue_depths t sid = Shard.queue_depths t.shards.(sid)

let gk_tau t gid = Gatekeeper.current_tau t.gks.(gid)

let gk_credits t ~gid ~shard = Gatekeeper.credits_available t.gks.(gid) shard

(* per-cluster ring buffer of recent messages, enabled on demand; composes
   with the observability hook so enabling the debug ring never silences
   request tracing (the network has a single tracer slot) *)
let enable_trace t ~capacity =
  let obs = Runtime.obs_net_hook t.rt in
  Net.set_tracer t.rt.Runtime.net
    (Some
       (fun ~time ~src ~dst msg ->
         (match obs with Some f -> f ~time ~src ~dst msg | None -> ());
         if Queue.length t.trace_ring >= capacity then ignore (Queue.pop t.trace_ring);
         Queue.push (time, src, dst, Format.asprintf "%a" Msg.pp msg) t.trace_ring))

let disable_trace t = Net.set_tracer t.rt.Runtime.net (Runtime.obs_net_hook t.rt)

let trace t = Queue.fold (fun acc entry -> entry :: acc) [] t.trace_ring |> List.rev

let clear_trace t = Queue.clear t.trace_ring

let report t =
  let c = t.rt.Runtime.counters in
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "weaver cluster report @ %.0f us (epoch %d)" (now t) (epoch t);
  line "  gatekeepers %d | shards %d | replicas/shard %d"
    t.rt.Runtime.cfg.Config.n_gatekeepers t.rt.Runtime.cfg.Config.n_shards
    t.rt.Runtime.cfg.Config.read_replicas;
  line "  tx: committed %d, conflict-aborted %d, invalid %d" c.Runtime.tx_committed
    c.Runtime.tx_aborted c.Runtime.tx_invalid;
  line "  node programs completed %d (vertices read %d)" c.Runtime.progs_completed
    c.Runtime.vertices_read;
  line "  coordination: announces %d, nops %d, shard txs %d, prog batches %d"
    c.Runtime.announce_msgs c.Runtime.nop_msgs c.Runtime.shard_tx_msgs
    c.Runtime.prog_batch_msgs;
  line "  oracle: consults %d, events %d, edges %d" c.Runtime.oracle_consults
    (Oracle.event_count t.rt.Runtime.oracle)
    (Oracle.edge_count t.rt.Runtime.oracle);
  let store = t.rt.Runtime.store in
  line "  store: keys %d, commits %d, aborts %d, journal tail %d (folded %d)"
    (Store.length store) (Store.commits store) (Store.aborts store)
    (Store.journal_length store - Store.journal_folded store)
    (Store.journal_folded store);
  line "  memory: page-ins %d, evictions %d | memo hits %d, invalidations %d (+%d remote)"
    c.Runtime.page_ins c.Runtime.evictions c.Runtime.memo_hits
    c.Runtime.memo_invalidations c.Runtime.memo_remote_invalidations;
  line "  cluster: recoveries %d, migrations %d, fault events %d" c.Runtime.recoveries
    c.Runtime.migrations c.Runtime.fault_events;
  line "  reliability: client retries %d, dedup hits %d, dedup dropped %d, late replies %d"
    c.Runtime.client_retries c.Runtime.dedup_hits c.Runtime.dedup_dropped
    c.Runtime.late_replies;
  line "  overload: shed %d (deadline %d, credit %d) | credit msgs %d"
    (c.Runtime.shed_deadline + c.Runtime.shed_credit)
    c.Runtime.shed_deadline c.Runtime.shed_credit
    c.Runtime.credit_msgs;
  line "  history: pinned reads %d" c.Runtime.pinned_reads;
  (match t.balancer with
  | Some b ->
      line "  rebalance: rounds %d, moves %d, skipped %d, in flight %d"
        c.Runtime.rebal_rounds c.Runtime.rebal_moves c.Runtime.rebal_skipped
        (Balancer.pending_moves b)
  | None -> ());
  line "  net: dropped at dead endpoints %d"
    (Net.messages_dropped t.rt.Runtime.net);
  (match t.rt.Runtime.heat with
  | Some h ->
      let hottest s =
        match Heat.top h ~shard:s with
        | (vid, n, _) :: _ -> Printf.sprintf "s%d:%s(%d)" s vid n
        | [] -> Printf.sprintf "s%d:-" s
      in
      line "  heat: skew %.2f | hottest %s"
        (Heat.skew h ~now:(now t))
        (String.concat " "
           (List.init (Heat.shards h) hottest))
  | None -> ());
  (match t.health with
  | Some h ->
      let i, w, cr = Health.alert_counts h in
      let last =
        match List.rev (Health.alerts h) with
        | a :: _ ->
            Printf.sprintf " | last: %s %s (%s)"
              (Health.severity_name a.Health.a_severity)
              a.Health.a_signal a.Health.a_detail
        | [] -> ""
      in
      line "  health: %d checks, alerts %d info / %d warn / %d crit%s"
        (Health.checks h) i w cr last
  | None -> ());
  Buffer.contents b

let kill_oracle_replica t i =
  match t.rt.Runtime.oracle_chain with
  | Some chain -> Weaver_oracle.Chain.kill chain i
  | None -> invalid_arg "kill_oracle_replica: oracle is not replicated"

let oracle_live_replicas t =
  match t.rt.Runtime.oracle_chain with
  | Some chain -> Weaver_oracle.Chain.live_count chain
  | None -> 1

(* ------------------------------------------------------------------ *)
(* Fault plans (Weaver_sim.Fault): interpret declarative actions against
   this deployment. Crashes are network-level (crash-stop: the endpoint
   neither receives nor sends); restarts revive the SAME instance in
   place, modelling a fast process restart that beats the failure
   detector — if the detector fires first, the replacement/epoch-barrier
   path takes over and the restart finds the endpoint already live. *)

module Fault = Weaver_sim.Fault

(* the shard server a shard or read-replica target names *)
let fault_server t = function
  | Fault.Shard s -> s
  | Fault.Replica { shard; replica } -> Runtime.replica_server t.rt ~shard ~replica
  | Fault.Gatekeeper _ | Fault.Oracle_replica _ -> invalid_arg "fault_server"

let fault_addr t = function
  | Fault.Gatekeeper g -> Runtime.gk_addr t.rt g
  | (Fault.Shard _ | Fault.Replica _) as target ->
      Runtime.shard_addr t.rt (fault_server t target)
  | Fault.Oracle_replica _ ->
      (* the oracle chain is not a network actor; no address *)
      invalid_arg "fault_addr: oracle replicas have no network address"

let apply_fault t action =
  let rt = t.rt in
  let net = rt.Runtime.net in
  rt.Runtime.counters.Runtime.fault_events <-
    rt.Runtime.counters.Runtime.fault_events + 1;
  match (action : Fault.action) with
  | Fault.Crash (Fault.Oracle_replica i) -> (
      (* protected configurations (unreplicated oracle, last live replica)
         make this a no-op rather than abort the whole plan *)
      try kill_oracle_replica t i with Invalid_argument _ -> ())
  | Fault.Restart (Fault.Oracle_replica _) ->
      (* the chain has no revive: a killed replica missed the sequence of
         apply commands, so bringing it back would serve stale decisions.
         Documented no-op; real recovery is a state-transfer rejoin. *)
      ()
  | Fault.Crash target -> Net.set_alive net (fault_addr t target) false
  | Fault.Restart (Fault.Gatekeeper g as target) ->
      Gatekeeper.on_revive t.gks.(g);
      Net.set_alive net (fault_addr t target) true
  | Fault.Restart ((Fault.Shard _ | Fault.Replica _) as target) ->
      let s = fault_server t target in
      (* resync BEFORE reviving the endpoint: it re-baselines the FIFO
         sequence channels, which must happen before any message arrives *)
      Shard.resync t.shards.(s);
      (* the dropped queues held Shard_txs whose flow-control credits will
         never be refunded: refill that column at every gatekeeper (a read
         replica has no queue and carries no credit) *)
      if s < rt.Runtime.cfg.Config.n_shards then
        Array.iter (fun gk -> Gatekeeper.on_shard_restart gk s) t.gks;
      (* the restart also dropped any follower copies the server held:
         owners streaming to it must mark it dirty and reseed at the next
         watermark instead of resuming a broken stream *)
      Array.iteri
        (fun sid sh -> if sid <> s then Shard.on_peer_restart sh ~peer:s)
        t.shards;
      Net.set_alive net (fault_addr t target) true
  | Fault.Net_degrade f -> Net.set_latency_factor net f
  | Fault.Link_degrade { src; dst; factor } ->
      Net.set_link_factor net ~src:(fault_addr t src) ~dst:(fault_addr t dst) factor

let install_fault_plan t plan =
  Fault.install t.rt.Runtime.engine plan ~exec:(apply_fault t)
