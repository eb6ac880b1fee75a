(** A complete simulated Weaver deployment (paper Fig. 4): gatekeepers,
    shard servers, the timeline oracle, the backing store, and the cluster
    manager, wired over a FIFO network inside one discrete-event engine.

    Typical use:
    {[
      let cluster = Cluster.create config in
      Weaver_programs.Std.register_all (Cluster.registry cluster);
      let client = Cluster.client cluster in
      let tx = Client.Tx.begin_ client in
      let v = Client.Tx.create_vertex tx () in
      ...
      match Client.commit client tx with ...
    ]} *)

type t

val create : Config.t -> t
(** Boot the deployment; servers and their periodic timers start
    immediately at virtual time 0. *)

val config : t -> Config.t
val runtime : t -> Runtime.t
val registry : t -> Nodeprog.registry
val counters : t -> Runtime.counters

val client : t -> Client.t
(** A new client session. *)

val register_program : t -> (module Nodeprog.PROGRAM) -> unit

val now : t -> float
(** Current virtual time, µs. *)

val run_for : t -> float -> unit
(** Advance the simulation by the given virtual duration. *)

val oracle_queries : t -> int
(** Total ordering requests served by the timeline oracle. *)

val epoch : t -> int
(** Current configuration epoch at the cluster manager. *)

(** {1 Failure injection (§4.3)} *)

val kill_gatekeeper : t -> int -> unit
(** Crash-stop a gatekeeper. The manager detects the failure by heartbeat
    timeout, spawns a replacement at the same address, and drives the
    epoch barrier. *)

val kill_shard : t -> int -> unit

val apply_fault : t -> Weaver_sim.Fault.action -> unit
(** Interpret one fault action against this deployment, immediately.
    Crashes are crash-stop at the network layer (and chain kills for
    oracle replicas); restarts revive the same instance in place —
    gatekeepers drop their memo table ({!Gatekeeper.on_revive}), shards
    resynchronize their FIFO channels and reload from the store
    ({!Shard.resync}), replicas reload, and oracle-replica restarts are
    documented no-ops (the chain has no state-transfer rejoin).
    [Net_degrade]/[Link_degrade] scale simulated latencies. *)

val install_fault_plan : t -> Weaver_sim.Fault.plan -> int
(** Schedule every event of a declarative fault plan on the engine
    (executed via {!apply_fault} at each event's virtual time); returns
    the number of events installed. Plans are data, so the same seed and
    plan replay bit-identically. *)

(** {1 Introspection for tests and tools} *)

val shard_vertex : t -> shard:int -> string -> Weaver_graph.Mgraph.vertex option
val stored_vertex : t -> string -> Weaver_graph.Mgraph.vertex option
val shard_of_vertex : t -> string -> int
val gk_clock : t -> int -> Runtime.Vclock.t
val shard_resident : t -> int -> int

val shard_resident_ids : t -> int -> string list
(** Sorted vids resident in shard memory (crash-recovery determinism
    tests). *)

val shard_snapshots : t -> int -> int
(** Snapshots currently retained by shard [i] ([Config.snapshot_reads]). *)

val shard_snapshots_pinned : t -> int -> int
(** Snapshots of shard [i] pinned by in-flight node programs. *)

val shard_gc_floor : t -> int -> Runtime.Vclock.t option
(** Shard [i]'s compaction floor: versions strictly below it are gone
    from its in-memory copy. *)

val reload_shards : t -> unit
(** Have every shard re-read its partition from the backing store. Used by
    offline bulk loaders after installing records directly. *)

val shard_queue_depths : t -> int -> int array
(** Pending transactions per gatekeeper queue at shard [i] (tests). *)

val replica_vertex :
  t -> shard:int -> replica:int -> string -> Weaver_graph.Mgraph.vertex option
(** In-memory record at a read-only replica (tests). *)

val replica_applied : t -> shard:int -> replica:int -> int
(** Replication-stream transactions applied by a replica (tests). *)

val gk_tau : t -> int -> float
(** Gatekeeper [i]'s current announce period (§3.5 adaptive τ). *)

val gk_credits : t -> gid:int -> shard:int -> int
(** Flow-control credits gatekeeper [gid] currently holds towards [shard]
    ([Config.shard_credits] when flow control is off); for tests. *)


val report : t -> string
(** Multi-line operational summary: virtual time, epoch, and every
    {!Runtime.counters} field — the text a metrics endpoint would serve. *)

(** {1 Observability} *)

val metrics : t -> Weaver_obs.Metrics.t
(** The metrics registry: legacy counters as gauges plus the per-phase
    latency reservoirs fed by the actors. *)

val request_tracer : t -> Weaver_obs.Trace.t option
(** The causal request tracer; [Some] iff [Config.enable_tracing]. *)

val timeline : t -> Weaver_obs.Timeline.t option
(** Ring-buffered registry samples; [Some] iff [Config.enable_timeline]. *)

val slow_log : t -> Weaver_obs.Slowlog.t
(** The always-on slow-request log (top [Config.slow_log_capacity]
    slowest client requests; per-phase breakdowns when tracing is on). *)

val heat : t -> Weaver_obs.Heat.t option
(** Per-shard heavy-hitter sketches and per-range decayed load
    accumulators; [Some] iff [Config.enable_heat]. *)

val health : t -> Weaver_obs.Health.t option
(** The cluster health watchdog (checks every [Config.health_period] µs);
    [Some] iff [Config.enable_health]. *)

val balancer : t -> Balancer.t option
(** The live rebalancing planner (rounds every [Config.rebalance_period]
    µs); [Some] iff [Config.enable_rebalance]. *)

val replicator : t -> Replicator.t option
(** The hot-range replication controller (rounds every [Config.gc_period]
    µs); [Some] iff [Config.enable_replication]. *)

val actor_of_addr : t -> int -> string
(** Name of the actor at a network address ("gk0", "shard2", ...) — the
    pid naming used by {!Weaver_obs.Export.chrome_trace}. *)

(** {1 Message tracing}

    A debugging aid: capture the last N messages crossing the simulated
    network, with virtual timestamps and rendered payloads. Composes with
    the request tracer (both see every send). *)

val enable_trace : t -> capacity:int -> unit
val disable_trace : t -> unit

val trace : t -> (float * int * int * string) list
(** [(time, src, dst, message)] entries, oldest first. *)

val clear_trace : t -> unit

val kill_oracle_replica : t -> int -> unit
(** Crash one replica of the chain-replicated timeline oracle (requires
    [Config.oracle_replicas > 1]; the last live replica is protected).
    Killing the head promotes its successor (§3.4). *)

val oracle_live_replicas : t -> int
(** Live replicas of the oracle chain (1 when unreplicated). *)
