(** Declarative, seeded-deterministic fault plans (paper §4.3 evaluated
    under failure).

    A plan is pure data: a time-ordered list of actions against logical
    targets (gatekeepers, shards, read replicas, oracle replicas) plus
    network degradations. {!install} turns the plan into ordinary engine
    events, so a run with a fault plan is exactly as reproducible as one
    without — same seed, same schedule, same interleaving.

    This module deliberately knows nothing about the Weaver deployment: the
    interpreter ([exec]) is supplied by the cluster layer
    ({!Weaver_core.Cluster.install_fault_plan}), keeping [weaver_sim] free
    of upward dependencies. *)

type target =
  | Gatekeeper of int
  | Shard of int
  | Replica of { shard : int; replica : int }
      (** read-only replica [replica] of [shard] (§6.4): a follower-only
          shard server; a restart drops its copies and its owner reseeds
          it at the next watermark *)
  | Oracle_replica of int  (** one replica of the oracle chain (§3.4) *)

type action =
  | Crash of target
      (** crash-stop: the target stops sending and receiving. The cluster
          manager may detect it by heartbeat timeout and drive recovery
          (§4.3) before any scheduled [Restart]. *)
  | Restart of target
      (** revive a crashed target in place, resynchronizing its volatile
          state from the backing store. If the manager already replaced the
          target this is a no-op; restarting an oracle replica is
          unsupported (chain state cannot be resynced) and is ignored. *)
  | Net_degrade of float
      (** multiply every message latency by the factor (1.0 restores) *)
  | Link_degrade of { src : target; dst : target; factor : float }
      (** degrade one directed server-to-server link (1.0 restores) *)

type event = { at : float  (** virtual µs *); action : action }
type plan = event list

val scripted : (float * action) list -> plan
(** Plan from explicit (time, action) pairs; sorted by time (stable). *)

val rolling_crashes :
  targets:target list -> start:float -> gap:float -> downtime:float -> plan
(** Crash each target in turn: target [i] crashes at [start + i*gap] and
    restarts [downtime] later. With [gap > downtime] at most one target is
    down at a time — the rolling-outage schedule of the chaos bench. *)

val random_plan :
  rng:Weaver_util.Xrand.t ->
  targets:target list ->
  start:float ->
  until:float ->
  mean_gap:float ->
  downtime:float ->
  plan
(** Randomized crash/restart schedule: exponentially distributed gaps with
    the given mean, uniformly chosen targets, each down for [downtime].
    Deterministic for a given [rng] state (seeded upstream). *)

val install : Engine.t -> plan -> exec:(action -> unit) -> int
(** Schedule every event on the engine (absolute times; past times clamp
    to now), invoking [exec] per action. Returns the number of events
    scheduled. *)

val action_name : action -> string
(** Action label: "crash", "restart", "net_degrade", "link_degrade". *)
