(** Hot-range replication controller (DESIGN §16): a periodic
    cluster-owned planner that installs follower copies of the hottest
    key ranges for read scale-out.

    Each round it re-broadcasts its standing plan (healing restarted
    shards and gatekeepers — [Repl_install] is idempotent everywhere),
    then nominates new ranges from the per-shard Space-Saving sketches:
    a range qualifies when it is not yet replicated, its owner is live,
    and its decayed read+write load exceeds the mean per-range load.
    Followers are the [Config.replication_factor] least-loaded live
    shards other than the owner. Owners then stream applied updates and
    watermark heartbeats to the followers ({!Shard}), and gatekeepers
    route covered reads to them ({!Gatekeeper}).

    Owned by {!Cluster} behind the default-off
    [Config.enable_replication]; rounds run every [Config.gc_period] µs
    (the cadence of the watermark gossip the stream piggybacks on).
    Progress lands in the [repl.rounds] / [repl.installs] /
    [repl.updates] / [repl.resyncs] / [repl.routed] counters. *)

type t

val create : Runtime.t -> t
(** @raise Invalid_argument unless the runtime has heat enabled. *)

val run_round : t -> unit
(** Execute one plan round now. {!Cluster} drives this from a periodic
    engine event; tests may call it directly. *)

val table : t -> Weaver_repl.Repl.Table.t
(** The controller's view of what is replicated where (tests and
    introspection). *)
