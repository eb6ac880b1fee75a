(** Heat-driven live rebalancing (paper §4.6): a periodic cluster-owned
    planner that closes the sense→plan→act loop over {!Weaver_obs.Heat}.

    Each round it reads the decayed per-shard loads, finds shards loaded
    beyond [{!hysteresis} × mean], picks their hottest
    vertices from the Space-Saving sketches (verified against the live
    directory), and issues at most [Config.rebalance_max_moves]
    migrations to the least-loaded live shards — through the ordinary OCC
    migrate path, so there is no stop-the-world and concurrent writers
    win races against the mover. Failed or timed-out moves count as
    [rebal.skipped] and are simply retried by a later round's plan.

    Like {!Weaver_obs.Health}, the planner is edge-triggered: inside the
    hysteresis band it does nothing, and while issued moves are still in
    flight a round only observes (a vertex never has two outstanding
    migrations). Anti-thrash: a vertex is not reconsidered within one
    heat half-life of its last move (the load it left behind decays over
    exactly that horizon), and a move only happens when the destination
    stays lighter than the source afterwards. Every planning input is deterministic simulation state,
    so {!move_log} is bit-identical across reruns of the same seed.

    Owned by {!Cluster} behind the default-off [Config.enable_rebalance];
    rounds run every [Config.rebalance_period] µs. Progress lands in the
    [rebal.rounds] / [rebal.moves] / [rebal.skipped] counters. *)

type t

val hysteresis : float
(** 1.5: a shard is overloaded above [hysteresis × mean] decayed shard
    load, and a candidate vertex moves only if its range heat exceeds the
    [(hysteresis − 1) × mean] per-range band — the gap is what prevents
    move thrash on a merely-noisy balanced cluster. *)

type move = {
  mv_time : float;  (** virtual time the move was issued *)
  mv_vid : string;
  mv_from : int;
  mv_to : int;
}

val create : Runtime.t -> t
(** Creates the planner and its private client session (so enabling the
    balancer never perturbs the address plan of user clients created
    before it).
    @raise Invalid_argument unless the runtime has heat enabled. *)

val run_round : t -> unit
(** Execute one sense→plan→act round now. {!Cluster} drives this from a
    periodic engine event; tests may call it directly. *)

val move_log : t -> move list
(** Every move ever issued, oldest first — the deterministic audit log
    (issued ≠ succeeded; see [rebal.moves] vs [rebal.skipped]). *)

val pending_moves : t -> int
(** Issued migrations whose outcome has not yet arrived. *)
