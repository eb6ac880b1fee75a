(** Shard server — holds one in-memory partition of the multi-version graph
    and obeys the refinable-timestamp order (paper §3.2, §4.1–§4.2).

    The shard keeps one FIFO queue of incoming transactions per gatekeeper,
    prioritized by timestamp, and its event loop executes the globally
    earliest transaction whenever every queue is non-empty (NOPs guarantee
    liveness). Mutually concurrent queue heads are serialized by the
    timeline oracle, whose decisions are irrevocable. Node
    programs are delayed until every preceding or concurrent transaction
    has executed, then run against the snapshot at their timestamp,
    propagating hops to peer shards.

    The same server type is the paper's §6.4 read replica: a server with
    index [>= n_shards] ({!Runtime.replica_server}) owns no vertex and has
    no gatekeeper queue. It follows every range of its home shard on the
    replication stream below, serves weak reads its coverage allows,
    forwards hops to the same-index replica of the hop's shard, and sends
    misses to the owner. *)

type t

val spawn : Runtime.t -> sid:int -> epoch:int -> t
(** Create shard server [sid], register its handler at
    {!Runtime.shard_addr}, install its part of {!Runtime.standing_plan},
    and (for a shard, not a read replica) start its heartbeat timer. A
    replacement spawned after a failure (with the current [epoch])
    restores its partition from the backing store. *)

val retire : t -> unit

val sid : t -> int
val epoch : t -> int

val vertex : t -> string -> Weaver_graph.Mgraph.vertex option
(** In-memory record of a vertex on this server: an owned record or a
    follower copy (tests/introspection). *)

val resident_vertices : t -> int
(** Owned records in memory; follower copies do not count. *)

val resident_ids : t -> string list
(** Sorted vids of the owned records resident in shard memory
    (tests/introspection — crash-recovery determinism checks). *)

val queue_depths : t -> int array
(** Pending transactions per gatekeeper queue (tests). *)

(** {1 Historical reads} (DESIGN §12)

    Each full watermark round sets the shard's cut, the pointwise minimum
    of the latest watermark from every gatekeeper. A historical node
    program batch whose stamp precedes the cut runs at once, without the
    refinable-timestamp gate: it reads the records the directory assigns
    here from the durable store, which keeps the full version history,
    with no demand paging, LRU touch or eviction; it reads a follower copy
    when the copy covers the stamp, and sends every other visit to the
    owner. Other historical batches are gated against the live graph. *)

val gc_floor : t -> Weaver_vclock.Vclock.t option
(** Watermark of the last compaction: versions strictly below it are gone
    from the in-memory copy, so live-graph reads below it (historical
    ones not below the cut, or weak ones re-stamped at a follower
    watermark) are answered with a retryable ["snapshot-gced"] error. *)

val reload_all : Runtime.t -> t array -> unit
(** Re-read every server's partition from the backing store after a bulk
    load, and mark every follower dirty so the next watermark reseeds it.
    The store is scanned once for all servers. *)

val resync : t -> unit
(** Crash-restart resynchronization within the current epoch: drop queued
    transactions and parked programs, re-baseline every per-gatekeeper
    FIFO channel, and reload its partition from the backing store. Used by fault-plan
    restarts that revive a shard in place before the failure detector
    replaces it; must be called before the network endpoint is marked
    alive again. *)

(** {1 Partial replication} ({!Runtime.standing_plan}, DESIGN §16)

    Follower state for the ranges of the standing plan
    ({!Weaver_repl.Repl}), installed at spawn and again at {!resync}. As
    an {e owner}, the shard streams ops landing in its replicated ranges
    to followers and advances them with watermark heartbeats (or
    wholesale seeds, when the stream was interrupted). As a
    {e follower}, it keeps
    timestamp-consistent copies of other owners' ranges in the same
    vertex table as its owned records, tagged as copies and written by
    the same apply function. A program visit reads an owned record
    directly, paging it in on a miss only when the directory assigns the
    vertex here; reads a copy only when its range's watermark covers the
    stamp and the stamp is not below the range's seed floor; and sends
    anything else to the owner. A streamed op or seed record never
    touches a record this server owns. Copies are never paged, evicted or
    compacted, and do not count toward [Config.shard_capacity]; a reseed
    replaces them. *)

val repl_applied : t -> int
(** Stream updates and seeds this server has applied as a follower. *)

val on_peer_restart : t -> peer:int -> unit
(** A peer server crash-restarted, losing any follower copies it held:
    mark it dirty in every replicated range it follows (reseeded at the
    next watermark) and refill its stream-credit column. Called by the
    cluster fault layer alongside the gatekeepers' [on_shard_restart]. *)
