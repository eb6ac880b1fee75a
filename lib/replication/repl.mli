(** Timestamp-consistent partial replication of vertex ranges (DESIGN
    §16; Sutra & Shapiro's fault-tolerant partial replication adapted to
    refinable timestamps).

    The paper's own read replicas (§6.4) are the full case: followers of
    every range of their shard. This module supplies the pure logic built
    on top of the watermark machinery: owners of followed ranges (every
    range of the cluster's standing plan — the read replicas' home shards,
    or the next [replication_factor] shards) stream applied updates to
    followers together with their gossiped GC watermarks, and a follower
    may serve any read at stamp [t] that its replication watermark
    {e covers} — the result is then bit-identical to the owner's answer at
    the same cut, because both resolve the same multi-version records at
    the same timestamp.

    Everything here is deterministic bookkeeping over vector clocks: no
    randomness, no events, no I/O. The plan itself is
    [Weaver_core.Runtime.standing_plan]; gatekeepers keep a {!Table}
    filled from it and advanced by [Repl_cover] messages. *)

module Vclock = Weaver_vclock.Vclock

val covers : wm:Vclock.t -> Vclock.t -> bool
(** [covers ~wm at]: is a copy whose replication watermark is [wm] safe to
    read at stamp [at]? True iff the epochs match, the dimensions match,
    and [at] is componentwise [<=] [wm] — i.e. every transaction that could
    be visible at [at] has a stamp at or below the watermark, hence has
    been applied to the copy. Componentwise [<=] (not strict
    happens-before): a read re-stamped exactly at the watermark is safe. *)

(** Range → followers routing table, with per-follower monotone
    replication watermarks. Gatekeepers use it to pick read
    destinations. *)
module Table : sig
  type t

  val create : unit -> t

  val install : t -> range:int -> followers:int list -> unit
  (** Register (or overwrite) the followers of a range. Follower
      watermarks start unset — a follower advertises coverage only after
      its first seed. *)

  val followers : t -> range:int -> (int * Vclock.t option) list
  (** Followers of a range with their last advertised watermarks, in
      install order. Empty if the range is not replicated. *)

  val set_wm : t -> range:int -> follower:int -> Vclock.t -> unit
  (** Advance a follower's advertised watermark. Watermarks travel over one
      FIFO channel per (follower, gatekeeper) pair, so plain replacement is
      monotone within an epoch; an epoch change resets them via
      {!clear_wms}. Unknown ranges/followers are ignored. *)

  val clear_wms : t -> unit
  (** Forget every advertised watermark (epoch barrier: old-epoch stamps
      can never cover new-epoch reads, and followers re-advertise after
      their post-barrier reseed). *)

  val covering : t -> range:int -> at:Vclock.t -> int list
  (** Followers whose advertised watermark {!covers} [at], in install
      order. Liveness filtering is the caller's business. *)

  val size : t -> int
  (** Ranges installed. *)
end
