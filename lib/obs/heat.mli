(** Load-heat attribution: which vertex handles and key ranges are hot,
    per shard — the sensor the elastic-sharding and hot-partition
    replication planners start from.

    Two deterministic, O(1)-per-touch instruments: a Space-Saving top-K
    heavy-hitter sketch per shard (fixed memory; estimates never
    undercount and overcount by at most the recorded error bound), and
    per-key-range exponentially-decayed load accumulators with reads,
    writes, and cross-shard transaction touches tracked separately.
    Ranges are FNV-1a hash buckets of the vertex handle — the same hash
    placement uses. [create] requires [ranges] to be a multiple of the
    shard count, so every range nests inside exactly one home shard for
    unmigrated vertices; migrated load is tracked where it actually lands
    (see {!range_owner}).

    Recording never schedules events, consumes randomness, or sends
    messages: a run with heat enabled is bit-identical to one without
    (test-enforced). *)

(** The Space-Saving sketch on its own, for tests and other consumers. *)
module Sketch : sig
  type t

  val create : k:int -> t
  (** [k] counters of fixed memory. *)

  val capacity : t -> int

  val size : t -> int
  (** Distinct keys currently tracked ([<= k]). *)

  val touch : ?by:int -> t -> string -> unit

  val estimate : t -> string -> (int * int) option
  (** [(estimated count, error bound)] if currently tracked. The true
      count lies in [[estimate - error, estimate]]. *)

  val top : t -> (string * int * int) list
  (** [(key, estimated count, error bound)], hottest first; count ties
      break on the key, so the order is a pure function of the stream. *)
end

type kind = Read | Write | Cross

val kind_name : kind -> string
(** ["reads"], ["writes"], ["cross"] — the instrument-name suffixes. *)

type t

val default_half_life : float
(** 50 ms of virtual time: the half-life a cluster's sensor decays with,
    and the cooldown the balancer gives a moved vertex. *)

val create : shards:int -> k:int -> ranges:int -> half_life:float -> t
(** [k] sketch counters per shard; [ranges] hash buckets; [half_life] of
    the decayed accumulators in virtual µs.
    @raise Invalid_argument unless [ranges] is a positive multiple of
    [shards] — otherwise {!home_shard} would disagree with hashed
    placement and mis-attribute every range. *)

val shards : t -> int
val ranges : t -> int
val half_life : t -> float
val sketch : t -> shard:int -> Sketch.t

val range_of : t -> string -> int
(** Hash bucket of a vertex handle. *)

val home_shard : t -> int -> int
(** [range mod shards]: the range's owner under pure hashed placement —
    exact for unmigrated vertices, because {!create} enforces
    [ranges mod shards = 0]. *)

val range_owner : t -> range:int -> now:float -> int
(** The shard observed to serve most of the range's recent (decayed)
    read+write load — the live attribution, which follows migrations
    because touches are recorded at the shard that actually served them.
    Falls back to {!home_shard} while the range is cold; ties break toward
    the lower shard index (deterministic). *)

val touch : t -> shard:int -> kind:kind -> now:float -> string -> unit
(** Record one touch of a vertex handle on [shard] at virtual time [now].
    [Read]/[Write] feed the shard's sketch and the range/shard
    accumulators; [Cross] feeds only the accumulators (it re-counts a
    write already recorded at the owning shard). *)

val top : t -> shard:int -> (string * int * int) list
(** The shard's sketch table, hottest first. *)

val totals : t -> shard:int -> int * int * int
(** Cumulative [(reads, writes, cross)] touch counts — what the
    [heat.shardN.*] registry gauges report. *)

val total : t -> shard:int -> kind:kind -> int

val range_load : t -> range:int -> kind:kind -> now:float -> float
(** Decayed load of one range for one kind, as of [now]. *)

val shard_load : t -> shard:int -> now:float -> float
(** Decayed read+write load of one shard, as of [now]. *)

val skew : t -> now:float -> float
(** Max/mean decayed read+write load across shards: 1.0 is balanced,
    [shards] is one shard carrying everything, 0.0 is idle. *)
