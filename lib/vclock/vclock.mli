(** Epoch-tagged vector clocks — the first, proactive stage of refinable
    timestamps (paper §3.3).

    Each gatekeeper [i] owns component [i] of the vector: it increments it on
    every client request and merges announcements from its peers every τ µs.
    A timestamp also carries the configuration {e epoch}, which the cluster
    manager bumps whenever a failed gatekeeper is replaced (§4.3); a
    timestamp from a later epoch always happens after every timestamp from an
    earlier epoch, which restores monotonicity across the replacement's
    clock reset.

    Comparison yields the classic happens-before partial order; concurrent
    pairs are exactly the ones the timeline oracle must refine. *)

type t = { epoch : int; origin : int; clocks : int array }
(** [origin] is the index of the gatekeeper that issued the timestamp; it
    identifies which component was the issuing tick and serves as the
    deterministic tie-break for {!total_compare}. The array is never
    mutated after construction. *)

type order = Before | After | Concurrent | Equal

val zero : n:int -> t
(** All-zero clock of dimension [n], epoch 0, origin 0. *)

val make : epoch:int -> origin:int -> int array -> t
(** Copies the array. Requires [0 <= origin < Array.length clocks]. *)

val dim : t -> int

val tick : t -> origin:int -> t
(** Increment component [origin] and stamp the result with that origin. *)

val merge : t -> t -> t
(** Element-wise max; keeps the left operand's epoch/origin. Requires equal
    dimensions and epochs. *)

val compare_hb : t -> t -> order
(** Happens-before comparison. Epochs dominate: a lower epoch is [Before] a
    higher one. Within an epoch, standard vector-clock comparison. *)

val precedes : t -> t -> bool
(** [precedes a b] iff [compare_hb a b = Before]. *)

val concurrent : t -> t -> bool
val equal : t -> t -> bool

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by a stamp's identity: same epoch, origin and clocks,
    the equality under which {!key} strings coincide. The hash mixes
    those ints, so a lookup builds no string. *)

val total_compare : t -> t -> int
(** Arbitrary but deterministic total order extending happens-before:
    epoch, then clock sum, then lexicographic clocks, then origin. Used
    only for deterministic data-structure ordering (e.g. queue priorities),
    never as a serialization decision for concurrent pairs. *)

val key : t -> string
(** Canonical string form, usable as a hashtable key. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Loosely synchronized real-time intervals à la Spanner TrueTime, used by
    the ablation bench for the §3.5 discussion: a TrueTime-based first stage
    must commit-wait out the error bound ε, costing 2·ε̄ latency. *)
module Truetime : sig
  type tt = { earliest : float; latest : float }

  val now : rng:Weaver_util.Xrand.t -> real:float -> eps:float -> tt
  (** An interval of width ≤ 2·[eps] guaranteed to contain [real]. *)

  val after : tt -> tt -> bool
  (** [after a b] iff [a] definitely happened after [b]. *)

  val commit_wait : tt -> float
  (** Time to wait after acquiring [tt] before it is safe to expose the
      commit ([latest - earliest]). *)
end
