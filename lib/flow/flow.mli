(** Overload management: admission control, credit-based backpressure, and
    traffic priority classes.

    The paper's scaling experiments (Figs. 12–13) stop at the saturation
    knee: gatekeepers serve client requests serially, so offered load past
    capacity accumulates in queues until latency diverges. This module
    supplies the pure decision logic that keeps the pipeline overload-safe:

    - {!Admission}: deadline-based load shedding at the gatekeeper — a
      request whose projected queue wait already exceeds its deadline
      budget is rejected up front instead of timing out downstream. The
      wait bounds the queue depth too: at a fixed per-request cost, a depth
      limit is a wait budget.
    - {!Credits}: credit-based flow control for the gatekeeper→shard path —
      a slow or latency-degraded shard drains its credit column and
      propagates backpressure to admission instead of growing an unbounded
      FIFO.
    - {!priority}: two traffic classes; control traffic (NOPs, announces,
      heartbeats, epoch barriers, commit notes, credits) is exempt from
      shedding so refinement and failure detection never starve.

    Everything here is deterministic bookkeeping over values the callers
    already have (virtual time, busy-until horizons): no randomness is
    consumed and no events are scheduled, so runs with the limits set
    non-binding are bit-identical to runs without the subsystem. *)

(** {1 Priority classes} *)

type priority =
  | Control  (** exempt from shedding: coordination and liveness traffic *)
  | Client_req  (** sheddable: client requests and their derived traffic *)

val priority_of_kind : string -> priority
(** Classify a message by its [Msg.kind] string. Control covers
    ["Announce"], ["Shard_tx(nop)"], ["Heartbeat"], ["Commit_note"],
    ["Credit"], ["Epoch_change"], ["Epoch_ack"], ["Watermark"],
    ["Prog_gc"], and the partial-replication stream (["Repl_update"],
    ["Repl_seed"], ["Repl_cover"] — shedding a
    replication stream would silently desync follower copies); everything
    else — including unknown kinds — is [Client_req], so new message types
    are sheddable until explicitly exempted. *)

(** {1 Admission with deadline-based shedding} *)

module Admission : sig
  type t

  type decision =
    | Admit
    | Shed_deadline  (** projected queue wait exceeds the deadline budget *)

  val create : deadline_budget:float -> t
  (** [deadline_budget] is the maximum tolerable projected queue wait in
      µs (0 = no budget). *)

  val enabled : t -> bool
  (** Whether a budget is set. *)

  val decide : t -> now:float -> busy_until:float -> decision
  (** The admission decision for a request arriving at [now] against a
      gatekeeper busy until [busy_until]. Pure — never mutates state. *)
end

(** {1 Credit-based gatekeeper→shard flow control} *)

module Credits : sig
  type t

  val create : peers:int -> credits:int -> t
  (** A ledger of [credits] send credits towards each of [peers] shards;
      [credits = 0] disables the mechanism entirely. *)

  val enabled : t -> bool

  val available : t -> int -> int
  (** Credits currently available towards the given peer (the configured
      maximum when disabled). *)

  val exhausted : t -> int -> bool
  (** [true] iff the mechanism is enabled and the peer's column is at (or
      below) zero — the admission-side backpressure signal. *)

  val consume : t -> int -> unit
  (** Spend one credit towards the peer (no-op when disabled). May drive
      the column negative: consumption happens at send time, after the
      admission check, and a single transaction may fan out to a peer more
      than once. *)

  val refund : t -> int -> int -> unit
  (** [refund t peer n] returns [n] credits (the peer applied [n]
      transactions), clamped at the configured maximum. *)

  val reset_peer : t -> int -> unit
  (** Refill one peer's column to the maximum — used when the peer
      restarts and its queues (with our outstanding transactions) are
      dropped, so the credits they carried can never be refunded. *)

  val reset : t -> unit
  (** Refill every column (epoch barrier: all shard queues were cleared). *)
end
