(** The node-program read gate's checks (paper §4.1), memoized per parked
    batch.

    A parked batch may run once its stamp clears every gatekeeper's
    reference: the queue head, or the last applied entry when the queue is
    drained. A check is decided by vector clocks, then the shard's
    decision cache, then (for a real transaction) the oracle's
    pre-established orders, and past the patience window by a reactive
    oracle order. Checks may count cache hits and oracle consults, so the
    gate checks every reference, even after one fails.

    A batch keeps the verdict of each check. While a fresh check would
    reach it the same way, the verdict is repeated instead of recomputed,
    with the counted work a fresh check would do: the reference is the
    same entry (compared physically), and a verdict reached after a cache
    miss stands only while the cache keeps its size and the batch is not
    overdue. *)

type queued_tx = {
  q_ts : Weaver_vclock.Vclock.t;
  q_ops : Msg.shard_op list;  (** [[]] for a NOP *)
  q_trace : int;  (** originating request's trace id (0 for NOPs) *)
  q_enq : float;  (** when it entered its queue, for queue-wait metrics *)
  mutable q_ordered : bool;
      (** a NOP that some run was ordered against through the overdue
          path: the cache may hold pairs with its stamp *)
}
(** An entry of a shard's per-gatekeeper FIFO queue. *)

val none : queued_tx
(** Stands for "no reference": a queue that is empty and has applied
    nothing. Such a queue never clears a batch. *)

type memo
(** One verdict per gatekeeper for one parked batch. *)

val no_memo : memo
(** The memo of a batch not checked yet. Batches that clear their first
    check never allocate one. *)

type t

val create :
  Runtime.t -> Runtime.decision_cache -> queues:int -> fresh_only:bool -> t
(** The gate of a shard with [queues] gatekeeper queues and this decision
    cache. [fresh_only] says every program stamp the shard will see is a
    fresh gatekeeper tick (no re-stamped weak runs, no restored image).
    While it holds, a check against a NOP that no run was ordered against
    through the overdue path skips its cache probe, which cannot hit (the
    argument is at [skips] in the implementation), and shows the skip to
    {!Runtime.skipped_probe}. *)

val set_ref : t -> int -> queued_tx -> nop:bool -> unit
(** [set_ref g gk r ~nop] sets gatekeeper [gk]'s reference for the next
    checks: its queue head (effect-free iff a NOP) or its last applied
    entry (always effect-free), or {!none}. *)

val check : t -> ts:Weaver_vclock.Vclock.t -> overdue:bool -> memo -> bool
(** Does a batch stamped [ts] clear every reference? [memo] is the
    batch's; with {!no_memo} every check is made afresh and recorded in
    the gate's scratch memo, which {!save} copies out. *)

val save : t -> memo
(** A copy of the verdicts of the last {!check} made with {!no_memo}. *)

val fresh_only : t -> bool
(** While true, no cache entry pairs a queued NOP's stamp with another
    queued stamp, so a shard compares such heads without a probe. *)

val stop_skipping : t -> unit
(** End {!fresh_only}: a historical run arrived, a restored image was
    loaded, or the shard restarted in place. Every probe is made from then
    on. *)
