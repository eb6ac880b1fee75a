(** The shard's ordering gate (paper §4.1–§4.2, Fig. 6): every decision
    about what runs next on a shard. It holds one FIFO queue per
    gatekeeper, the last entry popped from each, the outstanding oracle
    consult's batch and the parked node-program batches, and asks for
    orders only through {!order}, so tests can run it on a model oracle.
    The shard carries out its actions.

    {b Queue loop.} With every queue non-empty, the first head in
    gatekeeper order no later than every other head runs. A pair with a
    NOP falls to {!Weaver_vclock.Vclock.total_compare} when nothing
    decides it; an undecided pair of real transactions starts a consult
    (or joins the outstanding one) covering every queued real transaction
    undecided against another. Heads in its batch stall until the answer;
    the others keep draining. When no head can run, the smallest NOP head
    is popped.

    {b Program gate.} A parked batch runs once its stamp clears every
    gatekeeper's reference (the queue head, or the last applied entry):
    by vector clocks, for a real transaction the oracle's established
    orders, and past the patience window {!order.before}. Every reference
    is checked, as each check may count a consult. A batch keeps a verdict
    settled by clocks or established by the oracle for good, since the
    oracle's decisions are irrevocable; an unsettled one stands until the
    batch is overdue, and against a real transaction its repeat asks the
    oracle again. *)

module Vclock = Weaver_vclock.Vclock

type queued_tx = {
  q_ts : Vclock.t;
  q_ops : Msg.shard_op list;  (** [[]] for a NOP *)
  q_trace : int;  (** originating request's trace id (0 for NOPs) *)
  q_enq : float;  (** when it entered its queue, for queue-wait metrics *)
}
(** An entry of a per-gatekeeper FIFO queue. *)

(** The ordering interface: [Runtime.ordering] implements it over the
    timeline oracle. Each function answers [a ≺ b]. *)
type order = {
  clock : Vclock.t -> Vclock.t -> bool option;
      (** by vector clocks; [None] if concurrent or equal of two origins *)
  established : Vclock.t -> Vclock.t -> bool option;
      (** the oracle's established order, counted as a consult *)
  before : Vclock.t -> Vclock.t -> prefer_first_on_tie:bool -> bool;
      (** the full decision, establishing [a ≺ b] iff [prefer_first_on_tie]
          when nothing orders the pair *)
}

type 'a t
(** The gate of one shard; ['a] is the shard's parked-batch payload. *)

val create : order -> queues:int -> patience:float -> 'a t
(** [patience] is how long (µs) a parked batch waits before its checks
    refine reactively. *)

(** {1 The queue loop} *)

type action =
  | Pop of int
      (** the head of queue [g] was popped and is now {!applied}: apply it *)
  | Start_consult  (** no consult was out and the batch gained stamps: start one *)
  | Join_consult  (** new stamps joined the outstanding consult's batch *)
  | Idle  (** nothing can run until an arrival or the consult's answer *)

val arrive : 'a t -> int -> queued_tx -> bool
(** Queue an entry from a gatekeeper; [true] iff its stamp does not happen
    after the previous arrival from that gatekeeper (a stamp inversion). *)

val step : 'a t -> action
(** The next action of the queue loop. Call it until {!Idle}. *)

val applied : 'a t -> int -> queued_tx
(** The entry a gatekeeper's queue popped last. *)

val consulting : 'a t -> bool

val end_consult : 'a t -> Vclock.t list
(** The consult's answer arrived: its batch in join order, for the oracle
    to serialize. Unstalls the batch. *)

(** {1 The program gate} *)

type 'a parked

val park : 'a t -> ts:Vclock.t -> since:float -> gated:bool -> 'a -> unit
(** Park a batch stamped [ts] at time [since]. A batch with [gated] false
    (one that reads a pinned snapshot) clears at once. *)

val runnable : 'a t -> now:float -> 'a parked list
(** Check every parked batch, newest first, and remove and return those
    that may run, in that order. *)

val stamp : 'a parked -> Vclock.t
val since : 'a parked -> float
val item : 'a parked -> 'a

(** {1 State} *)

val reset : 'a t -> unit
(** Drop every queued entry, parked batch, last applied entry and the
    outstanding consult. *)

val depths : 'a t -> int array

val for_all_heads : 'a t -> (queued_tx -> bool) -> bool
(** Every non-empty queue's head satisfies the predicate. *)
