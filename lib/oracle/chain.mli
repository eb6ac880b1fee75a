(** Chain replication of the timeline oracle (paper §3.4).

    The paper's timeline oracle is "a state machine that is chain
    replicated for fault tolerance. Updates to the event dependency graph
    ... occur at the head of the chain, while queries can execute on any
    copy of the graph", scaling reads to ~6M queries/s on a 12-server
    chain. This module reproduces that deployment shape: [replicas] copies
    of an {!Oracle.t}, updates applied at the head and propagated down the
    chain as a command log, reads served by any live replica (with
    freshness guaranteed for one's own writes by reading at the head when a
    session has in-flight updates — the classic chain-replication
    discipline where the tail serves linearizable reads; we expose both).

    Failures: killing a replica removes it from the chain; killing the head
    promotes its successor. Commands are re-propagated so surviving
    replicas converge. The whole chain shares one logical command history,
    so answers never contradict each other. *)

type t

val create : ?replicas:int -> unit -> t
(** A chain of [replicas] (default 3) oracle copies. *)

val live_count : t -> int

val order : t -> first:Weaver_vclock.Vclock.t -> second:Weaver_vclock.Vclock.t -> Oracle.decision
(** Query-or-establish at the head, then propagate the decision down the
    chain (paper: updates occur at the head). *)

val query :
  t -> ?replica:int -> Weaver_vclock.Vclock.t -> Weaver_vclock.Vclock.t ->
  Oracle.decision option
(** Read at the given replica (default: the tail, which in chain
    replication serves linearizable reads). @raise Invalid_argument if the
    replica is dead or out of range. *)

val serialize : t -> Weaver_vclock.Vclock.t list -> Weaver_vclock.Vclock.t list
(** {!Oracle.serialize} at the head, propagated. *)

val gc : t -> watermark:Weaver_vclock.Vclock.t -> int
(** GC on every live replica; returns the head's removal count. *)

val kill : t -> int -> unit
(** Crash-stop replica [i]. Killing the head promotes the next live
    replica. At least one replica must survive. *)

val queries_served : t -> int
(** Total across live replicas. *)
