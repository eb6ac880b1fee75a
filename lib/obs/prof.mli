(** Per-handler CPU attribution: time and minor-heap words spent inside
    each message handler, summed per (actor kind, message kind).

    The runtime wraps every handler dispatch in {!measure} while a
    profiler is attached. Measuring only reads a clock and the GC's
    allocation counter: it never schedules events, consumes randomness or
    sends messages, so a profiled run is bit-identical to an unprofiled
    one (test-enforced). Timers and other engine callbacks that are not
    message deliveries are not attributed, except for the timeline-oracle
    calls they make: the runtime's oracle facade charges every order,
    query and serialize call to an ["oracle"] row wherever it runs. *)

type t

type row = {
  actor : string;
      (** "gatekeeper", "shard", "replica", "manager", "client", or
          "oracle" for time inside the timeline oracle *)
  kind : string;
      (** [Msg.kind] of the delivered message; for the oracle, the call:
          "order", "query" or "serialize" *)
  calls : int;
  ns : int;  (** total clock time inside the handler *)
  minor_words : float;  (** total minor-heap words allocated inside it *)
}

val create : clock:(unit -> int) -> t
(** [clock] reads nanoseconds. On a single-threaded simulator a
    monotonic clock measures the handler's CPU time, plus any time the
    process spent preempted. *)

val measure : t -> actor:string -> kind:string -> (unit -> 'a) -> 'a
(** Run the handler and charge its time and allocation to
    [(actor, kind)]. A measurement nested inside another is charged to its
    own row only: the enclosing row gets its time less the nested one's,
    so {!total_ns} counts no time twice. An exception propagates
    uncharged. *)

val rows : t -> row list
(** Every (actor, kind) seen, by descending total time, then by name. *)

val total_ns : t -> int
(** Time summed over every row. *)
