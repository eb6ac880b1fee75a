(** Causal request tracing in virtual time.

    Every client-originated request (transaction, node program, migration)
    carries a trace id — its globally unique request id — through the
    message envelopes it spawns. Instrumented actors record {e spans}
    (named intervals of virtual time: gatekeeper admission wait, store
    round trips, shard queue wait, program execution) against that id, and
    a network tracer records each {e message} sent on its behalf. Together
    they reconstruct the request's life as a span tree plus a message
    ledger — the per-request latency breakdown and message counts that the
    paper's Figs. 9–13 aggregate.

    The collector retains the most recent [capacity] traces (older ones are
    evicted whole). It never schedules events: tracing cannot perturb the
    simulation. *)

type span = {
  sp_trace : int;
  sp_name : string;  (** e.g. ["gk.admission"], ["store.round_trip"] *)
  sp_actor : string;  (** e.g. ["gk0"], ["shard2"] *)
  sp_start : float;  (** virtual µs *)
  mutable sp_stop : float;  (** virtual µs; [nan] while still open *)
  mutable sp_meta : (string * string) list;
}

type t

val create : capacity:int -> t
(** Retain at most [capacity] traces. Raises [Invalid_argument] if
    [capacity <= 0]. *)

val span :
  t ->
  trace:int ->
  name:string ->
  actor:string ->
  start:float ->
  stop:float ->
  ?meta:(string * string) list ->
  unit ->
  unit
(** Record a completed span. Spans with [trace = 0] are discarded (0 marks
    untraced internal traffic such as NOPs). *)

val begin_span : t -> trace:int -> name:string -> actor:string -> start:float -> span
(** Open a span; complete it with {!finish}. The span is already attached
    to the trace, so a crash leaves it visible with [sp_stop = nan]. *)

val finish : span -> stop:float -> unit
val add_meta : span -> string -> string -> unit

val message : t -> trace:int -> time:float -> src:int -> dst:int -> kind:string -> unit
(** Record one network message attributed to [trace]. *)

val spans : t -> int -> span list
(** All spans of a trace, sorted by start time (ties: wider span first). *)

val messages : t -> int -> (float * int * int * string) list
(** [(time, src, dst, kind)] message events of a trace, oldest first. *)

val message_count : t -> int -> int

val trace_ids : t -> int list
(** Retained trace ids, oldest first. *)

(** {1 Span-tree assembly}

    Spans nest by interval containment: a span's parent is the innermost
    other span that fully contains it. Actors on different servers overlap
    rather than nest, so a typical transaction yields a forest such as
    [gk.admission; gk.tx [store.round_trip; store.round_trip];
    shard.queue ...]. *)

type tree = { node : span; children : tree list }

val assemble : t -> int -> tree list
(** The span forest of a trace, roots sorted by start time. *)

val render : t -> int -> string
(** Indented text rendering of the span forest plus the message ledger. *)
