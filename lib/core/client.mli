(** Client sessions — the public face of the database (paper §2.2, §2.3).

    A client buffers graph updates inside a transaction block and submits
    them as a batch to a gatekeeper ({!Tx}), and invokes node programs over
    start vertices ({!run_program}). Both come in asynchronous
    (callback-based, for closed-loop benchmark drivers) and synchronous
    (engine-driving, for examples and tests) flavours.

    Synchronous calls advance the simulation until the reply arrives, so
    they must not be nested inside another actor's handler. *)

type t

(** Unified retry policy for all three request paths — transactions, node
    programs, and migrations. A request is attempted up to [rp_attempts]
    times; retryable failures ([timeout], [epoch-change], and [conflict]
    when [rp_retry_conflicts] is set) are resubmitted after an exponential
    backoff ([rp_backoff] µs base, doubling per attempt, capped at
    [rp_backoff_cap]) with deterministic jitter derived from the request
    id — no engine randomness is consumed, so retry timing never perturbs
    other random streams. [rp_deadline] bounds the total time across
    attempts. [rp_route_around] enables failure-aware gatekeeper selection:
    round-robin that skips gatekeepers whose last request timed out
    (suspicion expires after twice the client timeout, or on any reply).

    Transactions and migrations reuse one transaction id across attempts,
    so the gatekeepers' duplicate-suppression window answers a retry of a
    timed-out-but-committed submission with [Ok] instead of re-executing
    it. *)
type retry_policy = {
  rp_attempts : int;
  rp_backoff : float;
  rp_backoff_cap : float;
  rp_deadline : float option;
  rp_retry_conflicts : bool;
  rp_route_around : bool;
}

val default_policy : retry_policy
(** 4 attempts, no backoff, no deadline, no conflict retry, routing on —
    the historical behaviour of the node-program path, now applied
    uniformly. *)

val reliable_policy : retry_policy
(** 8 attempts, 2 ms exponential backoff capped at 100 ms, conflict retry
    and routing on — for clients that must ride out failures. *)

val no_retry_policy : retry_policy
(** Single attempt, no routing — the pre-reliability client, for tests
    that assert on raw failure behaviour. *)

val retryable : retry_policy -> string -> bool
(** Whether the policy resubmits after the given error string. [timeout]
    and [epoch-change] always; [conflict] iff [rp_retry_conflicts];
    overload rejections ([shed:queue] / [shed:deadline] / [shed:credit],
    from [Msg.Overloaded]) always — they were refused before consuming
    anything, and the retry backs off by at least a 2 ms floor (doubling,
    deterministically jittered) even under zero-backoff policies, which is
    what makes shedding an effective backpressure signal rather than a
    retry storm. *)

val create : Runtime.t -> t
(** New client with its own network address, connecting to gatekeepers
    round-robin under {!default_policy}. *)

val set_retry_policy : t -> retry_policy -> unit

val set_gatekeeper : t -> int option -> unit
(** Pin every subsequent request to one gatekeeper (bypassing round-robin
    and routing), or [None] to unpin. Tests use this to target a specific
    gatekeeper's memo table. *)

val addr : t -> int

val last_request_id : t -> int
(** Id of this client's most recently issued request (transaction, node
    program, or migration). Request ids double as trace ids, so this is
    the key to the request's spans in {!Weaver_obs.Trace} (0 before the
    first request). *)

(** Transaction blocks (paper Fig. 2). *)
module Tx : sig
  type tx

  val begin_ : t -> tx

  val create_vertex : tx -> ?id:string -> unit -> string
  (** Buffer a vertex creation; returns its handle (auto-generated unless
      [id] is given). *)

  val delete_vertex : tx -> string -> unit

  val create_edge : tx -> src:string -> dst:string -> string
  (** Buffer an edge creation; returns the edge handle. *)

  val delete_edge : tx -> src:string -> eid:string -> unit
  val set_vertex_prop : tx -> vid:string -> key:string -> value:string -> unit
  val del_vertex_prop : tx -> vid:string -> key:string -> unit
  val set_edge_prop : tx -> src:string -> eid:string -> key:string -> value:string -> unit
  val del_edge_prop : tx -> src:string -> eid:string -> key:string -> unit

  val read_vertex : tx -> string -> unit
  (** Declare an optimistic read dependency: commit fails if the vertex is
      concurrently modified. *)

  val op_count : tx -> int
end

val commit_async : t -> Tx.tx -> on_result:((unit, string) result -> unit) -> unit
(** Submit the batch to a gatekeeper under the session's retry policy. The
    callback fires exactly once, with the last attempt's error (e.g.
    [Error "timeout"]) once retries are exhausted. *)

val commit : t -> Tx.tx -> (unit, string) result
(** Synchronous {!commit_async}: drives the simulation until the reply. *)

val run_program_async :
  t ->
  prog:string ->
  params:Progval.t ->
  starts:string list ->
  ?at:Runtime.Vclock.t ->
  ?consistency:[ `Strong | `Weak ] ->
  on_result:((Progval.t, string) result -> unit) ->
  unit ->
  unit
(** Invoke a registered node program. [?at] targets a past snapshot
    (historical query on the multi-version graph); omit it for "now".
    [?consistency] defaults to [`Strong] (strictly serializable, on the
    primaries); [`Weak] may route to follower copies (the §6.4 read
    replicas, [replication_factor] followers) and then reads one
    consistent cut up to about one [Config.gc_period] old — lower load on primaries, but
    reads may miss recently committed writes. Retries transparently on gatekeeper
    failure (programs are read-only). *)

val run_program :
  t ->
  prog:string ->
  params:Progval.t ->
  starts:string list ->
  ?at:Runtime.Vclock.t ->
  ?consistency:[ `Strong | `Weak ] ->
  unit ->
  (Progval.t, string) result
(** Synchronous {!run_program_async}. *)

val set_timeout : t -> float -> unit
(** Reply timeout in virtual µs (default 3 s). *)

val commit_with_reads :
  t -> Tx.tx -> ((string * Progval.t) list, string) result
(** Like {!commit}, additionally returning one [(vid, summary)] pair per
    {!Tx.read_vertex} operation, read inside the same atomic store
    transaction. A summary is [Assoc {vid; degree; out; props}], or [Null]
    if the vertex does not exist. *)

val migrate_async :
  t -> vid:string -> to_shard:int -> on_result:((unit, string) result -> unit) -> unit
(** Relocate a vertex to another shard (dynamic colocation, §4.6). The
    move is serialized like a transaction: the directory entry changes
    atomically, and subsequent operations — including ones racing the
    move — route to the new owner. *)

val migrate : t -> vid:string -> to_shard:int -> (unit, string) result
(** Synchronous {!migrate_async}. *)

val commit_with_retry : ?attempts:int -> t -> Tx.tx -> (unit, string) result
(** {!commit} under the session policy widened to also resubmit on OCC
    [conflict] aborts (the retry loop §4.2 prescribes — a fresh submission
    gets a fresh, higher timestamp) and to allow at least [attempts] tries
    (default 5); other errors are returned as-is. *)
