(** Shared infrastructure of one simulated Weaver deployment: the event
    engine, the message network, the backing store, the timeline oracle,
    the program registry, and the cluster-wide counters that the benchmarks
    report. Gatekeeper and shard actors all hold a reference to one
    [Runtime.t]. *)

module Vclock = Weaver_vclock.Vclock

type stored =
  | Vrec of Weaver_graph.Mgraph.vertex  (** durable vertex record *)
  | Stamp of Vclock.t  (** last-update timestamp of a vertex (§4.2) *)
  | Dir of int  (** vertex → shard directory entry (§3.2) *)

type counters = {
  mutable tx_committed : int;
  mutable tx_aborted : int;  (** backing-store conflicts (client may retry) *)
  mutable tx_invalid : int;  (** semantic validation failures *)
  mutable progs_completed : int;
  mutable announce_msgs : int;  (** proactive coordination cost (Fig. 14) *)
  mutable nop_msgs : int;
  mutable shard_tx_msgs : int;
  mutable prog_batch_msgs : int;
  mutable oracle_consults : int;
      (** ordering requests that actually reached the timeline oracle —
          the reactive coordination cost (Fig. 14) *)
  mutable shard_oracle_consults : int;
      (** oracle round trips issued by shard event loops on concurrent
          conflicting queue heads — the denominator of the batching factor *)
  mutable shard_oracle_batched : int;
      (** conflict sets that joined an already-in-flight consult instead of
          issuing their own round trip (coalesced refinement); the batching
          factor is [1 + batched/consults] *)
  mutable vertices_read : int;  (** node-program vertex visits (Fig. 8) *)
  mutable page_ins : int;
  mutable evictions : int;
  mutable recoveries : int;
  mutable memo_hits : int;
  mutable memo_invalidations : int;  (** local write-set invalidations *)
  mutable memo_remote_invalidations : int;
      (** memo entries dropped because a *peer* gatekeeper's commit note
          reported an overlapping write set *)
  mutable migrations : int;  (** vertex relocations (§4.6) *)
  mutable dedup_hits : int;
      (** retried, already-committed transactions answered from the
          duplicate-suppression window instead of re-executing *)
  mutable dedup_dropped : int;
      (** duplicate submissions dropped because the original attempt was
          still in flight on the same gatekeeper *)
  mutable late_replies : int;
      (** replies that arrived after the client-side timeout had already
          resolved the request (server success and client-visible success
          diverge here) *)
  mutable client_retries : int;  (** retry attempts issued by clients *)
  mutable fault_events : int;  (** fault-plan actions executed *)
  mutable heartbeat_msgs : int;  (** heartbeats sent to the manager *)
  mutable credit_msgs : int;  (** flow-control credit returns (shard→gk) *)
  mutable shed_deadline : int;
      (** requests shed at admission: projected wait past the deadline
          budget ([Config.deadline_budget]) *)
  mutable shed_credit : int;
      (** requests shed at admission: a target shard's flow-control
          credits exhausted ([Config.shard_credits]) *)
  mutable pinned_reads : int;
      (** historical node-program batches served from the durable store,
          below the shard's cut (DESIGN §12) *)
  mutable rebal_rounds : int;
      (** live-rebalance planner rounds executed ([Config.enable_rebalance]) *)
  mutable rebal_moves : int;
      (** planner-issued vertex migrations that completed [Ok] *)
  mutable rebal_skipped : int;
      (** planner candidates passed over: stale sketch entries (vertex no
          longer on the overloaded shard), dead source/target shards, or
          moves that failed and were left for a later round *)
  mutable repl_updates : int;
      (** owner→follower streamed update messages carrying applied ops *)
  mutable repl_resyncs : int;
      (** full range seeds shipped to followers: the first sync after
          install, and recovery from an interrupted stream (credit
          exhaustion, a follower's restart, an epoch barrier) *)
  mutable repl_routed : int;
      (** node-program batches the gatekeepers routed to a covering
          follower instead of the owning shard *)
  mutable gc_compact_visits : int;
      (** vertices visited by shard multi-version GC rounds (§4.5): only
          those that may hold a closed version, not every resident one *)
  mutable stamp_inversions : int;
      (** [Shard_tx] arrivals at a shard whose stamp does not happen after
          the previous arrival from the same gatekeeper ({!Gate.arrive}) *)
}

type t = {
  cfg : Config.t;
  engine : Weaver_sim.Engine.t;
  net : Msg.t Weaver_sim.Net.t;
  store : stored Weaver_store.Store.t;
  oracle : Weaver_oracle.Oracle.t;
      (** the direct instance; when [oracle_chain] is set, go through the
          [oracle_*] facade functions instead *)
  oracle_chain : Weaver_oracle.Chain.t option;
      (** chain replication of the oracle (§3.4) when
          [Config.oracle_replicas > 1] *)
  registry : Nodeprog.registry;
  counters : counters;
  metrics : Weaver_obs.Metrics.t;
      (** uniform registry over every measurement: the legacy [counters]
          fields (as read-through gauges), network/store totals, and the
          per-phase latency reservoirs actors feed via {!observe} *)
  tracer : Weaver_obs.Trace.t option;
      (** per-request span/message collector; [Some] iff
          [Config.enable_tracing] *)
  timeline : Weaver_obs.Timeline.t option;
      (** ring-buffered registry samples taken every
          [Config.timeline_period] µs; [Some] iff [Config.enable_timeline].
          Sampling only reads state, so outcomes are unaffected *)
  slowlog : Weaver_obs.Slowlog.t;
      (** top-K slowest client requests, always on; entries gain per-phase
          breakdowns when tracing is enabled *)
  heat : Weaver_obs.Heat.t option;
      (** per-shard heavy-hitter sketches + per-range decayed load
          accumulators; [Some] iff [Config.enable_heat]. Touch recording
          is pure bookkeeping, so outcomes are unaffected *)
  names : Weaver_util.Intern.t;
      (** the one vertex numbering of the cluster, shared by every
          server, by [Msg.Prog_batch] items and by every table keyed by
          vertex handle. Handles are dense and append-only, so a handle
          stays the same for the cluster's whole life and indexes arrays
          directly *)
  mutable dir : int array;
      (** the directory by handle: the shard of every numbered vertex.
          A committed ["dir/"] key gives it; a vertex with none sits at
          its hashed home, stored with a flag bit so {!directory} lists
          committed keys only. Numbering a vid ({!vertex_handle}) places
          it at its hashed home, and the store's apply hook
          ({!Weaver_store.Store.on_apply}) keeps the committed entries
          exact through creates, migrations, restores and aborted commits.
          Read it through {!shard_of_handle}; the store stays
          authoritative for transactional reads *)
  mutable partitions : (int * (int * Weaver_graph.Mgraph.vertex) list array) option;
      (** the last {!records_by_shard} result and the
          {!Weaver_store.Store.commits} count it was computed at *)
  mutable profiler : Weaver_obs.Prof.t option;
      (** handler CPU attribution, off by default; while [Some], every
          handler registered through {!register} is measured per actor
          kind and [Msg.kind], and every oracle order, query and serialize
          call per call kind under actor ["oracle"]. Measuring never
          perturbs the simulation *)
  mutable next_client : int;  (** bump via {!fresh_client_addr} only *)
}

(** Ordering-service facade: chain when configured, single instance
    otherwise. *)

val oracle_order :
  t -> first:Vclock.t -> second:Vclock.t -> Weaver_oracle.Oracle.decision

val oracle_serialize : t -> Vclock.t list -> Vclock.t list
val oracle_gc : t -> watermark:Vclock.t -> int
val oracle_queries_served : t -> int

val create : Config.t -> t

(** {1 Messaging}

    Shorthands for {!Weaver_sim.Net.send} and {!Weaver_sim.Net.register}
    on the runtime's network. *)

val send : t -> src:int -> dst:int -> Msg.t -> unit

val register : t -> int -> (src:int -> Msg.t -> unit) -> unit
(** Install the handler of an address. While {!profiler} is set, each
    delivery is charged to the address's actor kind ("gatekeeper",
    "shard", "replica", "manager" or "client") and the message's kind. *)

(** {1 Observability} *)

val observe : t -> string -> float -> unit
(** Add one sample to the named metrics reservoir (e.g.
    ["gk.admission_wait"]). Always on — recording never perturbs the
    simulation. *)

val reservoir : t -> string -> Weaver_util.Stats.t
(** The named reservoir, created on first use. Hot paths resolve it once
    and feed it with {!Weaver_util.Stats.add} instead of looking the name
    up per sample. *)

val trace_span :
  t ->
  trace:int ->
  name:string ->
  actor:string ->
  start:float ->
  stop:float ->
  ?meta:(string * string) list ->
  unit ->
  unit
(** Record a completed span against a request trace. No-op when tracing is
    disabled or [trace = 0]. *)

val tracing : t -> trace:int -> bool
(** [true] iff {!trace_span} would record for [trace]. Hot paths test it
    first so an untraced run never builds a span's actor name or
    metadata. *)

val obs_net_hook :
  t -> (time:float -> src:int -> dst:int -> Msg.t -> unit) option
(** The network tracer feeding the trace collector (installed by
    {!create}); exposed so debugging tracers can compose with it instead
    of replacing it. *)

(** {1 Address plan} — gatekeepers first, then shards, the manager, and
    finally dynamically allocated clients. *)

val slow_record :
  t -> trace:int -> kind:string -> start:float -> stop:float -> result:string -> unit
(** Record one resolved client request into the slow-request log, pulling
    the per-phase breakdown from the tracer when available. Called by the
    client layer on reply or timeout. *)

val heat_read : t -> shard:int -> string -> unit
(** Record one node-program vertex visit on [shard] into the heat layer;
    no-op when [Config.enable_heat] is off. O(1) pure bookkeeping. *)

val heat_write : t -> shard:int -> string -> unit
(** Record one applied write touching a vertex on [shard]. *)

val heat_cross : t -> string -> unit
(** Record one cross-shard transaction touch of a vertex, attributed to
    its owning shard; called by the gatekeeper when a commit fans out to
    more than one shard. *)

val gk_addr : t -> int -> int

val shard_addr : t -> int -> int
(** Address of shard server [i]. Servers [0 .. n_shards - 1] are the
    shards; with [Config.read_replicas = R], the §6.4 read replicas are
    follower-only shard servers numbered after them (see
    {!replica_server}). *)

val n_servers : t -> int
(** Shard servers, replicas included: [n_shards · (1 + read_replicas)]. *)

val replica_server : t -> shard:int -> replica:int -> int
(** Server index of read replica [replica] of [shard]:
    [n_shards + shard · read_replicas + replica]. *)

val home_shard : t -> int -> int
(** The shard a server belongs to: itself for a shard, the shard it
    replicates for a read replica. *)

val sibling : t -> int -> shard:int -> int
(** [sibling t server ~shard]: the server of [shard] in [server]'s place —
    [shard] itself from a shard, the same-index read replica of [shard]
    from a read replica. *)

val manager_addr : t -> int
val fresh_client_addr : t -> int

val actor_of_addr : t -> int -> string
(** Human name of the actor at an address ("gk0", "shard2",
    "replica1.0", "manager", "client3"), matching the actor names spans
    carry — the pid naming used by the Perfetto export. *)

(** {1 Vertex placement} *)

val vertex_handle : t -> string -> int
(** The vertex's handle in {!names}, interning it on first sight and
    then placing it at its hashed home in {!t.dir} (a committed ["dir/"]
    key overrides that). *)

val no_handle : int
(** The handle a [Msg.Prog_batch] item carries for a vid the cluster had
    not numbered when the run was routed; the shard looks the vid up
    again when it visits, without numbering it. *)

val vertex_name : t -> int -> string
(** The vid of a handle. *)

val shard_of_handle : t -> int -> int
(** Shard index owning a vertex: the directory entry if present, hashed
    placement otherwise (the mapping every server can compute for
    yet-unknown vertices). One array read for a numbered vertex, with or
    without a ["dir/"] key. *)

val shard_of_vertex : t -> string -> int
(** {!shard_of_handle} by vid; a vid never interned gets its hashed
    placement. *)

val directory : t -> (string * int) list
(** The committed directory's bindings, sorted by vid (tests): vertices
    at their hashed home without a ["dir/"] key are not listed. *)

val repl_range : t -> string -> int
(** Key range of a vertex for replication: the heat sensor's bucket
    ({!Weaver_obs.Heat.range_of}), computed without the sensor. *)

val standing_plan : t -> (int * int * int list) list
(** [(range, owner, followers)] for every range, the one rule that places
    followers: with [Config.read_replicas = R] each range is followed by
    the R read replicas of its home shard [o]; with
    [Config.replication_factor = k] by shards [o+1 … o+k mod n_shards].
    Empty when both are 0. *)

(** {1 Store keys} *)

val vkey : string -> string
(** Key of a vertex record. *)

val lukey : string -> string
(** Key of a last-update stamp. *)

val dirkey : string -> string
(** Key of a directory entry. *)

val vertex_records : t -> (string * Weaver_graph.Mgraph.vertex) list
(** Every durable vertex record with its vid, sorted by key. *)

val records_by_shard : t -> (int * Weaver_graph.Mgraph.vertex) list array
(** Every durable vertex record with its handle, split by the directory
    into per-shard lists in key order: what each shard server reloads.
    The result is reused, physically the same array, until the store
    takes its next commit or load ({!Weaver_store.Store.commits}), so an
    epoch barrier scans the store once, not once per server. *)

(** {1 Ordering decisions}

    [before t a b ~prefer_first_on_tie] decides whether [a] happened
    strictly before [b]: vector clocks first, then the timeline oracle,
    establishing [a ≺ b] when unordered iff [prefer_first_on_tie]
    (otherwise [b ≺ a]). Each oracle question counts one consult. The
    oracle's decisions are irrevocable, so no server keeps a copy: asking
    again gives the same answer. *)

val before : t -> Vclock.t -> Vclock.t -> prefer_first_on_tie:bool -> bool

val ordering : t -> Gate.order
(** The ordering interface of a shard's gate: vector clocks, the oracle's
    established order counted as a consult, and {!before}. *)

val stamp_min : Vclock.t -> Vclock.t -> Vclock.t
(** Pointwise lower bound of two timestamps (min epoch wins outright):
    anything strictly before the result is strictly before both inputs.
    Used to build GC watermarks (§4.5). *)
