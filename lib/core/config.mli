(** Deployment configuration for a simulated Weaver cluster. *)

type t = {
  n_gatekeepers : int;  (** timeline-coordinator gatekeeper servers (≥1) *)
  n_shards : int;  (** shard servers holding graph partitions (≥1) *)
  tau : float;
      (** vector-clock announce period in µs (paper §3.3); the proactive
          half of the refinable-timestamp tradeoff, swept in Fig. 14 *)
  nop_period : float;
      (** period of NOP transactions from gatekeepers to shards, bounding
          node-program delay (§4.2); the paper uses 10 µs — the simulation
          default is 100 µs to keep event counts manageable *)
  net_base_latency : float;  (** one-way message latency, µs *)
  net_jitter : float;  (** uniform extra latency, µs *)
  store_op_cost : float;
      (** backing-store cost per key accessed in a transaction, µs *)
  gk_op_cost : float;
      (** gatekeeper CPU time to admit one client request (timestamping,
          dispatch), µs; gatekeepers serve requests serially, so this is
          what makes them the bottleneck for vertex-local reads and lets
          throughput scale with added gatekeepers (Fig. 12) *)
  vertex_read_cost : float;
      (** shard-side cost to read one vertex in a node program, µs *)
  vertex_write_cost : float;  (** shard-side cost to apply one write, µs *)
  heartbeat_period : float;  (** µs between server heartbeats *)
  failure_timeout : float;  (** µs without heartbeat before declared dead *)
  gc_period : float;
      (** µs between GC watermark rounds; 0 disables GC. A full round also
          sets each shard's cut, below which historical reads are served
          from the durable store (DESIGN §12); with 0 they are all gated
          against the live graph *)
  enable_memoization : bool;
      (** node-program result caching with write invalidation (§4.6);
          disabled in the headline benches, as in the paper *)
  shard_capacity : int option;
      (** max vertices resident in shard memory; [Some n] enables demand
          paging from the backing store (§6.1), [None] = unbounded *)
  page_in_cost : float;  (** µs to demand-page one vertex from the store *)
  read_replicas : int;
      (** read-only replicas per shard (paper §6.4, "similar to TAO"):
          follower-only shard servers that follow every range of their
          shard on the partial-replication stream; weak node programs
          rotate over a range's owner and its covering replicas and read
          one consistent cut, up to about one [gc_period] stale, in
          exchange for extra read capacity. Requires [gc_period > 0] *)
  adaptive_tau : bool;
      (** dynamic clock-synchronization period (§3.5): each gatekeeper
          adjusts its announce period to the observed request rate —
          quiescent systems announce rarely, busy ones often — seeking the
          Fig. 14 sweet spot automatically; [tau] is the starting value *)
  oracle_replicas : int;
      (** chain-replication factor of the timeline oracle (§3.4: "chain
          replicated for fault tolerance"); 1 = a single instance *)
  enable_tracing : bool;
      (** per-request causal tracing: thread trace ids through message
          envelopes and record span trees (admission wait, store round
          trips, shard queue wait) plus per-request message ledgers in the
          {!Weaver_obs.Trace} collector. Off by default: tracing records
          state but never schedules events, yet retaining span data costs
          memory, so benches opt in explicitly *)
  trace_capacity : int;
      (** traces retained by the collector before whole-trace eviction *)
  enable_timeline : bool;
      (** periodic sampling of every registry counter/gauge into
          ring-buffered {!Weaver_obs.Timeline} series. The sampler is a
          plain periodic engine event that only reads state — it never
          consumes randomness or reorders other events, so enabling it
          leaves commit/abort/message counts bit-identical (pinned by a
          determinism test). The ring keeps the newest 4096 samples. Off
          by default: retaining samples costs memory and sampling costs
          (real) time *)
  timeline_period : float;  (** µs between timeline samples *)
  slow_log_capacity : int;
      (** slowest client requests retained in the always-on slow-request
          log (with per-phase breakdowns when tracing is enabled) *)
  deadline_budget : float;
      (** overload management ({!Weaver_flow.Flow}): µs of projected
          admission-queue wait a client request may face before it is shed
          up front with an [Overloaded] reply — rejecting early beats
          letting the request time out downstream after consuming
          resources. The wait is the gatekeeper's [busy_until - now], so
          this one bound also caps the queue depth (a bound of [L]
          requests at op cost [c] is a budget of [(L-1)·c]). 0.0 (the
          default) disables shedding. Control traffic (NOPs, heartbeats,
          announces, commit notes) is never queued there and never shed *)
  shard_credits : int;
      (** credit-based gatekeeper→shard flow control: each gatekeeper holds
          this many send credits per shard, spends one per forwarded
          [Shard_tx], and gets them back as the shard applies them
          ([Msg.Credit]). A slow or latency-degraded shard drains its
          column and admission sheds writes bound for it instead of
          growing the FIFO without bound. NOPs ride for free (control
          class). 0 disables flow control *)
  enable_heat : bool;
      (** load-heat attribution ({!Weaver_obs.Heat}): per-shard
          Space-Saving top-K heavy-hitter sketches over vertex touches
          plus per-key-range exponentially-decayed read/write/cross-shard
          load accumulators, recorded from the shard apply/program paths
          and the gatekeeper fan-out. Recording is O(1) pure bookkeeping —
          no events, no RNG, no messages — so enabling it leaves the
          registry counter fingerprint bit-identical (pinned by a
          determinism test). The range count is the smallest multiple of
          [n_shards] at or above 64, so every range nests inside one home
          shard under hashed placement; accumulators decay with
          {!Weaver_obs.Heat.default_half_life}. Off by default: touch
          recording costs (real) time on every operation *)
  heat_topk : int;  (** sketch counters per shard (fixed memory, ≥ 1) *)
  enable_health : bool;
      (** cluster health watchdog ({!Weaver_obs.Health}): a periodic
          check over instruments that already exist — watermark stall,
          queue-depth growth, shed/credit-starvation rates, shard load
          skew, late replies — emitting edge-triggered severity-tagged
          alerts into a bounded ring shown by [Cluster.report]. The check
          only reads the registry snapshot, so it is fingerprint-invisible
          like the timeline sampler *)
  health_period : float;  (** µs between health checks *)
  enable_rebalance : bool;
      (** heat-driven live rebalancing ({!Balancer}): a periodic
          cluster-owned planner reads the {!Weaver_obs.Heat} shard loads
          and top-K sketches, picks hot vertices on shards loaded beyond
          the {!Balancer.hysteresis} band, and executes a bounded batch of moves per
          round through the ordinary OCC migrate path — no stop-the-world,
          failed moves simply retried by later rounds. Requires
          [enable_heat]. Off by default: when off, no planner client is
          created and no periodic event runs, so baseline runs are
          bit-identical *)
  rebalance_period : float;  (** µs between planner rounds *)
  rebalance_max_moves : int;
      (** max vertex migrations issued per planner round (bounds the
          background migration traffic a round may inject) *)
  replication_factor : int;
      (** timestamp-consistent partial replication ({!Weaver_repl.Repl},
          DESIGN §16) over the existing shards: with [k > 0] every key
          range is followed by the [k] shards after its home shard
          ({!Runtime.standing_plan}). Owners stream applied updates to
          followers over ordinary [Net] channels and stamp them with their
          gossiped GC watermarks; gatekeepers then route weak and pinned
          reads at stamp [t] over the owner and the live followers whose
          replication watermark covers [t], while all writes stay on the
          owner. [0] (the default) is off: the plan is empty and no
          message is added. Requires [k < n_shards], [gc_period > 0] and
          [read_replicas = 0] *)
  seed : int;  (** master RNG seed; runs are deterministic per seed *)
}

val default : t
(** 2 gatekeepers, 4 shards, τ = 1000 µs, NOPs every 100 µs, datacenter-like
    latencies, GC every 50 ms, no memoization, no paging. *)

val validate : t -> unit
(** @raise Invalid_argument on nonsensical settings. *)
