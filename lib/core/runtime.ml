module Vclock = Weaver_vclock.Vclock
module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Store = Weaver_store.Store
module Oracle = Weaver_oracle.Oracle
module Chain = Weaver_oracle.Chain
module Mgraph = Weaver_graph.Mgraph
module Partition = Weaver_partition.Partition
module Metrics = Weaver_obs.Metrics
module Trace = Weaver_obs.Trace
module Timeline = Weaver_obs.Timeline
module Slowlog = Weaver_obs.Slowlog
module Heat = Weaver_obs.Heat
module Prof = Weaver_obs.Prof
module Intern = Weaver_util.Intern

type stored = Vrec of Mgraph.vertex | Stamp of Vclock.t | Dir of int

type counters = {
  mutable tx_committed : int;
  mutable tx_aborted : int;
  mutable tx_invalid : int;
  mutable progs_completed : int;
  mutable announce_msgs : int;
  mutable nop_msgs : int;
  mutable shard_tx_msgs : int;
  mutable prog_batch_msgs : int;
  mutable oracle_consults : int;
  mutable shard_oracle_consults : int;
  mutable shard_oracle_batched : int;
  mutable vertices_read : int;
  mutable page_ins : int;
  mutable evictions : int;
  mutable recoveries : int;
  mutable memo_hits : int;
  mutable memo_invalidations : int;
  mutable memo_remote_invalidations : int;
  mutable migrations : int;
  mutable dedup_hits : int;
  mutable dedup_dropped : int;
  mutable late_replies : int;
  mutable client_retries : int;
  mutable fault_events : int;
  mutable heartbeat_msgs : int;
  mutable credit_msgs : int;
  mutable shed_deadline : int;
  mutable shed_credit : int;
  mutable pinned_reads : int;
  mutable rebal_rounds : int;
  mutable rebal_moves : int;
  mutable rebal_skipped : int;
  mutable repl_updates : int;
  mutable repl_resyncs : int;
  mutable repl_routed : int;
  mutable gc_compact_visits : int;
  mutable stamp_inversions : int;
}

type t = {
  cfg : Config.t;
  engine : Engine.t;
  net : Msg.t Net.t;
  store : stored Store.t;
  oracle : Oracle.t;  (* direct instance when [oracle_chain] is [None] *)
  oracle_chain : Chain.t option;  (* chain replication (§3.4) when > 1 *)
  registry : Nodeprog.registry;
  counters : counters;
  metrics : Metrics.t;
  tracer : Trace.t option;  (* Some iff [Config.enable_tracing] *)
  timeline : Timeline.t option;  (* Some iff [Config.enable_timeline] *)
  slowlog : Slowlog.t;  (* always on; phases only when tracing is on *)
  heat : Heat.t option;  (* Some iff [Config.enable_heat] *)
  names : Intern.t;  (* the one vertex numbering of the cluster *)
  mutable dir : int array;
      (* by handle: the shard of every numbered vertex, with the [home]
         bit set where no "dir/" key is committed (the hashed home); -1 in
         slots no handle has reached. Kept exact by the store's apply hook,
         so the store stays authoritative and this array only saves the
         key build, the probe of the whole store and the hash *)
  mutable partitions : (int * (int * Mgraph.vertex) list array) option;
      (* [records_by_shard] and the [Store.commits] it was computed at *)
  mutable profiler : Prof.t option;  (* handler attribution, default off *)
  mutable next_client : int;
}

(* the ordering service facade: a chain when configured, else the single
   instance; answers and commitments are identical either way. While a
   profiler is attached, each call is charged to an "oracle" row (and left
   out of the handler that made it). *)
let order_direct t ~first ~second =
  match t.oracle_chain with
  | Some chain -> Chain.order chain ~first ~second
  | None -> Oracle.order t.oracle ~first ~second

let query_direct t a b =
  match t.oracle_chain with
  | Some chain -> Chain.query chain a b
  | None -> Oracle.query t.oracle a b

let serialize_direct t events =
  match t.oracle_chain with
  | Some chain -> Chain.serialize chain events
  | None -> Oracle.serialize t.oracle events

let oracle_order t ~first ~second =
  match t.profiler with
  | None -> order_direct t ~first ~second
  | Some p ->
      Prof.measure p ~actor:"oracle" ~kind:"order" (fun () -> order_direct t ~first ~second)

let oracle_query t a b =
  match t.profiler with
  | None -> query_direct t a b
  | Some p -> Prof.measure p ~actor:"oracle" ~kind:"query" (fun () -> query_direct t a b)

let oracle_serialize t events =
  match t.profiler with
  | None -> serialize_direct t events
  | Some p ->
      Prof.measure p ~actor:"oracle" ~kind:"serialize" (fun () -> serialize_direct t events)

let oracle_gc t ~watermark =
  match t.oracle_chain with
  | Some chain -> Chain.gc chain ~watermark
  | None -> Oracle.gc t.oracle ~watermark

let oracle_queries_served t =
  match t.oracle_chain with
  | Some chain -> Chain.queries_served chain
  | None -> Oracle.queries_served t.oracle

(* Every legacy [counters] field surfaces in the metrics registry as a
   read-through gauge, so the registry is the one uniform interface over
   all measurements without rewriting the existing increment sites. *)
let register_counter_gauges metrics (c : counters) =
  let g name f = Metrics.gauge metrics name f in
  g "tx.committed" (fun () -> c.tx_committed);
  g "tx.aborted" (fun () -> c.tx_aborted);
  g "tx.invalid" (fun () -> c.tx_invalid);
  g "prog.completed" (fun () -> c.progs_completed);
  g "msg.announce" (fun () -> c.announce_msgs);
  g "msg.nop" (fun () -> c.nop_msgs);
  g "msg.shard_tx" (fun () -> c.shard_tx_msgs);
  g "msg.prog_batch" (fun () -> c.prog_batch_msgs);
  g "oracle.consults" (fun () -> c.oracle_consults);
  g "shard.oracle_consults" (fun () -> c.shard_oracle_consults);
  g "shard.oracle_batched" (fun () -> c.shard_oracle_batched);
  g "prog.vertices_read" (fun () -> c.vertices_read);
  g "paging.page_ins" (fun () -> c.page_ins);
  g "paging.evictions" (fun () -> c.evictions);
  g "cluster.recoveries" (fun () -> c.recoveries);
  g "memo.hits" (fun () -> c.memo_hits);
  g "memo.invalidations" (fun () -> c.memo_invalidations);
  g "memo.remote_invalidations" (fun () -> c.memo_remote_invalidations);
  g "cluster.migrations" (fun () -> c.migrations);
  g "tx.dedup_hits" (fun () -> c.dedup_hits);
  g "tx.dedup_dropped" (fun () -> c.dedup_dropped);
  g "client.late_replies" (fun () -> c.late_replies);
  g "client.retries" (fun () -> c.client_retries);
  g "fault.events" (fun () -> c.fault_events);
  g "msg.heartbeat" (fun () -> c.heartbeat_msgs);
  g "flow.credit_msgs" (fun () -> c.credit_msgs);
  g "flow.shed_deadline" (fun () -> c.shed_deadline);
  g "flow.shed_credit" (fun () -> c.shed_credit);
  g "prog.pinned_reads" (fun () -> c.pinned_reads);
  g "rebal.rounds" (fun () -> c.rebal_rounds);
  g "rebal.moves" (fun () -> c.rebal_moves);
  g "rebal.skipped" (fun () -> c.rebal_skipped);
  g "repl.updates" (fun () -> c.repl_updates);
  g "repl.resyncs" (fun () -> c.repl_resyncs);
  g "repl.routed" (fun () -> c.repl_routed);
  g "gc.compact_visits" (fun () -> c.gc_compact_visits);
  g "shard.stamp_inversions" (fun () -> c.stamp_inversions)

(* the network tracer that feeds the causal trace collector: attribute
   every wire message to its request's trace id *)
let obs_net_hook t =
  match t.tracer with
  | None -> None
  | Some tr ->
      Some
        (fun ~time ~src ~dst msg ->
          match Msg.trace_of msg with
          | Some trace -> Trace.message tr ~trace ~time ~src ~dst ~kind:(Msg.kind msg)
          | None -> ())

(* Samples a timeline keeps before its ring overwrites the oldest. *)
let timeline_slots = 4096

(* §6.4 read replicas are follower-only shard servers: with
   [Config.read_replicas = R], replica [r] of shard [s] is server
   [n_shards + s·R + r], addressed like any shard *)
let n_servers t = t.cfg.Config.n_shards * (1 + t.cfg.Config.read_replicas)

let replica_server t ~shard ~replica =
  t.cfg.Config.n_shards + (shard * t.cfg.Config.read_replicas) + replica

let home_shard t server =
  let n = t.cfg.Config.n_shards in
  if server < n then server else (server - n) / t.cfg.Config.read_replicas

let sibling t server ~shard =
  let n = t.cfg.Config.n_shards in
  if server < n then shard
  else replica_server t ~shard ~replica:((server - n) mod t.cfg.Config.read_replicas)

(* Key-range heat buckets: the smallest multiple of the shard count at or
   above 64, so every range nests inside exactly one home shard under
   hashed placement (see [Heat.home_shard]). *)
let heat_range_count ~shards = (64 + shards - 1) / shards * shards

let repl_range t vid =
  Weaver_util.Fnv.hash vid mod heat_range_count ~shards:t.cfg.Config.n_shards

(* The one follower-placement rule (DESIGN §16). Every range is
   installed when anything follows: with read replicas, the replicas of
   the range's home shard; with [replication_factor = k], the k shards
   after it. Ranges nest in home shards because the range count is a
   multiple of the shard count, so [range mod n_shards] is the shard that
   hashed placement puts the range's vertices on. *)
let standing_plan t =
  let n = t.cfg.Config.n_shards
  and r = t.cfg.Config.read_replicas
  and k = t.cfg.Config.replication_factor in
  let follow owner =
    if r > 0 then List.init r (fun replica -> replica_server t ~shard:owner ~replica)
    else List.init k (fun i -> (owner + 1 + i) mod n)
  in
  if r = 0 && k = 0 then []
  else
    List.init (heat_range_count ~shards:n) (fun range ->
        let owner = range mod n in
        (range, owner, follow owner))

(* [dir] flag of a vertex placed at its hashed home without a committed
   "dir/" key: absent keys mean the hashed home, so a preload writes a key
   only for a vertex placed elsewhere (DESIGN §18) *)
let home = 1 lsl 30

let hashed t vid = Partition.hash_vertex ~shards:t.cfg.Config.n_shards vid

let place t h s =
  let len = Array.length t.dir in
  if h >= len then begin
    let dir = Array.make (max (2 * len) (h + 1)) (-1) in
    Array.blit t.dir 0 dir 0 len;
    t.dir <- dir
  end;
  t.dir.(h) <- s

let create cfg =
  Config.validate cfg;
  let engine = Engine.create ~seed:cfg.Config.seed () in
  let latency =
    Net.uniform_latency ~base:cfg.Config.net_base_latency ~jitter:cfg.Config.net_jitter
  in
  let metrics = Metrics.create () in
  let t =
    {
      cfg;
      engine;
      net = Net.create engine ~latency;
      store = Store.create ();
      oracle = Oracle.create ();
      oracle_chain =
        (if cfg.Config.oracle_replicas > 1 then
           Some (Chain.create ~replicas:cfg.Config.oracle_replicas ())
         else None);
      registry = Nodeprog.create_registry ();
      counters =
        {
          tx_committed = 0;
          tx_aborted = 0;
          tx_invalid = 0;
          progs_completed = 0;
          announce_msgs = 0;
          nop_msgs = 0;
          shard_tx_msgs = 0;
          prog_batch_msgs = 0;
          oracle_consults = 0;
          shard_oracle_consults = 0;
          shard_oracle_batched = 0;
          vertices_read = 0;
          page_ins = 0;
          evictions = 0;
          recoveries = 0;
          memo_hits = 0;
          memo_invalidations = 0;
          memo_remote_invalidations = 0;
          migrations = 0;
          dedup_hits = 0;
          dedup_dropped = 0;
          late_replies = 0;
          client_retries = 0;
          fault_events = 0;
          heartbeat_msgs = 0;
          credit_msgs = 0;
          shed_deadline = 0;
          shed_credit = 0;
          pinned_reads = 0;
          rebal_rounds = 0;
          rebal_moves = 0;
          rebal_skipped = 0;
          repl_updates = 0;
          repl_resyncs = 0;
          repl_routed = 0;
          gc_compact_visits = 0;
          stamp_inversions = 0;
        };
      metrics;
      tracer =
        (if cfg.Config.enable_tracing then
           Some (Trace.create ~capacity:cfg.Config.trace_capacity)
         else None);
      timeline =
        (if cfg.Config.enable_timeline then
           Some (Timeline.create ~capacity:timeline_slots)
         else None);
      slowlog = Slowlog.create ~capacity:cfg.Config.slow_log_capacity;
      heat =
        (if cfg.Config.enable_heat then
           Some
             (Heat.create ~shards:cfg.Config.n_shards ~k:cfg.Config.heat_topk
                ~ranges:(heat_range_count ~shards:cfg.Config.n_shards)
                ~half_life:Heat.default_half_life)
         else None);
      names = Intern.create ~capacity:4096 ();
      dir = [||];
      partitions = None;
      profiler = None;
      next_client = 0;
    }
  in
  Store.on_apply t.store (fun key value ->
      if String.starts_with ~prefix:"dir/" key then
        let vid = String.sub key 4 (String.length key - 4) in
        place t (Intern.id t.names vid)
          (match value with Some (Dir s) -> s | _ -> home lor hashed t vid));
  register_counter_gauges metrics t.counters;
  (* per-shard cumulative touch totals; only present when heat is on, so
     a heat-off registry snapshot stays bit-identical to the pre-heat one *)
  (match t.heat with
  | Some h ->
      for s = 0 to cfg.Config.n_shards - 1 do
        List.iter
          (fun kind ->
            Metrics.gauge metrics
              (Printf.sprintf "heat.shard%d.%s" s (Heat.kind_name kind))
              (fun () -> Heat.total h ~shard:s ~kind))
          [ Heat.Read; Heat.Write; Heat.Cross ]
      done
  | None -> ());
  Metrics.gauge metrics "net.sent" (fun () -> Net.messages_sent t.net);
  Metrics.gauge metrics "net.delivered" (fun () -> Net.messages_delivered t.net);
  Metrics.gauge metrics "net.suppressed" (fun () -> Net.messages_suppressed t.net);
  Metrics.gauge metrics "net.dropped" (fun () -> Net.messages_dropped t.net);
  Metrics.gauge metrics "store.keys" (fun () -> Store.length t.store);
  Metrics.gauge metrics "store.commits" (fun () -> Store.commits t.store);
  Metrics.gauge metrics "store.aborts" (fun () -> Store.aborts t.store);
  Metrics.gauge metrics "store.journal_tail" (fun () ->
      Store.journal_length t.store - Store.journal_folded t.store);
  Metrics.gauge metrics "store.journal_folded" (fun () -> Store.journal_folded t.store);
  Metrics.gauge metrics "net.in_flight" (fun () -> Net.in_flight t.net);
  Metrics.gauge metrics "net.in_flight_hwm" (fun () -> Net.in_flight_high_water t.net);
  Metrics.gauge metrics "net.channel_hwm" (fun () -> Net.channel_high_water t.net);
  Metrics.gauge metrics "engine.pending" (fun () -> Engine.pending engine);
  Metrics.gauge metrics "engine.pending_hwm" (fun () -> Engine.max_pending engine);
  Metrics.gauge metrics "engine.events" (fun () -> Engine.events_processed engine);
  Net.set_tracer t.net (obs_net_hook t);
  (* the timeline sampler: a periodic event that snapshots the registry.
     It only reads state — no sends, no RNG, no state mutation outside the
     ring buffer — so the simulation with sampling on is bit-identical to
     one without (see the determinism test) *)
  (match t.timeline with
  | Some tl ->
      Engine.every engine ~period:cfg.Config.timeline_period (fun () ->
          Timeline.record tl ~now:(Engine.now engine) (Metrics.int_values metrics);
          true)
  | None -> ());
  t

let send t ~src ~dst msg = Net.send t.net ~src ~dst msg

let observe t name v = Metrics.observe t.metrics name v
let reservoir t name = Metrics.reservoir t.metrics name

(* record a completed span against a trace; a no-op when tracing is off or
   the traffic is untraced (trace = 0) *)
let trace_span t ~trace ~name ~actor ~start ~stop ?meta () =
  match t.tracer with
  | Some tr when trace <> 0 -> Trace.span tr ~trace ~name ~actor ~start ~stop ?meta ()
  | _ -> ()

(* whether [trace_span] would record: hot paths test this first, so the
   actor name and the metadata list are never built for an untraced run *)
let tracing t ~trace = trace <> 0 && Option.is_some t.tracer

let gk_addr _t i = i
let shard_addr t j = t.cfg.Config.n_gatekeepers + j

let manager_addr t = t.cfg.Config.n_gatekeepers + n_servers t

let fresh_client_addr t =
  t.next_client <- t.next_client + 1;
  manager_addr t + t.next_client

let is_gk_addr t a = a >= 0 && a < t.cfg.Config.n_gatekeepers

(* invert the address plan; names match the actors' own span names
   ("gk0", "shard2") so exported flow events land on the same Perfetto
   processes as the spans those actors record *)
let actor_of_addr t a =
  let n_gk = t.cfg.Config.n_gatekeepers in
  let n_sh = t.cfg.Config.n_shards in
  let n_rep = t.cfg.Config.read_replicas in
  if a < 0 then "addr" ^ string_of_int a
  else if a < n_gk then "gk" ^ string_of_int a
  else if a < n_gk + n_sh then "shard" ^ string_of_int (a - n_gk)
  else if a < n_gk + n_servers t then begin
    let r = a - n_gk - n_sh in
    Printf.sprintf "replica%d.%d" (r / n_rep) (r mod n_rep)
  end
  else if a = manager_addr t then "manager"
  else "client" ^ string_of_int (a - manager_addr t)

let actor_kind t a =
  let n_gk = t.cfg.Config.n_gatekeepers in
  if is_gk_addr t a then "gatekeeper"
  else if a >= n_gk && a < n_gk + t.cfg.Config.n_shards then "shard"
  else if a >= n_gk && a < n_gk + n_servers t then "replica"
  else if a = manager_addr t then "manager"
  else "client"

(* while a profiler is attached, every delivery is charged to the
   receiving actor's kind and the message's kind *)
let register t addr handler =
  let actor = actor_kind t addr in
  Net.register t.net addr (fun ~src msg ->
      match t.profiler with
      | None -> handler ~src msg
      | Some p -> Prof.measure p ~actor ~kind:(Msg.kind msg) (fun () -> handler ~src msg))

(* record a resolved client request into the slow-request log; when tracing
   is on the entry carries the per-phase breakdown (durations summed per
   span name, descending). Pure bookkeeping: never schedules events. *)
let slow_record t ~trace ~kind ~start ~stop ~result =
  let phases =
    match t.tracer with
    | Some tr when trace <> 0 ->
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun sp ->
            let d =
              if Float.is_nan sp.Trace.sp_stop then 0.0
              else sp.Trace.sp_stop -. sp.Trace.sp_start
            in
            let prev =
              match Hashtbl.find_opt tbl sp.Trace.sp_name with
              | Some p -> p
              | None -> 0.0
            in
            Hashtbl.replace tbl sp.Trace.sp_name (prev +. d))
          (Trace.spans tr trace);
        Hashtbl.fold (fun name d acc -> (name, d) :: acc) tbl []
        |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    | _ -> []
  in
  Slowlog.record t.slowlog
    {
      Slowlog.e_trace = trace;
      e_kind = kind;
      e_start = start;
      e_stop = stop;
      e_result = result;
      e_phases = phases;
    }

let vkey vid = "v/" ^ vid
let lukey vid = "lu/" ^ vid
let dirkey vid = "dir/" ^ vid

let vertex_records t =
  List.filter_map
    (fun (key, value) ->
      match value with
      | Vrec v -> Some (String.sub key 2 (String.length key - 2), v)
      | _ -> None)
    (Store.scan_prefix t.store ~prefix:"v/")

let no_handle = -1

(* a vid numbered here is placed at its hashed home until a committed
   "dir/" key says otherwise *)
let vertex_handle t vid =
  let fresh = Intern.count t.names in
  let h = Intern.id t.names vid in
  if h = fresh then place t h (home lor hashed t vid);
  h

let vertex_name t h = Intern.name t.names h

(* inlined into the hop loop: a numbered vertex costs one bounds check and
   one array read *)
let[@inline] shard_of_handle t h =
  let dir = t.dir in
  if h < Array.length dir && dir.(h) >= 0 then dir.(h) land (home - 1)
  else hashed t (Intern.name t.names h)

let shard_of_vertex t vid =
  match Intern.find t.names vid with
  | Some h -> shard_of_handle t h
  | None -> hashed t vid

let directory t =
  let acc = ref [] in
  Array.iteri
    (fun h s -> if s >= 0 && s land home = 0 then acc := (Intern.name t.names h, s) :: !acc)
    t.dir;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(* every durable vertex record, split by the directory into per-shard
   lists in key order; one scan serves every server until the store takes
   its next write *)
let records_by_shard t =
  let commits = Store.commits t.store in
  match t.partitions with
  | Some (at, by_shard) when at = commits -> by_shard
  | _ ->
      let by_shard = Array.make t.cfg.Config.n_shards [] in
      List.iter
        (fun (vid, v) ->
          let h = vertex_handle t vid in
          let s = shard_of_handle t h in
          by_shard.(s) <- (h, v) :: by_shard.(s))
        (vertex_records t);
      let by_shard = Array.map List.rev by_shard in
      t.partitions <- Some (commits, by_shard);
      by_shard

(* heat touch recording: O(1) pure bookkeeping against the sketch and
   decay cells — never schedules events, consumes RNG, or sends messages —
   and a no-op when [Config.enable_heat] is off *)
let heat_read t ~shard vid =
  match t.heat with
  | Some h -> Heat.touch h ~shard ~kind:Heat.Read ~now:(Engine.now t.engine) vid
  | None -> ()

let heat_write t ~shard vid =
  match t.heat with
  | Some h -> Heat.touch h ~shard ~kind:Heat.Write ~now:(Engine.now t.engine) vid
  | None -> ()

(* a cross-shard transaction touch, attributed to the vertex's owning
   shard; recorded at the gatekeeper when a commit fans out to more than
   one shard *)
let heat_cross t vid =
  match t.heat with
  | Some h ->
      Heat.touch h ~shard:(shard_of_vertex t vid) ~kind:Heat.Cross
        ~now:(Engine.now t.engine) vid
  | None -> ()

(* a ≺ b where vector clocks decide it: not for a concurrent pair, nor
   for equal clocks from two origins. [before] spells the same match out:
   it runs on every version a read filters. *)
let before_by_clock a b =
  match Vclock.compare_hb a b with
  | Vclock.Before -> Some true
  | Vclock.After -> Some false
  | Vclock.Equal when a.Vclock.origin = b.Vclock.origin -> Some false
  | Vclock.Equal | Vclock.Concurrent -> None

(* Decide a ≺ b. Vector clocks answer most pairs for free (the proactive
   stage); concurrent pairs go to the timeline oracle (the reactive stage,
   counted as a consult), whose decisions are irrevocable, so asking again
   always gives the same answer. *)
let before t a b ~prefer_first_on_tie =
  match Vclock.compare_hb a b with
  | Vclock.Before -> true
  | Vclock.After -> false
  | Vclock.Equal when a.Vclock.origin = b.Vclock.origin -> false
  | Vclock.Equal | Vclock.Concurrent -> (
      t.counters.oracle_consults <- t.counters.oracle_consults + 1;
      let first, second = if prefer_first_on_tie then (a, b) else (b, a) in
      match oracle_order t ~first ~second with
      | Oracle.First_first -> prefer_first_on_tie
      | Oracle.Second_first -> not prefer_first_on_tie)

let stamp_min a b =
  let open Vclock in
  if a.epoch <> b.epoch then if a.epoch < b.epoch then a else b
  else begin
    let n = Array.length a.clocks in
    let clocks = Array.init n (fun i -> min a.clocks.(i) b.clocks.(i)) in
    make ~epoch:a.epoch ~origin:a.origin clocks
  end

(* The gate's ordering interface: clocks, the oracle's established order
   (a consult), and the full decision. *)
let ordering t =
  {
    Gate.clock = before_by_clock;
    established =
      (fun a b ->
        t.counters.oracle_consults <- t.counters.oracle_consults + 1;
        Option.map (fun o -> o = Oracle.First_first) (oracle_query t a b));
    before = before t;
  }
