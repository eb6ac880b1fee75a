type t = {
  n_gatekeepers : int;
  n_shards : int;
  tau : float;
  nop_period : float;
  net_base_latency : float;
  net_jitter : float;
  store_op_cost : float;
  gk_op_cost : float;
  vertex_read_cost : float;
  vertex_write_cost : float;
  heartbeat_period : float;
  failure_timeout : float;
  gc_period : float;
  enable_memoization : bool;
  shard_capacity : int option;
  page_in_cost : float;
  read_replicas : int;
  adaptive_tau : bool;
  oracle_replicas : int;
  enable_tracing : bool;
  trace_capacity : int;
  enable_timeline : bool;
  timeline_period : float;
  slow_log_capacity : int;
  deadline_budget : float;
  shard_credits : int;
  enable_heat : bool;
  heat_topk : int;
  enable_health : bool;
  health_period : float;
  enable_rebalance : bool;
  rebalance_period : float;
  rebalance_max_moves : int;
  replication_factor : int;
  seed : int;
}

let default =
  {
    n_gatekeepers = 2;
    n_shards = 4;
    tau = 1_000.0;
    nop_period = 100.0;
    net_base_latency = 50.0;
    net_jitter = 20.0;
    store_op_cost = 30.0;
    gk_op_cost = 20.0;
    vertex_read_cost = 1.0;
    vertex_write_cost = 2.0;
    heartbeat_period = 20_000.0;
    failure_timeout = 100_000.0;
    gc_period = 50_000.0;
    enable_memoization = false;
    shard_capacity = None;
    page_in_cost = 150.0;
    read_replicas = 0;
    adaptive_tau = false;
    oracle_replicas = 1;
    enable_tracing = false;
    trace_capacity = 1024;
    enable_timeline = false;
    timeline_period = 10_000.0;
    slow_log_capacity = 32;
    deadline_budget = 0.0;
    shard_credits = 0;
    enable_heat = false;
    heat_topk = 8;
    enable_health = false;
    health_period = 10_000.0;
    enable_rebalance = false;
    rebalance_period = 25_000.0;
    rebalance_max_moves = 8;
    replication_factor = 0;
    seed = 42;
  }

let validate t =
  let req name ok = if not ok then invalid_arg ("Config: bad " ^ name) in
  req "n_gatekeepers" (t.n_gatekeepers >= 1);
  req "n_shards" (t.n_shards >= 1);
  req "tau" (t.tau > 0.0);
  req "nop_period" (t.nop_period > 0.0);
  req "net_base_latency" (t.net_base_latency >= 0.0);
  req "net_jitter" (t.net_jitter >= 0.0);
  req "store_op_cost" (t.store_op_cost >= 0.0);
  req "gk_op_cost" (t.gk_op_cost >= 0.0);
  req "vertex_read_cost" (t.vertex_read_cost >= 0.0);
  req "vertex_write_cost" (t.vertex_write_cost >= 0.0);
  req "heartbeat_period" (t.heartbeat_period > 0.0);
  req "failure_timeout" (t.failure_timeout > t.heartbeat_period);
  req "gc_period" (t.gc_period >= 0.0);
  req "shard_capacity" (match t.shard_capacity with Some n -> n > 0 | None -> true);
  req "page_in_cost" (t.page_in_cost >= 0.0);
  req "read_replicas" (t.read_replicas >= 0);
  req "oracle_replicas" (t.oracle_replicas >= 1);
  req "trace_capacity" (t.trace_capacity >= 1);
  req "timeline_period" (t.timeline_period > 0.0);
  req "slow_log_capacity" (t.slow_log_capacity >= 1);
  req "deadline_budget" (t.deadline_budget >= 0.0);
  req "shard_credits" (t.shard_credits >= 0);
  req "heat_topk" (t.heat_topk >= 1);
  req "health_period" (t.health_period > 0.0);
  req "rebalance_period" (t.rebalance_period > 0.0);
  req "rebalance_max_moves" (t.rebalance_max_moves >= 1);
  (* the planner is sense -> plan -> act: without the heat sensor there is
     nothing to plan from *)
  req "enable_rebalance (requires enable_heat)"
    ((not t.enable_rebalance) || t.enable_heat);
  req "replication_factor" (t.replication_factor >= 0 && t.replication_factor < t.n_shards);
  (* followers advertise coverage at watermark boundaries, which only
     exist while the GC gossip timer runs *)
  req "replication_factor (requires gc_period > 0)"
    (t.replication_factor = 0 || t.gc_period > 0.0);
  (* one placement rule at a time: read replicas already follow every
     range of their shard *)
  req "replication_factor (excludes read_replicas)"
    (t.replication_factor = 0 || t.read_replicas = 0);
  (* read replicas are followers on the same stream *)
  req "read_replicas (requires gc_period > 0)" (t.read_replicas = 0 || t.gc_period > 0.0)
