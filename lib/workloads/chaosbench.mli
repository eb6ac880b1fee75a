(** Chaos benchmark: a TAO-style read/write mix driven through a rolling
    crash/restart fault plan, measuring windowed availability, tail
    latency, and time-to-recover — with the client reliability layer
    (retries, backoff, failure-aware routing, duplicate suppression)
    either on or off, so the two runs quantify what the layer buys.

    The cluster-manager failure detector is disabled (by an effectively
    infinite [failure_timeout]): the fault plan's restarts revive servers
    in place, so the availability difference between the two runs is
    attributable to the client policy alone, not to replacement servers.

    Everything is deterministic in [co_seed]: the same options produce an
    identical {!to_json} document. *)

type opts = {
  co_seed : int;
  co_gatekeepers : int;
  co_shards : int;
  co_clients : int;  (** closed-loop client sessions *)
  co_duration : float;  (** measured run, virtual µs *)
  co_window : float;  (** availability window, virtual µs *)
  co_timeout : float;  (** client reply timeout, virtual µs *)
  co_reliable : bool;
      (** [true] → {!Weaver_core.Client.reliable_policy}; [false] → the
          pre-reliability single-attempt client *)
  co_read_fraction : float;
}

val default_opts : opts
(** seed 42, 3 gatekeepers, 4 shards, 12 clients, 1 s duration, 50 ms
    windows, 60 ms timeout, 80% reads, reliability on. *)

type window = {
  w_start : float;  (** window start, µs from measurement start *)
  w_ok : int;
  w_err : int;
}

type result = {
  r_reliable : bool;
  r_seed : int;
  r_windows : window list;  (** oldest first *)
  r_total_ok : int;
  r_total_err : int;
  r_availability : float;  (** total_ok / (total_ok + total_err) *)
  r_p50 : float;  (** latency of successful requests, µs (incl. retries) *)
  r_p99 : float;
  r_recovery_time : float option;
      (** µs from the plan's last restart to the start of the first
          subsequent window with ≥95% availability; [None] if the run
          never recovered (or ended first) *)
  r_retries : int;
  r_dedup_hits : int;
  r_late_replies : int;
  r_fault_events : int;
}

val plan_of : opts -> base:float -> Weaver_sim.Fault.plan
(** The fault schedule the benchmark installs, anchored at virtual time
    [base]: an early cluster-wide latency spike (slow-but-alive servers
    exercise timeout/duplicate-suppression paths), then rolling
    crash/restarts over the gatekeepers and a shard (exposed for tests
    and documentation). *)

val run : opts -> result

val to_json : result -> Weaver_util.Json.t
(** Canonical JSON tree (stable field order, floats rounded to fixed
    decimals) — identical across runs with equal options. *)
