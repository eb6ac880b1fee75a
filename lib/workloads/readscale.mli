(** Read-scale workload for partial replication (DESIGN §16): a pool of
    closed-loop weak readers picking vertices Zipf-skewed (a few hot
    ranges saturate their owners) races a pool of closed-loop
    property writers picking vertices uniformly (keeping every owner's
    update stream busy). Read goodput — completed weak reads per second of
    virtual time — is the metric replication factor is supposed to move;
    write throughput is the one it must not. *)

type result = {
  reads_ok : int;  (** weak reads completed inside the window *)
  reads_err : int;  (** weak reads that exhausted retries (timeouts) *)
  writes_ok : int;
  writes_err : int;
  duration : float;  (** measurement window, µs *)
  read_goodput : float;  (** completed weak reads per second *)
  write_throughput : float;  (** committed writes per second *)
  read_latencies : Weaver_util.Stats.t;
  write_latencies : Weaver_util.Stats.t;
}

val run :
  Weaver_core.Cluster.t ->
  vertices:string array ->
  readers:int ->
  writers:int ->
  duration:float ->
  ?theta:float ->
  ?warmup:float ->
  unit ->
  result
(** Drive the cluster for [warmup + duration] virtual µs; only operations
    completing after the warmup are counted. [theta] is the Zipf skew of
    the readers (default 0.9). Deterministic in the cluster's seed. *)
