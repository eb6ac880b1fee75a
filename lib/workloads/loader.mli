(** Loading graphs into a Weaver cluster.

    Two paths:
    - {!bulk_load} drives everything through real client transactions with
      pipelining — the honest path, used by examples and correctness tests;
    - {!fast_install} writes the vertex records, directory entries, and
      shard tables directly at virtual time 0, standing in for the offline
      dataset import the paper performs before each experiment. Benchmarks
      use it so measurement windows contain only workload traffic. *)

val bulk_load :
  Weaver_core.Cluster.t ->
  Weaver_core.Client.t ->
  ?batch:int ->
  ?pipeline:int ->
  Graphgen.t ->
  (int, string) result
(** Create all vertices then all edges in batched transactions ([batch] ops
    per transaction, default 64; [pipeline] transactions in flight, default
    16). Returns the number of transactions committed, or the first
    error. *)

val fast_install : Weaver_core.Cluster.t -> Graphgen.t -> unit
(** Install the graph as of the zero timestamp: backing-store records,
    directory entries, last-update stamps, and resident shard copies
    (respecting shard capacity when demand paging is on). One bulk store
    load ({!Weaver_store.Store.load}) writes every key, then every shard
    re-reads its partition ({!Weaver_core.Cluster.reload_shards}). *)

val install_vertex :
  Weaver_core.Cluster.t ->
  vid:string ->
  ?shard:int ->
  ?props:(string * string) list ->
  edges:(string * (string * string) list) list ->
  unit ->
  unit
(** [fast_install] for one vertex, as one bulk store load of its three
    keys: [edges] are [(dst, edge_props)]. Shards are not reloaded; call
    {!Weaver_core.Cluster.reload_shards} after the last vertex. Used by
    application-specific installers (e.g. the blockchain builder). [shard]
    overrides the hashed placement. *)

val fast_install_with_assignment :
  Weaver_core.Cluster.t -> Weaver_partition.Partition.assignment -> Graphgen.t -> unit
(** {!fast_install} with an explicit vertex → shard assignment (vertices
    missing from the assignment fall back to hashing). *)
