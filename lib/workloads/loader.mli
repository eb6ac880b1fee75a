(** Loading graphs into a Weaver cluster.

    Two paths:
    - {!bulk_load} drives everything through real client transactions with
      pipelining — the honest path, used by examples and correctness tests;
    - {!fast_install} writes the vertex records and shard tables directly
      at virtual time 0, standing in for the offline dataset import the
      paper performs before each experiment. Benchmarks use it so
      measurement windows contain only workload traffic. *)

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
(** Install the graph as of the zero timestamp: backing-store records
    and resident shard copies (respecting shard capacity when demand
    paging is on). Only what cannot be derived is stored: one ["v/"] key
    per vertex, a ["dir/"] key only for a vertex placed off its hashed
    home, and no ["lu/"] key (an absent directory key means the hashed
    home, an absent last-update key the zero stamp). Vertex [i] gets
    handle [i] when the cluster has numbered no vertex yet. Edge [i] of
    every vertex is named [pre_<i>], one string shared by all of them. One
    bulk store load ({!Weaver_store.Store.load}) writes every key, then
    every shard re-reads its partition
    ({!Weaver_core.Cluster.reload_shards}). *)

val install_vertex :
  Weaver_core.Cluster.t ->
  vid:string ->
  ?shard:int ->
  ?props:(string * string) list ->
  edges:(string * (string * string) list) list ->
  unit ->
  unit
(** [fast_install] for one vertex, as one bulk store load of its record,
    plus its ["dir/"] key when [shard] differs from where the directory
    places it: [edges] are [(dst, edge_props)], edge [i] named [pre_<i>].
    Shards are not reloaded; call
    {!Weaver_core.Cluster.reload_shards} after the last vertex. Used by
    application-specific installers (e.g. the blockchain builder). [shard]
    overrides the hashed placement. *)

val fast_install_with_assignment :
  Weaver_core.Cluster.t -> Weaver_partition.Partition.assignment -> Graphgen.t -> unit
(** {!fast_install} with an explicit vertex → shard assignment (vertices
    missing from the assignment fall back to hashing). *)
