(** Whole-graph analytics on a live cluster.

    The offline systems the paper compares against (Pregel, GraphLab, …)
    run computations over every vertex. Weaver expresses the same analyses
    as node programs; this module drives one over the {e entire} graph in
    batches of start vertices, merging the partial results with the
    program's own [merge] — while transactions keep committing underneath,
    which the offline systems cannot do. *)

val all_vertices : Weaver_core.Cluster.t -> string list
(** Ids of every vertex with a live durable record, from the backing
    store. *)

val run_all :
  Weaver_core.Cluster.t ->
  Weaver_core.Client.t ->
  prog:string ->
  params:Weaver_core.Progval.t ->
  ?batch:int ->
  ?consistency:[ `Strong | `Weak ] ->
  ?at:Weaver_vclock.Vclock.t ->
  unit ->
  (Weaver_core.Progval.t, string) result
(** Run [prog] with every live vertex as a start, [batch] (default 256)
    starts per node-program invocation, merging partial results. Each batch
    is itself a consistent snapshot; batches may see different snapshots
    (the price of an online full-graph scan — Kineograph-style systems have
    the same property) — unless [at] pins every batch to one historical
    timestamp, which makes the whole scan one consistent cut (and, once
    [at] is below the shards' cut, served from the durable store without
    waiting on concurrent writers; DESIGN §12). *)
