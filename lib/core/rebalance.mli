(** Dynamic graph re-partitioning (paper §4.6).

    "Weaver leverages [locality] by dynamically colocating a vertex with
    the majority of its neighbors, using streaming graph partitioning
    algorithms [58, 48], to reduce communication overhead during query
    processing."

    {!run} snapshots the live adjacency from the backing store, computes a
    fresh LDG assignment of it (one streaming pass in store-key order; the
    current placement plays no part), and migrates every vertex whose
    shard differs from its target, in that order, through the ordinary
    migration path (each move is an ordered, OCC-validated operation —
    queries racing the rebalance stay correct). A pass from hash placement
    therefore moves most vertices.

    As in the paper's evaluation, the headline benches run with this
    disabled; the partitioning ablation exercises it. *)

type report = {
  examined : int;  (** vertices considered *)
  moved : int;  (** migrations performed *)
  edge_cut_before : float;
  edge_cut_after : float;  (** against the new directory *)
}

val run : Cluster.t -> Client.t -> ?max_moves:int -> unit -> report
(** One rebalancing pass: at most [max_moves] migrations (default 128),
    the first misplaced vertices in store-key order. A migration that
    fails (a racing writer) is skipped. Drives the simulation 10 ms after
    the last migration. *)

val current_assignment : Cluster.t -> Weaver_partition.Partition.assignment
(** The live vertex → shard directory, for inspection. *)
