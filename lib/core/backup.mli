(** Offline backup and restore of a deployment's durable state.

    Weaver's only persistent state is the backing store (paper §4.3):
    vertex records, last-update stamps, and the vertex → shard directory.
    [dump] serializes all of it to a self-contained binary string using the
    {!Weaver_graph.Codec} format; [restore] loads a dump into a {e fresh}
    cluster (before any traffic) and makes the shards resident — disaster
    recovery, cluster cloning, and environment migration in one primitive.

    Timestamps inside a dump keep their epochs and clock values, so
    historical queries keep working on the restored deployment. *)

val dump : Cluster.t -> string
(** Serialize every live backing-store binding. *)

val restore : Cluster.t -> string -> unit
(** Load a dump into this cluster's backing store, as one bulk load
    ({!Weaver_store.Store.load}), and reload every shard's partition. The
    cluster must have the same number of gatekeepers as the one that
    produced the dump (timestamps carry clock dimensions) and an empty
    store.
    @raise Weaver_util.Wire.Reader.Corrupt on malformed input.
    @raise Invalid_argument on a dimension mismatch, or when the store
    already holds a key (a restore never overwrites data). *)
