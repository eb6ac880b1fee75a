(** Multi-version property graph elements (paper §2.1, §4.2).

    Weaver never overwrites graph data in place: every write marks the
    affected vertex, edge, or property with the refinable timestamp of the
    writing transaction. A deletion stores the deleting timestamp next to
    the object instead of removing it. Node programs then read the version
    of the graph {e as of} their own timestamp, so long-running analyses see
    a consistent snapshot while writes proceed (§2.3), and historical
    queries can target any past timestamp.

    Vertex values here are {b immutable}: every update returns a new vertex
    record. Shard servers keep a [vertex_id → vertex] table of latest
    values, and the backing store persists the same records, so crash
    recovery is plain re-read. Sharing between store and shard is safe
    because nothing mutates.

    Timestamp comparisons are delegated to a [before] decision procedure
    supplied by the caller: vector-clock comparison where it decides, the
    timeline oracle where the stamps are concurrent. *)

type stamp = Weaver_vclock.Vclock.t

type before = stamp -> stamp -> bool
(** [before a b]: did [a] happen strictly before [b]? Must be a strict
    partial order that is total on every pair it is actually asked about. *)

type lifespan = { created : stamp; deleted : stamp option }

type prop = { pkey : string; pval : string; p_life : lifespan }

type edge = {
  eid : string;  (** cluster-unique edge handle *)
  dst : string;  (** destination vertex id *)
  e_life : lifespan;
  e_props : prop array;  (** all versions, newest first *)
}

type vertex = {
  vid : string;
  v_life : lifespan;
  v_props : prop array;  (** all versions, newest first *)
  out : edge array;  (** all edge versions rooted here, newest first *)
}
(** Version sets are flat immutable arrays (newest first), not lists:
    reads walk a contiguous block, and updates — which are pure, like
    before — copy the array. Treat the arrays as read-only; mutating one
    in place would corrupt every shard table, store version, and snapshot
    sharing the record. *)

val alive : before -> lifespan -> at:stamp -> bool
(** Is an object with this lifespan visible at time [at]? True iff the
    creation is at or before [at] and no deletion is at or before [at].
    A stamp equal to [at] counts as visible (a transaction sees its own
    writes; a program at the commit stamp sees the commit). *)

(** {1 Construction and update}

    All update functions are pure; [~at] is the writing transaction's
    refinable timestamp. They do not validate against double-creation or
    missing targets — the backing-store transaction has already done that
    (paper §4.2). *)

val create_vertex : vid:string -> at:stamp -> vertex
val delete_vertex : vertex -> at:stamp -> vertex

val add_edge : vertex -> eid:string -> dst:string -> at:stamp -> vertex
val delete_edge : vertex -> eid:string -> at:stamp -> vertex
(** Marks every live version of [eid] deleted at [at]. *)

val set_vertex_prop : before -> vertex -> key:string -> value:string -> at:stamp -> vertex
(** Closes any prior live version of [key] (visible at [at]) and prepends a
    new version. *)

val del_vertex_prop : before -> vertex -> key:string -> at:stamp -> vertex

val set_edge_prop : before -> vertex -> eid:string -> key:string -> value:string -> at:stamp -> vertex
val del_edge_prop : before -> vertex -> eid:string -> key:string -> at:stamp -> vertex

(** {1 Snapshot reads} *)

val vertex_alive : before -> vertex -> at:stamp -> bool

val out_edges : before -> vertex -> at:stamp -> edge list
(** Edge versions visible at [at]. *)

val vertex_props : before -> vertex -> at:stamp -> (string * string) list
(** Visible key/value pairs (at most one version per key if writers used
    {!set_vertex_prop}). *)

val edge_props : before -> edge -> at:stamp -> (string * string) list

val edge_has_prop : before -> edge -> key:string -> ?value:string -> at:stamp -> unit -> bool
(** Does the edge carry a visible property [key] (with [value], if given)?
    The predicate used by node programs like the BFS of paper Fig. 3. *)

val degree : before -> vertex -> at:stamp -> int

(** {1 Garbage collection (paper §4.5)} *)

val compact : before -> vertex -> watermark:stamp -> vertex option
(** Drop every version whose deletion stamp is strictly before the
    watermark (no ongoing or future operation can see it). Returns [None]
    if the vertex itself is gone. Pass the timestamp of the oldest
    operation still in progress. Returns [Some v] with [v] itself ([==])
    when nothing is below the watermark, and shares every kept edge that
    loses no property version. *)

val has_closed : vertex -> bool
(** Does any lifespan of the vertex, its properties, its edges or their
    properties carry a deletion stamp? Only such a vertex can lose
    versions to {!compact}: without one, [compact] returns its argument
    at every watermark. *)

val pp_vertex : Format.formatter -> vertex -> unit
