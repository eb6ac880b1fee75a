(** Standard node programs (paper §2.3, §5, §6).

    These cover every query the paper's evaluation runs — the TAO-style
    vertex-local reads ([get_node], [get_edges], [count_edges]), the
    traversal workloads ([reachable], BFS variants), the local clustering
    coefficient of Fig. 13, and the CoinGraph block-render program of
    Figs. 7–8 — plus the taint-tracking and pattern-matching analyses the
    applications section describes.

    Parameters and results are {!Weaver_core.Progval} values; see each
    program's documentation for its schema. Register the whole set with
    {!Std.register_all} or individually via
    {!Weaver_core.Nodeprog.register} on {!Weaver_core.Cluster.registry}. *)

module Get_node : Weaver_core.Nodeprog.PROGRAM
(** ["get_node"] — read one vertex: params ignored; result is a [List] of
    [Assoc {vid; degree; props}] (one entry per live start vertex). *)

module Get_edges : Weaver_core.Nodeprog.PROGRAM
(** ["get_edges"] — result: [List] of [Assoc {eid; src; dst; props}] for
    every out-edge of the start vertices visible at the snapshot. *)

module Count_edges : Weaver_core.Nodeprog.PROGRAM
(** ["count_edges"] — result: [Int], total visible out-degree. *)

module Reachable : Weaver_core.Nodeprog.PROGRAM
(** ["reachable"] — BFS reachability (paper Fig. 3). Params:
    [Assoc {target : Str; prop : Str (optional edge-property filter)}].
    Result: [Bool]. *)

module Nhop_count : Weaver_core.Nodeprog.PROGRAM
(** ["nhop_count"] — count vertices within [depth] hops. Params:
    [Assoc {depth : Int}]. Result: [Int]. *)

module Hop_distance : Weaver_core.Nodeprog.PROGRAM
(** ["hop_distance"] — BFS hop distance. Params: [Assoc {target : Str}].
    Result: [Int] distance, or [Null] if unreachable. *)

module Clustering : Weaver_core.Nodeprog.PROGRAM
(** ["clustering"] — local clustering coefficient of the single start
    vertex (Fig. 13's workload): scatters to every neighbour, which counts
    links back into the neighbourhood. Result:
    [Assoc {k : Int; links : Int}]; the coefficient is
    [links / (k·(k−1))] for directed graphs. *)

module Block_render : Weaver_core.Nodeprog.PROGRAM
(** ["block_render"] — CoinGraph's block query (Fig. 7): visit a block
    vertex and every Bitcoin transaction it contains. Result: [List] whose
    head summarises the block and remaining entries summarise the
    transactions. *)

module Taint : Weaver_core.Nodeprog.PROGRAM
(** ["taint"] — forward taint tracking up to [depth] hops (CoinGraph flow
    analysis, §5.2). Params: [Assoc {depth : Int}]. Result: [List] of
    tainted vertex ids. *)

module Star_match : Weaver_core.Nodeprog.PROGRAM
(** ["star_match"] — match a star pattern: a centre whose property
    [ckey=cval] with a neighbour whose [nkey=nval] (RoboBrain subgraph
    query, §5.3). Params: [Assoc {ckey; cval; nkey; nval : Str}]. Result:
    [List] of [Assoc {center; nbr}] matches. *)

module Triangle_count : Weaver_core.Nodeprog.PROGRAM
(** ["triangle_count"] — number of directed triangles [v → n → m] with both
    [n] and [m] in the start vertex's out-neighbourhood. Result: [Int]. *)

module Khop_collect : Weaver_core.Nodeprog.PROGRAM
(** ["khop_collect"] — ids of every vertex within [depth] hops. Params:
    [Assoc {depth : Int}]. Result: [List] of [Str]. *)

module Degree_dist : Weaver_core.Nodeprog.PROGRAM
(** ["degree_dist"] — out-degree histogram over the start vertices.
    Result: [Assoc] mapping degree (as string) to count. *)

module History : Weaver_core.Nodeprog.PROGRAM
(** ["history"] — version archaeology on the raw multi-version record of
    each start vertex: creation stamp, liveness, and how many property and
    edge versions (live and dead) it carries. With GC disabled this is a
    complete audit trail (§4.5). *)

module Match_prop : Weaver_core.Nodeprog.PROGRAM
(** ["match_prop"] — select start vertices whose property [key] equals
    [value] at the snapshot. Params: [Assoc {key; value : Str}]. Result:
    [List] of matching ids. Combined with
    {!Weaver_workloads.Analytics.run_all} it is a full property scan. *)

module Std : sig
  val all : (module Weaver_core.Nodeprog.PROGRAM) list

  val register_all : Weaver_core.Nodeprog.registry -> unit
  (** Register every program above. *)
end
