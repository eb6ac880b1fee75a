open Weaver_core
module Mgraph = Weaver_graph.Mgraph

let list_concat a b =
  match (a, b) with
  | Progval.List x, Progval.List y -> Progval.List (x @ y)
  | Progval.List x, Progval.Null -> Progval.List x
  | Progval.Null, Progval.List y -> Progval.List y
  | _ -> invalid_arg "merge: expected lists"

let props_pv props = Progval.Assoc (List.map (fun (k, v) -> (k, Progval.Str v)) props)

module Get_node = struct
  let name = "get_node"
  let empty = Progval.List []

  let run ctx ~params:_ ~state:_ =
    let summary =
      Progval.Assoc
        [
          ("vid", Progval.Str ctx.Nodeprog.vid);
          ("degree", Progval.Int (Nodeprog.degree ctx));
          ("props", props_pv (Nodeprog.props ctx));
        ]
    in
    (None, [], Progval.List [ summary ])

  let merge = list_concat
end

module Get_edges = struct
  let name = "get_edges"
  let empty = Progval.List []

  let run ctx ~params:_ ~state:_ =
    let edges =
      List.map
        (fun (e : Mgraph.edge) ->
          Progval.Assoc
            [
              ("eid", Progval.Str e.Mgraph.eid);
              ("src", Progval.Str ctx.Nodeprog.vid);
              ("dst", Progval.Str e.Mgraph.dst);
              ("props", props_pv (Nodeprog.edge_props ctx e));
            ])
        (Nodeprog.out_edges ctx)
    in
    (None, [], Progval.List edges)

  let merge = list_concat
end

module Count_edges = struct
  let name = "count_edges"
  let empty = Progval.Int 0

  let run ctx ~params:_ ~state:_ = (None, [], Progval.Int (Nodeprog.degree ctx))

  let merge a b = Progval.Int (Progval.to_int a + Progval.to_int b)
end

module Reachable = struct
  let name = "reachable"
  let empty = Progval.Bool false

  let run ctx ~params ~state =
    match state with
    | Some _ -> (state, [], Progval.Bool false) (* already visited *)
    | None ->
        let target = Progval.to_str (Progval.assoc "target" params) in
        if String.equal ctx.Nodeprog.vid target then
          (Some (Progval.Bool true), [], Progval.Bool true)
        else begin
          let edge_filter e =
            match Progval.assoc_opt "prop" params with
            | Some (Progval.Str key) -> Nodeprog.edge_has_prop ctx e ~key ()
            | _ -> true
          in
          let hops =
            List.filter_map
              (fun (e : Mgraph.edge) ->
                if edge_filter e then Some (e.Mgraph.dst, params) else None)
              (Nodeprog.out_edges ctx)
          in
          (Some (Progval.Bool true), hops, Progval.Bool false)
        end

  let merge a b = Progval.Bool (Progval.to_bool a || Progval.to_bool b)
end

module Nhop_count = struct
  let name = "nhop_count"
  let empty = Progval.Int 0

  (* state = deepest remaining budget seen; revisit only with more budget.
     Every hop of one visit shares one params value. *)
  let run ctx ~params ~state =
    let depth = Progval.to_int (Progval.assoc "depth" params) in
    let seen_depth = match state with Some (Progval.Int d) -> Some d | _ -> None in
    let first_visit = seen_depth = None in
    if (match seen_depth with Some d -> depth <= d | None -> false) then
      (state, [], Progval.Int 0)
    else begin
      let hops =
        if depth > 0 then
          let params' = Progval.Assoc [ ("depth", Progval.Int (depth - 1)) ] in
          List.map (fun (e : Mgraph.edge) -> (e.Mgraph.dst, params')) (Nodeprog.out_edges ctx)
        else []
      in
      (Some (Progval.Int depth), hops, Progval.Int (if first_visit then 1 else 0))
    end

  let merge a b = Progval.Int (Progval.to_int a + Progval.to_int b)
end

module Hop_distance = struct
  let name = "hop_distance"
  let empty = Progval.Null

  let run ctx ~params ~state =
    let target = Progval.to_str (Progval.assoc "target" params) in
    let dist =
      match Progval.assoc_opt "dist" params with
      | Some (Progval.Int d) -> d
      | _ -> 0
    in
    let best = match state with Some (Progval.Int d) -> Some d | _ -> None in
    if (match best with Some b -> dist >= b | None -> false) then
      (state, [], Progval.Null)
    else if String.equal ctx.Nodeprog.vid target then
      (Some (Progval.Int dist), [], Progval.Int dist)
    else begin
      let params' =
        Progval.Assoc [ ("target", Progval.Str target); ("dist", Progval.Int (dist + 1)) ]
      in
      let hops =
        List.map (fun (e : Mgraph.edge) -> (e.Mgraph.dst, params')) (Nodeprog.out_edges ctx)
      in
      (Some (Progval.Int dist), hops, Progval.Null)
    end

  let merge a b =
    match (a, b) with
    | Progval.Null, x | x, Progval.Null -> x
    | Progval.Int x, Progval.Int y -> Progval.Int (min x y)
    | _ -> invalid_arg "hop_distance merge"
end

module Clustering = struct
  let name = "clustering"
  let empty = Progval.Assoc [ ("k", Progval.Int 0); ("links", Progval.Int 0) ]

  (* phase 1 at the origin: scatter the neighbour set to every neighbour;
     phase 2 at a neighbour: count own out-edges landing in that set *)
  let run ctx ~params ~state:_ =
    match Progval.assoc_opt "nbrs" params with
    | None ->
        let nbrs =
          List.map (fun (e : Mgraph.edge) -> e.Mgraph.dst) (Nodeprog.out_edges ctx)
        in
        let params' =
          Progval.Assoc [ ("nbrs", Progval.List (List.map (fun d -> Progval.Str d) nbrs)) ]
        in
        let hops = List.map (fun d -> (d, params')) nbrs in
        ( None,
          hops,
          Progval.Assoc [ ("k", Progval.Int (List.length nbrs)); ("links", Progval.Int 0) ] )
    | Some (Progval.List nbrs) ->
        let nbr_set = List.map Progval.to_str nbrs in
        let links =
          List.length
            (List.filter
               (fun (e : Mgraph.edge) -> List.mem e.Mgraph.dst nbr_set)
               (Nodeprog.out_edges ctx))
        in
        ( None,
          [],
          Progval.Assoc [ ("k", Progval.Int 0); ("links", Progval.Int links) ] )
    | Some _ -> (None, [], empty)

  let merge a b =
    Progval.Assoc
      [
        ("k", Progval.Int (Progval.to_int (Progval.assoc "k" a) + Progval.to_int (Progval.assoc "k" b)));
        ( "links",
          Progval.Int
            (Progval.to_int (Progval.assoc "links" a)
            + Progval.to_int (Progval.assoc "links" b)) );
      ]
end

module Block_render = struct
  let name = "block_render"
  let empty = Progval.List []

  (* the block vertex links to its Bitcoin transactions with "tx" edges;
     each transaction vertex reports its attributes and output count *)
  let run ctx ~params ~state:_ =
    match Progval.assoc_opt "phase" params with
    | None ->
        let tx_edges =
          List.filter
            (fun e -> Nodeprog.edge_has_prop ctx e ~key:"type" ~value:"tx" ())
            (Nodeprog.out_edges ctx)
        in
        let hops =
          let params' = Progval.Assoc [ ("phase", Progval.Str "tx") ] in
          List.map (fun (e : Mgraph.edge) -> (e.Mgraph.dst, params')) tx_edges
        in
        let block_summary =
          Progval.Assoc
            [
              ("block", Progval.Str ctx.Nodeprog.vid);
              ("n_tx", Progval.Int (List.length tx_edges));
              ("props", props_pv (Nodeprog.props ctx));
            ]
        in
        (None, hops, Progval.List [ block_summary ])
    | Some _ ->
        let summary =
          Progval.Assoc
            [
              ("tx", Progval.Str ctx.Nodeprog.vid);
              ("outputs", Progval.Int (Nodeprog.degree ctx));
              ("props", props_pv (Nodeprog.props ctx));
            ]
        in
        (None, [], Progval.List [ summary ])

  let merge = list_concat
end

module Taint = struct
  let name = "taint"
  let empty = Progval.List []

  let run ctx ~params ~state =
    match state with
    | Some _ -> (state, [], Progval.List [])
    | None ->
        let depth = Progval.to_int (Progval.assoc "depth" params) in
        let hops =
          if depth > 0 then
            let params' = Progval.Assoc [ ("depth", Progval.Int (depth - 1)) ] in
            List.map (fun (e : Mgraph.edge) -> (e.Mgraph.dst, params')) (Nodeprog.out_edges ctx)
          else []
        in
        (Some (Progval.Bool true), hops, Progval.List [ Progval.Str ctx.Nodeprog.vid ])

  let merge = list_concat
end

module Star_match = struct
  let name = "star_match"
  let empty = Progval.List []

  let run ctx ~params ~state:_ =
    match Progval.assoc_opt "origin" params with
    | None ->
        let ckey = Progval.to_str (Progval.assoc "ckey" params) in
        let cval = Progval.to_str (Progval.assoc "cval" params) in
        if Nodeprog.prop ctx ckey = Some cval then begin
          let params' =
            Progval.Assoc
              (("origin", Progval.Str ctx.Nodeprog.vid)
              :: (match params with Progval.Assoc l -> l | _ -> []))
          in
          let hops =
            List.map
              (fun (e : Mgraph.edge) -> (e.Mgraph.dst, params'))
              (Nodeprog.out_edges ctx)
          in
          (None, hops, Progval.List [])
        end
        else (None, [], Progval.List [])
    | Some origin ->
        let nkey = Progval.to_str (Progval.assoc "nkey" params) in
        let nval = Progval.to_str (Progval.assoc "nval" params) in
        if Nodeprog.prop ctx nkey = Some nval then
          ( None,
            [],
            Progval.List
              [
                Progval.Assoc
                  [ ("center", origin); ("nbr", Progval.Str ctx.Nodeprog.vid) ];
              ] )
        else (None, [], Progval.List [])

  let merge = list_concat
end

module Triangle_count = struct
  let name = "triangle_count"
  let empty = Progval.Int 0

  (* directed triangles through the start vertex v: for each neighbour n of
     v, count n's out-edges that land back in v's neighbourhood (phase 2),
     like Clustering but counting closed wedges v -> n -> m with m in N(v) *)
  let run ctx ~params ~state:_ =
    match Progval.assoc_opt "nbrs" params with
    | None ->
        let nbrs =
          List.map (fun (e : Mgraph.edge) -> e.Mgraph.dst) (Nodeprog.out_edges ctx)
        in
        let params' =
          Progval.Assoc [ ("nbrs", Progval.List (List.map (fun d -> Progval.Str d) nbrs)) ]
        in
        (None, List.map (fun d -> (d, params')) nbrs, Progval.Int 0)
    | Some (Progval.List nbrs) ->
        let nbr_set = List.map Progval.to_str nbrs in
        let closed =
          List.length
            (List.filter
               (fun (e : Mgraph.edge) -> List.mem e.Mgraph.dst nbr_set)
               (Nodeprog.out_edges ctx))
        in
        (None, [], Progval.Int closed)
    | Some _ -> (None, [], empty)

  let merge a b = Progval.Int (Progval.to_int a + Progval.to_int b)
end

module Khop_collect = struct
  let name = "khop_collect"
  let empty = Progval.List []

  (* collect the ids of every vertex within [depth] hops (the
     n-hop-neighbourhood query RoboBrain-style apps use) *)
  let run ctx ~params ~state =
    let depth = Progval.to_int (Progval.assoc "depth" params) in
    let seen = match state with Some (Progval.Int d) -> Some d | _ -> None in
    let first = seen = None in
    if (match seen with Some d -> depth <= d | None -> false) then
      (state, [], Progval.List [])
    else begin
      let hops =
        if depth > 0 then
          let params' = Progval.Assoc [ ("depth", Progval.Int (depth - 1)) ] in
          List.map (fun (e : Mgraph.edge) -> (e.Mgraph.dst, params')) (Nodeprog.out_edges ctx)
        else []
      in
      ( Some (Progval.Int depth),
        hops,
        if first then Progval.List [ Progval.Str ctx.Nodeprog.vid ] else Progval.List [] )
    end

  let merge = list_concat
end

module Degree_dist = struct
  let name = "degree_dist"
  let empty = Progval.Assoc []

  (* histogram of out-degrees over the start vertices: Assoc degree->count *)
  let run ctx ~params:_ ~state:_ =
    let d = string_of_int (Nodeprog.degree ctx) in
    (None, [], Progval.Assoc [ (d, Progval.Int 1) ])

  let merge a b =
    let al = match a with Progval.Assoc l -> l | _ -> [] in
    let bl = match b with Progval.Assoc l -> l | _ -> [] in
    let keys = List.sort_uniq compare (List.map fst al @ List.map fst bl) in
    Progval.Assoc
      (List.map
         (fun k ->
           let get l = match List.assoc_opt k l with Some v -> Progval.to_int v | None -> 0 in
           (k, Progval.Int (get al + get bl)))
         keys)
end

module History = struct
  let name = "history"
  let empty = Progval.List []

  (* version archaeology on the multi-version record (§4.5's "keep
     everything" GC policy makes this a full audit trail): for each start
     vertex report how many property/edge versions exist, how many are
     dead, and the creation stamp *)
  let run ctx ~params:_ ~state:_ =
    let v = ctx.Nodeprog.vertex in
    let count pred a = Array.fold_left (fun n x -> if pred x then n + 1 else n) 0 a in
    let dead_props =
      count (fun (p : Mgraph.prop) -> p.Mgraph.p_life.Mgraph.deleted <> None) v.Mgraph.v_props
    in
    let dead_edges =
      count (fun (e : Mgraph.edge) -> e.Mgraph.e_life.Mgraph.deleted <> None) v.Mgraph.out
    in
    let summary =
      Progval.Assoc
        [
          ("vid", Progval.Str v.Mgraph.vid);
          ("created", Progval.Str (Weaver_vclock.Vclock.to_string v.Mgraph.v_life.Mgraph.created));
          ("alive", Progval.Bool (v.Mgraph.v_life.Mgraph.deleted = None));
          ("prop_versions", Progval.Int (Array.length v.Mgraph.v_props));
          ("dead_prop_versions", Progval.Int dead_props);
          ("edge_versions", Progval.Int (Array.length v.Mgraph.out));
          ("dead_edge_versions", Progval.Int dead_edges);
        ]
    in
    (None, [], Progval.List [ summary ])

  let merge = list_concat
end

module Match_prop = struct
  let name = "match_prop"
  let empty = Progval.List []

  (* vertex-property selection: return the ids of start vertices carrying
     key=value at the snapshot; with Analytics.run_all this is a full
     property scan (graph databases' "find all users named X") *)
  let run ctx ~params ~state:_ =
    let key = Progval.to_str (Progval.assoc "key" params) in
    let value = Progval.to_str (Progval.assoc "value" params) in
    if Nodeprog.prop ctx key = Some value then
      (None, [], Progval.List [ Progval.Str ctx.Nodeprog.vid ])
    else (None, [], Progval.List [])

  let merge = list_concat
end

module Std = struct
  let all : (module Nodeprog.PROGRAM) list =
    [
      (module Get_node);
      (module Get_edges);
      (module Count_edges);
      (module Reachable);
      (module Nhop_count);
      (module Hop_distance);
      (module Clustering);
      (module Block_render);
      (module Taint);
      (module Star_match);
      (module Triangle_count);
      (module Khop_collect);
      (module Degree_dist);
      (module History);
      (module Match_prop);
    ]

  let register_all registry = List.iter (Nodeprog.register registry) all
end
