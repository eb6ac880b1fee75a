(* The reference model every reply is checked against.

   Reads are checked as they arrive: node-program answers must be well
   formed, a traversal must match a BFS over the generated edges, and a
   read of a vertex no write has targeted yet must match the generated
   adjacency exactly. Writes are checked once the run is quiet: every
   acknowledged edge create must be found, every acknowledged delete must
   have taken effect, and every (vertex, key) must hold the last value its
   writer saw acknowledged. *)

module Progval = Weaver.Progval

(* Vertices within [depth] hops of [start], start included — what
   [nhop_count] must return on a graph no write has touched. *)
let bfs_count (g : Gen.graph) ~start ~depth =
  let dist = Hashtbl.create 64 in
  Hashtbl.replace dist start 0;
  let frontier = ref [ start ] in
  for d = 1 to depth do
    let next = ref [] in
    List.iter
      (fun u ->
        Array.iter
          (fun v ->
            if not (Hashtbl.mem dist v) then begin
              Hashtbl.replace dist v d;
              next := v :: !next
            end)
          g.Gen.adj.(u))
      !frontier;
    frontier := !next
  done;
  Hashtbl.length dist

type read = Get_edges | Count_edges | Get_node | Nhop of int

let read_name = function
  | Get_edges -> "get_edges"
  | Count_edges -> "count_edges"
  | Get_node -> "get_node"
  | Nhop _ -> "nhop_count"

let read_params = function
  | Nhop depth -> Progval.Assoc [ ("depth", Progval.Int depth) ]
  | Get_edges | Count_edges | Get_node -> Progval.Null

let sorted_dsts (g : Gen.graph) v = List.sort compare (List.map Gen.vid (Array.to_list g.Gen.adj.(v)))

(* [untouched]: no write to [v]'s out-edges has been issued yet, so the
   generated adjacency is the only state a correct answer can show. *)
let check_read (g : Gen.graph) ~untouched kind ~vertex (r : Progval.t) =
  let me = Gen.vid vertex in
  let degree = Array.length g.Gen.adj.(vertex) in
  let bad what = Error (Printf.sprintf "%s %s: %s in %s" (read_name kind) me what (Progval.to_string r)) in
  match (kind, r) with
  | Get_edges, Progval.List entries -> (
      let parse = function
        | Progval.Assoc _ as e -> (
            match (Progval.assoc "src" e, Progval.assoc "dst" e, Progval.assoc "eid" e) with
            | Progval.Str src, Progval.Str dst, Progval.Str _ when src = me -> Some dst
            | _ -> None)
        | _ -> None
      in
      let dsts = List.map parse entries in
      if List.mem None dsts then bad "malformed edge"
      else
        match untouched with
        | false -> Ok ()
        | true ->
            if List.sort compare (List.filter_map Fun.id dsts) = sorted_dsts g vertex then Ok ()
            else bad "edges differ from the generated ones")
  | Count_edges, Progval.Int n ->
      if n < 0 then bad "negative count"
      else if untouched && n <> degree then bad (Printf.sprintf "expected %d" degree)
      else Ok ()
  | Get_node, Progval.List [ (Progval.Assoc _ as e) ] -> (
      match (Progval.assoc "vid" e, Progval.assoc "degree" e, Progval.assoc "props" e) with
      | Progval.Str v, Progval.Int d, Progval.Assoc _ when v = me ->
          if untouched && d <> degree then bad (Printf.sprintf "expected degree %d" degree)
          else Ok ()
      | _ -> bad "malformed vertex")
  | Nhop depth, Progval.Int n ->
      let want = bfs_count g ~start:vertex ~depth in
      if n = want then Ok () else bad (Printf.sprintf "BFS says %d" want)
  | _ -> bad "unexpected shape"

(* ---------------------------------------------------------------- *)
(* Acknowledged writes. An [Unknown] entry had its last write fail, so
   either outcome is correct and it is not checked. *)

type fate = Live | Deleted | Unknown

type ledger = {
  edges : (string, string * fate) Hashtbl.t;  (** eid -> (src, fate) *)
  props : (string * string, string option) Hashtbl.t;
      (** (vid, key) -> last acknowledged value, [None] if unknown *)
}

let ledger () = { edges = Hashtbl.create 1024; props = Hashtbl.create 1024 }
let ack_create l ~src ~eid = Hashtbl.replace l.edges eid (src, Live)

let settle_delete l ~eid ~ok =
  match Hashtbl.find_opt l.edges eid with
  | Some (src, _) -> Hashtbl.replace l.edges eid (src, if ok then Deleted else Unknown)
  | None -> ()

let settle_prop l ~vid ~key ~value ~ok =
  Hashtbl.replace l.props (vid, key) (if ok then Some value else None)

(* Every vertex the final check must read, sorted. *)
let written_vertices l =
  let s = Hashtbl.create 256 in
  Hashtbl.iter (fun _ (src, _) -> Hashtbl.replace s src ()) l.edges;
  Hashtbl.iter (fun (vid, _) _ -> Hashtbl.replace s vid ()) l.props;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) s [])

type observed = { eids : string list; props : (string * string) list }

type verdict = {
  checked : int;  (** acknowledged writes with a known expected outcome *)
  missing_creates : (string * string) list;  (** (src, eid) *)
  lost_deletes : (string * string) list;  (** (src, eid) still served *)
  lost_props : (string * string * string) list;  (** (vid, key, expected value) *)
}

let lost_writes v =
  List.length v.missing_creates + List.length v.lost_deletes + List.length v.lost_props

(* [observe vid] is the strong read of [vid] after quiesce; [None] when the
   vertex is not found at all. *)
let verify l ~observe =
  let seen = Hashtbl.create 256 in
  let obs vid =
    match Hashtbl.find_opt seen vid with
    | Some o -> o
    | None ->
        let o = observe vid in
        Hashtbl.replace seen vid o;
        o
  in
  let checked = ref 0 and missing = ref [] and lost_del = ref [] and lost_prop = ref [] in
  Hashtbl.iter
    (fun eid (src, fate) ->
      let present = match obs src with Some o -> List.mem eid o.eids | None -> false in
      match fate with
      | Live ->
          incr checked;
          if not present then missing := (src, eid) :: !missing
      | Deleted ->
          incr checked;
          if present then lost_del := (src, eid) :: !lost_del
      | Unknown -> ())
    l.edges;
  Hashtbl.iter
    (fun (vid, key) expect ->
      match expect with
      | None -> ()
      | Some value ->
          incr checked;
          let got = match obs vid with Some o -> List.assoc_opt key o.props | None -> None in
          if got <> Some value then lost_prop := (vid, key, value) :: !lost_prop)
    l.props;
  {
    checked = !checked;
    missing_creates = List.sort compare !missing;
    lost_deletes = List.sort compare !lost_del;
    lost_props = List.sort compare !lost_prop;
  }
