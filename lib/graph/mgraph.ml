module Vclock = Weaver_vclock.Vclock

type stamp = Vclock.t
type before = stamp -> stamp -> bool
type lifespan = { created : stamp; deleted : stamp option }
type prop = { pkey : string; pval : string; p_life : lifespan }

type edge = {
  eid : string;
  dst : string;
  e_life : lifespan;
  e_props : prop array;
}

type vertex = {
  vid : string;
  v_life : lifespan;
  v_props : prop array;
  out : edge array;
}

(* Version sets are flat immutable arrays, newest first — the same order
   the old cons-list representation exposed, so visible-version iteration
   order (and everything downstream of it) is unchanged. Updates copy the
   array; reads walk a contiguous block with no per-cell indirection,
   which is what the hot path (out_edges under many versions) does. *)
let acons x a =
  let n = Array.length a in
  let a' = Array.make (n + 1) x in
  Array.blit a 0 a' 1 n;
  a'

(* [a] itself when [keep] holds for every element, so the common case of
   a compaction round (nothing to drop) allocates nothing *)
let afilter keep a =
  let n = Array.length a in
  let rec first_drop i = if i = n || not (keep a.(i)) then i else first_drop (i + 1) in
  let i = first_drop 0 in
  if i = n then a
  else begin
    let kept = ref i in
    for j = i + 1 to n - 1 do
      if keep a.(j) then incr kept
    done;
    let a' = Array.make !kept a.(0) in
    Array.blit a 0 a' 0 i;
    let k = ref i in
    for j = i + 1 to n - 1 do
      if keep a.(j) then begin
        a'.(!k) <- a.(j);
        incr k
      end
    done;
    a'
  end

(* [Array.map f a], but [a] itself when [f] returns every element
   unchanged (physically) *)
let amap_shared f a =
  let n = Array.length a in
  let rec first_change i =
    if i = n then None
    else
      let x = f a.(i) in
      if x == a.(i) then first_change (i + 1) else Some (i, x)
  in
  match first_change 0 with
  | None -> a
  | Some (i, x) ->
      let a' = Array.copy a in
      a'.(i) <- x;
      for j = i + 1 to n - 1 do
        a'.(j) <- f a.(j)
      done;
      a'

let at_or_before (before : before) a b = Vclock.equal a b || before a b

let alive before life ~at =
  at_or_before before life.created at
  &&
  match life.deleted with
  | None -> true
  | Some d -> not (at_or_before before d at)

let span at = { created = at; deleted = None }

let create_vertex ~vid ~at =
  { vid; v_life = span at; v_props = [||]; out = [||] }

let delete_vertex v ~at = { v with v_life = { v.v_life with deleted = Some at } }

let add_edge v ~eid ~dst ~at =
  { v with out = acons { eid; dst; e_life = span at; e_props = [||] } v.out }

let kill_life life ~at =
  match life.deleted with None -> { life with deleted = Some at } | Some _ -> life

let delete_edge v ~eid ~at =
  let out =
    Array.map
      (fun e ->
        if String.equal e.eid eid && e.e_life.deleted = None then
          { e with e_life = kill_life e.e_life ~at }
        else e)
      v.out
  in
  { v with out }

let close_prop before props ~key ~at =
  Array.map
    (fun p ->
      if String.equal p.pkey key && alive before p.p_life ~at then
        { p with p_life = kill_life p.p_life ~at }
      else p)
    props

let set_vertex_prop before v ~key ~value ~at =
  let closed = close_prop before v.v_props ~key ~at in
  { v with v_props = acons { pkey = key; pval = value; p_life = span at } closed }

let del_vertex_prop before v ~key ~at =
  { v with v_props = close_prop before v.v_props ~key ~at }

let map_edge v ~eid f =
  { v with out = Array.map (fun e -> if String.equal e.eid eid then f e else e) v.out }

let set_edge_prop before v ~eid ~key ~value ~at =
  map_edge v ~eid (fun e ->
      if e.e_life.deleted = None then
        let closed = close_prop before e.e_props ~key ~at in
        { e with e_props = acons { pkey = key; pval = value; p_life = span at } closed }
      else e)

let del_edge_prop before v ~eid ~key ~at =
  map_edge v ~eid (fun e -> { e with e_props = close_prop before e.e_props ~key ~at })

let vertex_alive before v ~at = alive before v.v_life ~at

let out_edges before v ~at =
  Array.fold_right
    (fun e acc -> if alive before e.e_life ~at then e :: acc else acc)
    v.out []

let props_at before props ~at =
  Array.fold_right
    (fun p acc -> if alive before p.p_life ~at then (p.pkey, p.pval) :: acc else acc)
    props []

let vertex_props before v ~at = props_at before v.v_props ~at
let edge_props before e ~at = props_at before e.e_props ~at

let edge_has_prop before e ~key ?value ~at () =
  Array.exists
    (fun p ->
      alive before p.p_life ~at
      && String.equal p.pkey key
      && match value with None -> true | Some v -> String.equal p.pval v)
    e.e_props

let degree before v ~at =
  let n = ref 0 in
  Array.iter (fun e -> if alive before e.e_life ~at then incr n) v.out;
  !n

let dead_before before life ~watermark =
  match life.deleted with Some d -> before d watermark | None -> false

let compact before v ~watermark =
  if dead_before before v.v_life ~watermark then None
  else
    let keep_prop p = not (dead_before before p.p_life ~watermark) in
    let compact_edge e =
      let e_props = afilter keep_prop e.e_props in
      if e_props == e.e_props then e else { e with e_props }
    in
    let out =
      afilter (fun e -> not (dead_before before e.e_life ~watermark)) v.out
      |> amap_shared compact_edge
    in
    let v_props = afilter keep_prop v.v_props in
    if out == v.out && v_props == v.v_props then Some v else Some { v with v_props; out }

let closed life = Option.is_some life.deleted
let props_closed props = Array.exists (fun p -> closed p.p_life) props

let has_closed v =
  closed v.v_life
  || props_closed v.v_props
  || Array.exists (fun e -> closed e.e_life || props_closed e.e_props) v.out

let pp_vertex fmt v =
  let dead = match v.v_life.deleted with Some _ -> " (deleted)" | None -> "" in
  Format.fprintf fmt "@[<v 2>vertex %s%s@ props:%d edge-versions:%d@]" v.vid dead
    (Array.length v.v_props) (Array.length v.out)
