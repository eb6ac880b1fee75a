module Vclock = Weaver_vclock.Vclock
module Tbl = Weaver_util.Tbl

type decision = First_first | Second_first

(* An event is registered once, under its stamp's identity, and gets a
   dense id then: searches, edges and memos work on ids and nodes, so no
   key is built per query or per candidate. *)
type node = {
  id : int;
  vc : Vclock.t;
  succs : node Tbl.Int.t; (* explicit happens-before edges, by target id *)
  mutable seen : int; (* the last search that visited this node *)
}

type t = {
  events : node Vclock.Tbl.t;
  edge_sources : node Tbl.Int.t;
      (* events with ≥1 explicit out-edge: the only useful targets of a
         vclock-implied hop, which keeps reachability searches linear in
         the number of *ordered* events rather than all events *)
  reach_memo : unit Tbl.Int.t; (* positive reachability only, by id pair *)
  neg_memo : int Tbl.Int.t;
      (* negative reachability, stamped with the generation it was computed
         in: adding an edge (or collapsing the graph in gc) can turn "not
         reachable" into "reachable", so an entry is only trusted while its
         generation matches [gen] — the mirror image of [reach_memo], whose
         positives survive edge additions but not removals *)
  mutable gen : int; (* bumped by every edge add, rollback, and gc *)
  mutable next_id : int;
  mutable searches : int;
  mutable edges : int;
  mutable queries : int;
}

let create () =
  {
    events = Vclock.Tbl.create 256;
    edge_sources = Tbl.Int.create 64;
    reach_memo = Tbl.Int.create 1024;
    neg_memo = Tbl.Int.create 1024;
    gen = 0;
    next_id = 0;
    searches = 0;
    edges = 0;
    queries = 0;
  }

(* the node of [vc], registering it on first sight *)
let intern t vc =
  match Vclock.Tbl.find t.events vc with
  | n -> n
  | exception Not_found ->
      assert (t.next_id < 1 lsl 31) (* [pair_key] packs two ids in an int *);
      let n = { id = t.next_id; vc; succs = Tbl.Int.create 4; seen = 0 } in
      t.next_id <- t.next_id + 1;
      Vclock.Tbl.replace t.events vc n;
      n

let add_event t vc = ignore (intern t vc)

let event_count t = Vclock.Tbl.length t.events
let edge_count t = t.edges
let queries_served t = t.queries

(* memo key of an ordered id pair; ids stay below 2^31 *)
let pair_key a b = (a.id lsl 31) lor b.id

(* Is there a happens-before chain from [a] to [b]? Chains mix explicit
   commitments with vector-clock-implied edges: from a visited node [x] we
   may hop to any registered event [y] with [x ≺ y] by vector clock. The
   search succeeds as soon as it reaches [b] itself or any node that
   vclock-precedes (or equals) [b]. Positive answers are memoised; they stay
   valid because the commitment graph only grows. *)
let reaches t a b =
  let memo_key = pair_key a b in
  if Tbl.Int.mem t.reach_memo memo_key then true
  else if
    match Tbl.Int.find t.neg_memo memo_key with
    | g -> g = t.gen
    | exception Not_found -> false
  then false
  else begin
    t.searches <- t.searches + 1;
    let search = t.searches in
    let rec dfs node =
      if node.seen = search then false
      else begin
        node.seen <- search;
        let hits_target = node == b || Vclock.precedes node.vc b.vc in
        if hits_target && node != a then true
        else explicit_step node || implied_step node
      end
    and explicit_step node =
      Tbl.Int.fold (fun _ n' acc -> acc || dfs n') node.succs false
    and implied_step node =
      (* a vclock-implied hop is only useful onto an event that itself
         has explicit commitments: a hop to an edge-free event could only
         reach [b] by pure vclock order, which the target test on this
         node already covers via transitivity of ≺ *)
      Tbl.Int.fold
        (fun _ n' acc -> acc || (n' != node && Vclock.precedes node.vc n'.vc && dfs n'))
        t.edge_sources false
    in
    (* seed: target test must not fire on the start node itself *)
    let found =
      explicit_step a || implied_step a
      ||
      (* direct vclock order counts as reachability too *)
      match Vclock.compare_hb a.vc b.vc with Vclock.Before -> true | _ -> false
    in
    if found then Tbl.Int.replace t.reach_memo memo_key ()
    else Tbl.Int.replace t.neg_memo memo_key t.gen;
    found
  end

(* the decided order of two registered events, if any *)
let decided t a b =
  match Vclock.compare_hb a.vc b.vc with
  | Vclock.Before -> Some First_first
  | Vclock.After -> Some Second_first
  | Vclock.Equal ->
      (* identical epoch and clocks: no causal chain can ever separate the
         two, so commit nothing and break the tie by origin — the same
         tie-break [Vclock.total_compare] uses, so every server resolves
         the pair identically without an explicit edge *)
      if a.vc.Vclock.origin <= b.vc.Vclock.origin then Some First_first
      else Some Second_first
  | Vclock.Concurrent ->
      if reaches t a b then Some First_first
      else if reaches t b a then Some Second_first
      else None

let query_nodes t a b =
  t.queries <- t.queries + 1;
  decided t a b

let query t a b = query_nodes t (intern t a) (intern t b)

(* commit the explicit edge [before → after]; true iff it is new *)
let add_edge t before after =
  if Tbl.Int.mem before.succs after.id then false
  else begin
    Tbl.Int.replace before.succs after.id after;
    Tbl.Int.replace t.edge_sources before.id before;
    t.edges <- t.edges + 1;
    (* a new edge can only create reachability, so cached negatives
       from earlier generations must no longer be trusted *)
    t.gen <- t.gen + 1;
    true
  end

let assign_nodes t ~before ~after =
  match query_nodes t before after with
  | Some First_first -> Ok false (* already holds *)
  | Some Second_first -> Error `Cycle
  | None -> Ok (add_edge t before after)

let assign t ~before ~after =
  Result.map ignore (assign_nodes t ~before:(intern t before) ~after:(intern t after))

(* atomic batch: tentatively add, rolling back every new edge on failure *)
let assign_all t pairs =
  let added = ref [] in
  let rollback () =
    List.iter
      (fun (nb, na) ->
        if Tbl.Int.mem nb.succs na.id then begin
          Tbl.Int.remove nb.succs na.id;
          t.edges <- t.edges - 1;
          if Tbl.Int.length nb.succs = 0 then Tbl.Int.remove t.edge_sources nb.id
        end)
      !added;
    (* conservatively drop memoised reachability that may rest on the
       rolled-back edges *)
    Tbl.Int.reset t.reach_memo
  in
  let rec go = function
    | [] -> Ok ()
    | (before, after) :: rest -> (
        let nb = intern t before and na = intern t after in
        match assign_nodes t ~before:nb ~after:na with
        | Ok fresh ->
            if fresh then added := (nb, na) :: !added;
            go rest
        | Error `Cycle ->
            rollback ();
            Error `Cycle)
  in
  go pairs

let order t ~first ~second =
  let a = intern t first and b = intern t second in
  match query_nodes t a b with
  | Some d -> d
  | None -> (
      match assign_nodes t ~before:a ~after:b with
      | Ok _ -> First_first
      | Error `Cycle ->
          (* cannot happen: query found no order, so no reverse path exists *)
          assert false)

(* Total-order a batch of concurrent events. The old implementation forced
   an [order] call — and hence potentially an edge commitment — on every one
   of the n·(n-2)/2 pairs. Committing that much is wasted work: a consistent
   total order only needs the *adjacent* pairs of the final sequence pinned;
   everything else follows by transitivity. So: read the already-decided
   relation (vector clocks + committed chains, no new edges), topologically
   sort with arrival order as the deterministic tie-break, then commit just
   the ≤ n-1 adjacent pairs that are still unordered. *)
let serialize t events =
  let arr = Array.of_list events in
  let n = Array.length arr in
  if n <= 1 then events
  else begin
    let before = Array.make_matrix n n false in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        match query t arr.(i) arr.(j) with
        | Some First_first -> before.(i).(j) <- true
        | Some Second_first -> before.(j).(i) <- true
        | None -> ()
      done
    done;
    (* Kahn's algorithm, always emitting the lowest-index ready event: the
       result extends every decided constraint and falls back to arrival
       order, so it is deterministic given the same batch and oracle state.
       No cycle is possible — [query] answers through the full transitive
       closure of the commitment graph, so any path between two batch
       members (even via events outside the batch) already shows up in
       [before]. *)
    let indeg = Array.make n 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if before.(i).(j) then indeg.(j) <- indeg.(j) + 1
      done
    done;
    let placed = Array.make n false in
    let out = Array.make n 0 in
    for slot = 0 to n - 1 do
      let pick = ref (-1) in
      for i = n - 1 downto 0 do
        if (not placed.(i)) && indeg.(i) = 0 then pick := i
      done;
      assert (!pick >= 0);
      placed.(!pick) <- true;
      out.(slot) <- !pick;
      for j = 0 to n - 1 do
        if before.(!pick).(j) then indeg.(j) <- indeg.(j) - 1
      done
    done;
    (* pin the chain: only adjacent pairs not already decided cost an edge *)
    for slot = 0 to n - 2 do
      let i = out.(slot) and j = out.(slot + 1) in
      if not before.(i).(j) then
        match assign t ~before:arr.(i) ~after:arr.(j) with
        | Ok () -> ()
        | Error `Cycle -> assert false (* contradicts the topo order *)
    done;
    Array.to_list (Array.map (fun i -> arr.(i)) out)
  end

let gc t ~watermark =
  (* membership set, not a list: each surviving node filters its successor
     edges with O(1) probes instead of rescanning the doomed list, taking a
     collection round from O(events × doomed) to O(events + edges) *)
  let doomed = Tbl.Int.create 256 in
  let doomed_nodes =
    Vclock.Tbl.fold
      (fun _ node acc ->
        if Vclock.precedes node.vc watermark then begin
          Tbl.Int.replace doomed node.id ();
          node :: acc
        end
        else acc)
      t.events []
  in
  List.iter
    (fun node ->
      t.edges <- t.edges - Tbl.Int.length node.succs;
      Vclock.Tbl.remove t.events node.vc;
      Tbl.Int.remove t.edge_sources node.id)
    doomed_nodes;
  (* drop dangling explicit edges; collect first — a hashtable must not be
     mutated while folding over it *)
  let emptied = ref [] in
  Vclock.Tbl.iter
    (fun _ node ->
      let dead =
        Tbl.Int.fold
          (fun id _ acc -> if Tbl.Int.mem doomed id then id :: acc else acc)
          node.succs []
      in
      List.iter
        (fun id ->
          Tbl.Int.remove node.succs id;
          t.edges <- t.edges - 1)
        dead;
      if Tbl.Int.length node.succs = 0 then emptied := node.id :: !emptied)
    t.events;
  List.iter (fun id -> Tbl.Int.remove t.edge_sources id) !emptied;
  (* edge removal invalidates positives; the graph collapse also shifts what
     the implied-hop search can see, so distrust cached negatives too *)
  Tbl.Int.reset t.reach_memo;
  Tbl.Int.reset t.neg_memo;
  t.gen <- t.gen + 1;
  Tbl.Int.length doomed
