module Vclock = Weaver_vclock.Vclock
module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Store = Weaver_store.Store
module Oracle = Weaver_oracle.Oracle
module Mgraph = Weaver_graph.Mgraph
module Intern = Weaver_util.Intern
module Dense = Weaver_util.Dense
module Flow = Weaver_flow.Flow
module Repl = Weaver_repl.Repl
module Tbl = Weaver_util.Tbl
module Ring = Weaver_util.Ring
module Stats = Weaver_util.Stats

type parked_prog = {
  p_coord : int;
  p_id : int;
  p_prog : string;
  p_historical : bool;
  p_items : (string * int * Progval.t) list;
}

(* Partial replication ({!Runtime.standing_plan}, DESIGN §16).
   Owner side: per-range follower lists plus the set of followers whose
   stream is interrupted (install just happened, or a credit column ran
   dry) and who therefore need a wholesale reseed at the next watermark
   boundary. Follower side: per-range owner and the monotone replication
   watermark this copy is known to cover ([None] until the first seed). *)
type repl_out = {
  ro_followers : int list;
  ro_dirty : (int, unit) Hashtbl.t;
}

type repl_in = {
  rin_owner : int;
  mutable rin_wm : Vclock.t option;
  mutable rin_floor : Vclock.t option;
      (* the cut of the last seed: the owner's records were compacted up
         to it, so reads strictly below must miss (and chase the owner,
         which serves them from the durable store once they are below its
         cut) instead of silently reading post-compaction state *)
}

type t = {
  rt : Runtime.t;
  sid : int;
  home : int;
      (* the shard this server serves: [sid] for a shard, the shard it
         replicates for a read replica ([Runtime.home_shard]) *)
  addr : int;
  actor : string; (* span and gauge name: "shard2", "replica1.0" *)
  graph : Mgraph.vertex Dense.t;
      (* every in-memory record by vertex handle ([Runtime.t.names]): the
         ones this server owns, and follower copies of other owners'
         replicated ranges, flagged. A copy is written only by the
         replication stream and seeds, never paged, touched, evicted or
         compacted, and not counted toward [Config.shard_capacity]; a
         streamed op or seed record never replaces a record this server
         owns. *)
  gc_pending : unit Tbl.Probe.t;
      (* handles the next watermark round must compact. Invariant: every
         resident owned vertex whose record holds a closed lifespan is in
         here.
         Ops that can close one add their vertex by op kind; records that
         enter from the durable store (which keeps the full history) are
         checked once with [Mgraph.has_closed]. A round visits only this
         set and drops each handle whose record has nothing closed left. *)
  lru : Ring.t; (* approximate recency for demand paging *)
  mutable lru_count : int array;
      (* occurrences of each handle in [lru], indexed by handle (grown on
         demand); lets eviction skip stale duplicate entries in O(1)
         instead of scanning the whole queue *)
  mutable hop_out : Mgraph.edge array array;
  mutable hop_h : int array array;
      (* hop memo, indexed by handle: [hop_h.(h).(i)] is the handle of the
         destination of edge [i] of [hop_out.(h)], valid while
         [hop_out.(h)] is the record's out array. A hop naming one of the
         visited vertex's own edge destinations takes its handle from here
         instead of interning the vid. *)
  last_seq : int array;
  seq_epoch : int array; (* epoch in which last_seq was recorded *)
  gate : parked_prog Gate.t;
      (* the gatekeeper queues, the outstanding consult and the parked
         batches: what runs next *)
  prog_state : Progval.t Tbl.Probe.t Tbl.Probe.t;
      (* prog_id -> vertex handle -> that program's state there *)
  fwd : (string * int * Progval.t) list array;
      (* by server: the hops a running batch forwards there, newest first;
         every cell is [] between batches *)
  mutable oracle_gen : int;
      (* invalidates the scheduled completion callback across epoch changes
         and crash-restarts *)
  mutable busy_until : float;
  mutable busy_us : float; (* total service time charged — utilization *)
  mutable epoch : int;
  wm : Vclock.t option array; (* latest watermark per gatekeeper *)
  mutable cut : Vclock.t option;
      (* the pointwise minimum of [wm], set at each full watermark round.
         Every transaction stamped after it has a stamp after any read
         below it, so the durable store, which keeps the full history,
         answers such historical reads (DESIGN §12) *)
  mutable gc_floor : Vclock.t option;
      (* watermark of the last compaction: versions strictly below it are
         gone from the in-memory copies, so a live-graph read below it
         must fail retryably instead of silently reading post-compaction
         state *)
  repl_out : (int, repl_out) Hashtbl.t;  (* ranges owned here, replicated out *)
  repl_in : (int, repl_in) Hashtbl.t;  (* ranges followed here *)
  repl_credits : Flow.Credits.t;
      (* owner→follower stream credits (one column per shard server, sized
         by [Config.shard_credits]): a slow follower drains its column and
         the stream is interrupted (dirty + reseed) instead of growing the
         follower's queue without bound *)
  mutable repl_applied : int; (* stream updates and seeds applied here *)
  queue_wait : Stats.t;
  prog_gate_wait : Stats.t;
  prog_hop_wait : Stats.t;
      (* hot-path reservoirs, resolved once at spawn *)
  mutable retired : bool;
}

let sid t = t.sid
let epoch t = t.epoch

(* A §6.4 read replica is a shard server that owns no vertex and has no
   gatekeeper queue: it only follows its home shard's ranges on the
   replication stream. With no queue the §4.1 gate is vacuous, and no
   NOP or Shard_tx ever reaches it. *)
let is_replica t = t.sid <> t.home

let vertex t vid =
  match Intern.find t.rt.Runtime.names vid with
  | Some h -> Dense.find_opt t.graph h
  | None -> None

let repl_applied t = t.repl_applied
let is_copy t h = Dense.is_flagged t.graph h
let resident_vertices t = Dense.length t.graph - Dense.flagged t.graph

let resident_ids t =
  Dense.fold
    (fun h _ ~flag acc -> if flag then acc else Runtime.vertex_name t.rt h :: acc)
    t.graph []
  |> List.sort String.compare

let queue_depths t = Gate.depths t.gate
let gc_floor t = t.gc_floor

let cfg t = t.rt.Runtime.cfg
let counters t = t.rt.Runtime.counters
let send t ~dst msg = Runtime.send t.rt ~src:t.addr ~dst msg
let actor t = t.actor
let now t = Engine.now t.rt.Runtime.engine

(* the decision procedure for version stamps: vector clocks, then the
   oracle; ties prefer the first argument (transactions before node
   programs, earlier writers before later ones) *)
let before t a b = Runtime.before t.rt a b ~prefer_first_on_tie:true

(* ------------------------------------------------------------------ *)
(* Partial replication plumbing shared by the owner and follower roles. *)

(* the heat range a vertex falls in; the standing plan and follower
   copies are keyed by these ranges *)
let repl_range t vid = Runtime.repl_range t.rt vid

(* a follower copy of [vid] may serve a read at [at] iff its range's
   replication watermark covers the stamp — then the copy has every
   version the read could see, and the answer is bit-identical to the
   owner's at the same cut — and the stamp is not below the seed floor *)
let copy_covers t vid at =
  match Hashtbl.find_opt t.repl_in (repl_range t vid) with
  | Some { rin_wm = Some wm; rin_floor = Some floor; _ } ->
      Repl.covers ~wm at && not (Vclock.precedes at floor)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Demand paging (§6.1): vertices are fetched from the backing store on a
   miss and evicted in approximate LRU order when over capacity. *)

(* [a] grown to hold index [h], new cells set to [fill] *)
let grown a h fill =
  let len = Array.length a in
  if h < len then a
  else begin
    let a' = Array.make (max (2 * len) (h + 1)) fill in
    Array.blit a 0 a' 0 len;
    a'
  end

let touch t h =
  if (cfg t).Config.shard_capacity <> None then begin
    Ring.push t.lru h;
    if h >= Array.length t.lru_count then t.lru_count <- grown t.lru_count h 0;
    t.lru_count.(h) <- t.lru_count.(h) + 1
  end

(* a record left memory: drop its hop memo with it *)
let forget_hops t h =
  if h < Array.length t.hop_out then begin
    t.hop_out.(h) <- [||];
    t.hop_h.(h) <- [||]
  end

(* the handles of the out-edge destinations of [v] (handle [h]),
   memoised per handle *)
let hop_handles t h (v : Mgraph.vertex) =
  if h < Array.length t.hop_out && t.hop_out.(h) == v.Mgraph.out then t.hop_h.(h)
  else begin
    let hs = Array.map (fun (e : Mgraph.edge) -> Runtime.vertex_handle t.rt e.Mgraph.dst) v.Mgraph.out in
    t.hop_out <- grown t.hop_out h [||];
    t.hop_h <- grown t.hop_h h [||];
    t.hop_out.(h) <- v.Mgraph.out;
    t.hop_h.(h) <- hs;
    hs
  end

(* the index of the edge of [out] whose destination is the very string
   [dst], scanning from [from] and wrapping; -1 if none *)
let edge_slot (out : Mgraph.edge array) dst from =
  let n = Array.length out in
  let rec scan i left =
    if left = 0 then -1
    else
      let i = if i >= n then 0 else i in
      if out.(i).Mgraph.dst == dst then i else scan (i + 1) (left - 1)
  in
  scan from n

(* a record left memory: drop it with its compaction mark and hop memo *)
let drop t h =
  Dense.remove t.graph h;
  Tbl.Probe.remove t.gc_pending h;
  forget_hops t h

(* Pop recency entries until the owned records fit the capacity. A popped
   entry is a genuine LRU victim only when it is the vertex's *last*
   occurrence in the queue (no fresher touch behind it) — tracked by the
   per-vertex occurrence count, making each pop O(1) amortized instead of
   a full queue scan. A handle that has since become a copy is skipped. *)
let evict_to_capacity t ~keep =
  match (cfg t).Config.shard_capacity with
  | None -> ()
  | Some cap ->
      while resident_vertices t > cap && not (Ring.is_empty t.lru) do
        let victim = Ring.pop t.lru in
        let remaining = t.lru_count.(victim) - 1 in
        t.lru_count.(victim) <- remaining;
        if remaining = 0 && victim <> keep && Dense.mem t.graph victim
           && not (is_copy t victim)
        then begin
          drop t victim;
          (counters t).Runtime.evictions <- (counters t).Runtime.evictions + 1
        end
      done

(* [v] becomes the record this server owns under [h], replacing any
   copy. A record read from the durable store carries its full version
   history: enrol it for compaction if any of that history is closed. *)
let adopt t h v =
  Dense.replace t.graph h v ~flag:false;
  if Mgraph.has_closed v then Tbl.Probe.replace t.gc_pending h ()

let own t h v =
  adopt t h v;
  touch t h;
  evict_to_capacity t ~keep:h

(* [v] becomes the follower copy under [h], unless this server owns the
   record there: the balancer can migrate a vertex onto a shard that
   follows its range, and its old owner then streams the migration *)
let set_copy t h v =
  if is_copy t h || not (Dense.mem t.graph h) then Dense.replace t.graph h v ~flag:true

(* Demand-page the durable record of [vid] (handle [h]) in as an owned
   record. Returns the record and the paging cost incurred. *)
let page_in t h vid =
  match (cfg t).Config.shard_capacity with
  | None -> (None, 0.0)
  | Some _ -> (
      match Store.get_now t.rt.Runtime.store (Runtime.vkey vid) with
      | Some (Runtime.Vrec v) ->
          own t h v;
          (counters t).Runtime.page_ins <- (counters t).Runtime.page_ins + 1;
          (Some v, (cfg t).Config.page_in_cost)
      | _ -> (None, 0.0))

(* the owned record under [h], demand-paged when not resident *)
let lookup_vertex t h vid =
  match Dense.find_opt t.graph h with
  | Some _ as found when not (is_copy t h) ->
      touch t h;
      (found, 0.0)
  | _ -> page_in t h vid

(* The lookup rule of a program visit at [at]. An owned record is read
   directly; on a miss it is paged in only when the directory assigns
   [vid] to this server. A copy is read only when [copy_covers] it. Any
   other read returns [None], and the visit goes to the owner. *)
let visit_lookup t h vid at =
  match Dense.find_opt t.graph h with
  | Some _ as found when is_copy t h -> ((if copy_covers t vid at then found else None), 0.0)
  | Some _ as found ->
      touch t h;
      (found, 0.0)
  | None when Runtime.shard_of_handle t.rt h = t.sid -> page_in t h vid
  | None -> (None, 0.0)

(* whether a historical read at [at] is below the cut *)
let below_cut t at =
  match t.cut with Some cut -> Vclock.precedes at cut | None -> false

(* The lookup rule of a visit below the cut. A record the directory
   assigns here is read from the durable store, leaving memory as it is:
   no paging, touch or eviction. A copy is read when [copy_covers] it.
   Any other read returns [None], and the visit goes to the owner. *)
let store_lookup t h vid at =
  if Runtime.shard_of_handle t.rt h = t.sid then
    match Store.get_now t.rt.Runtime.store (Runtime.vkey vid) with
    | Some (Runtime.Vrec v) -> Some v
    | _ -> None
  else if is_copy t h && copy_covers t vid at then Dense.find_opt t.graph h
  else None

(* ------------------------------------------------------------------ *)
(* Transaction application: mark the in-memory multi-version graph with the
   transaction's timestamp (§4.2). *)

(* the vertex a shard op lands on: edge ops are stored on (and charged
   to) their source vertex *)
let op_vertex (op : Msg.shard_op) =
  match op with
  | Msg.S_create_vertex vid | Msg.S_delete_vertex vid
  | Msg.S_set_vprop { vid; _ }
  | Msg.S_del_vprop { vid; _ }
  | Msg.S_migrate_in vid | Msg.S_migrate_out vid ->
      vid
  | Msg.S_add_edge { src; _ }
  | Msg.S_del_edge { src; _ }
  | Msg.S_set_eprop { src; _ }
  | Msg.S_del_eprop { src; _ } ->
      src

(* Apply one shard op: to the record this server owns, or with [~copy]
   (a streamed op of a followed range) to its follower copy. A copy write
   charges no heat (the owner charged it when it applied the
   transaction), and pages, touches and enrols nothing for compaction.
   Ops for vertices the copy does not hold are dropped — a later read of
   such a vertex misses the copy and goes to the owner, so incompleteness
   is never incorrectness. *)
let apply_op t ~copy ts (op : Msg.shard_op) =
  (* every op lands on exactly [op_vertex op] (edge ops live on their
     source), so one intern covers all the table work below *)
  let vid = op_vertex op in
  if not copy then Runtime.heat_write t.rt ~shard:t.sid vid;
  let h = Runtime.vertex_handle t.rt vid in
  let bf = before t in
  (* [closes]: the op may close a lifespan, so the vertex joins the
     compaction set — by op kind, with no scan of the record *)
  let update ?(closes = true) f =
    if copy then begin
      match Dense.find_opt t.graph h with
      | Some v when is_copy t h -> Dense.update t.graph h (f v)
      | _ -> ()
    end
    else
      match lookup_vertex t h vid with
      | Some v, _ ->
          Dense.update t.graph h (f v);
          if closes then Tbl.Probe.replace t.gc_pending h ()
      | None, _ -> ()
  in
  let place v = if copy then set_copy t h v else own t h v in
  match op with
  | Msg.S_create_vertex _ -> place (Mgraph.create_vertex ~vid ~at:ts)
  | Msg.S_delete_vertex _ -> update (fun v -> Mgraph.delete_vertex v ~at:ts)
  | Msg.S_add_edge { eid; dst; _ } ->
      update ~closes:false (fun v -> Mgraph.add_edge v ~eid ~dst ~at:ts)
  | Msg.S_del_edge { eid; _ } -> update (fun v -> Mgraph.delete_edge v ~eid ~at:ts)
  | Msg.S_set_vprop { key; value; _ } ->
      update (fun v -> Mgraph.set_vertex_prop bf v ~key ~value ~at:ts)
  | Msg.S_del_vprop { key; _ } ->
      update (fun v -> Mgraph.del_vertex_prop bf v ~key ~at:ts)
  | Msg.S_set_eprop { eid; key; value; _ } ->
      update (fun v -> Mgraph.set_edge_prop bf v ~eid ~key ~value ~at:ts)
  | Msg.S_del_eprop { eid; key; _ } ->
      update (fun v -> Mgraph.del_edge_prop bf v ~eid ~key ~at:ts)
  | Msg.S_migrate_in _ -> (
      (* adopt: pull the current durable record (it includes every write
         committed before this op's store transaction, §4.6) *)
      match Store.get_now t.rt.Runtime.store (Runtime.vkey vid) with
      | Some (Runtime.Vrec v) -> place v
      | _ -> ())
  | Msg.S_migrate_out _ -> if (not copy) || is_copy t h then drop t h

let apply_tx t ~gk (qt : Gate.queued_tx) =
  if qt.q_ops <> [] then begin
    (* time between arrival on the FIFO queue and execution — the
       timestamp-ordering wait the paper's Fig. 9 latency includes *)
    Stats.add t.queue_wait (now t -. qt.q_enq);
    if Runtime.tracing t.rt ~trace:qt.q_trace then
      Runtime.trace_span t.rt ~trace:qt.q_trace ~name:"shard.queue" ~actor:(actor t)
        ~start:qt.q_enq ~stop:(now t)
        ~meta:[ ("ops", string_of_int (List.length qt.q_ops)) ]
        ()
  end;
  List.iter (apply_op t ~copy:false qt.q_ts) qt.q_ops;
  t.busy_until <-
    Float.max t.busy_until (Engine.now t.rt.Runtime.engine)
    +. ((cfg t).Config.vertex_write_cost *. float_of_int (List.length qt.q_ops));
  t.busy_us <-
    t.busy_us +. ((cfg t).Config.vertex_write_cost *. float_of_int (List.length qt.q_ops));
  if qt.q_ops <> [] then begin
    (* replication: stream the ops that land in replicated ranges to their
       followers, in this owner's execution order (FIFO channels make
       in-order application converge). A follower whose credit column ran
       dry is marked dirty and skipped — it gets a wholesale reseed at the
       next watermark instead of an unbounded queue. *)
    if Hashtbl.length t.repl_out > 0 then begin
      let by_range = Hashtbl.create 4 in
      List.iter
        (fun op ->
          let r = repl_range t (op_vertex op) in
          if Hashtbl.mem t.repl_out r then
            Hashtbl.replace by_range r
              (op :: Option.value ~default:[] (Hashtbl.find_opt by_range r)))
        qt.q_ops;
      Hashtbl.iter
        (fun r rev_ops ->
          let out = Hashtbl.find t.repl_out r in
          let ops = List.rev rev_ops in
          List.iter
            (fun f ->
              if not (Hashtbl.mem out.ro_dirty f) then
                if Flow.Credits.exhausted t.repl_credits f then
                  Hashtbl.replace out.ro_dirty f ()
                else begin
                  Flow.Credits.consume t.repl_credits f;
                  (counters t).Runtime.repl_updates <-
                    (counters t).Runtime.repl_updates + 1;
                  send t
                    ~dst:(Runtime.shard_addr t.rt f)
                    (Msg.Repl_update { range = r; owner = t.sid; ts = qt.q_ts; ops })
                end)
            out.ro_followers)
        by_range
    end;
    (* flow control: return the credit this transaction spent at its
       gatekeeper. NOPs never carried one (control class). *)
    if (cfg t).Config.shard_credits > 0 then begin
      (counters t).Runtime.credit_msgs <- (counters t).Runtime.credit_msgs + 1;
      send t ~dst:(Runtime.gk_addr t.rt gk) (Msg.Credit { shard = t.sid; gk; n = 1 })
    end
  end

let advertise_cover t range ts =
  for g = 0 to (cfg t).Config.n_gatekeepers - 1 do
    send t ~dst:(Runtime.gk_addr t.rt g) (Msg.Repl_cover { range; follower = t.sid; ts })
  done

(* Register a standing-plan entry, at spawn and again after a crash
   [resync] (whose streaming state died with the crash). An already-known
   range is left untouched. A new owner entry starts with every follower
   dirty, so the next watermark seeds them. *)
let install_plan t (range, owner, followers) =
  if owner = t.sid && not (Hashtbl.mem t.repl_out range) then begin
    let dirty = Hashtbl.create 4 in
    List.iter (fun f -> Hashtbl.replace dirty f ()) followers;
    Hashtbl.replace t.repl_out range { ro_followers = followers; ro_dirty = dirty }
  end;
  if List.mem t.sid followers && not (Hashtbl.mem t.repl_in range) then
    Hashtbl.replace t.repl_in range { rin_owner = owner; rin_wm = None; rin_floor = None }

(* the stream was interrupted for every follower (epoch barrier, bulk
   reload): reseed them all at the next watermark *)
let mark_followers_dirty t =
  Hashtbl.iter
    (fun _ out -> List.iter (fun f -> Hashtbl.replace out.ro_dirty f ()) out.ro_followers)
    t.repl_out

(* ------------------------------------------------------------------ *)
(* Node program execution (§4.1). *)

(* Per-program vertex state lives in a table created on the first state a
   program stores here: most programs visit one vertex and keep none, and
   the tables are only ever probed, never iterated. A batch resolves its
   program's table once ([table]) and keeps it current. *)
let prog_state_set t prog_id table h state =
  match (!table, state) with
  | Some tbl, Some s -> Tbl.Probe.replace tbl h s
  | Some tbl, None -> Tbl.Probe.remove tbl h
  | None, Some s ->
      let tbl = Tbl.Probe.create 1 in
      Tbl.Probe.replace tbl h s;
      Tbl.Probe.replace t.prog_state prog_id tbl;
      table := Some tbl
  | None, None -> ()

(* The handle of a batch item's vertex: the one it carries, or the vid
   looked up now when it was routed unnumbered ([Runtime.no_handle]), so
   a vertex created since is found; [no_handle] while still unknown. *)
let item_handle t vid h =
  if h <> Runtime.no_handle then h
  else match Intern.find t.rt.Runtime.names vid with Some h -> h | None -> h

(* the shard an item's vertex lives on: hashed placement when unknown *)
let item_owner t vid h =
  if h = Runtime.no_handle then Runtime.shard_of_vertex t.rt vid
  else Runtime.shard_of_handle t.rt h

(* Run a batch of (vertex, params) visits locally; hops to vertices on this
   shard are processed in the same batch, hops elsewhere are grouped into
   per-shard messages. Results are delivered after the modelled CPU cost. *)
let execute_prog_batch t (b : parked_prog Gate.parked) =
  let p = Gate.item b and p_ts = Gate.stamp b and p_since = Gate.since b in
  (* a historical batch below the cut reads the durable store; the cut
     only grows within an epoch, so a batch parked gated may have fallen
     below it while it waited *)
  let from_store = p.p_historical && below_cut t p_ts in
  (* a live-graph read below the compaction floor: the versions it needs
     are gone from the in-memory copy, and reading post-compaction state
     would silently violate the read's timestamp. Fail the whole run
     retryably instead. Historical runs reach this with a past stamp not
     below the cut; a current-epoch run only when it is a weak run
     re-stamped at a replica's watermark, since a fresh stamp holds its
     gatekeeper's GC watermark, and so this floor, at or below it. *)
  let own_gced =
    (not from_store)
    && match t.gc_floor with
       | Some floor ->
           Vclock.precedes p_ts floor
           && (p.p_historical || p_ts.Vclock.epoch = floor.Vclock.epoch)
       | None -> false
  in
  (* ...but a follower batch whose items all live in other shards'
     partitions never reads the compacted copy: followed-range lookups
     carry their own seed floor ([copy_covers]) and true misses are
     forwarded to their owners. Only batches that would read *this*
     partition fail wholesale; a hop that lands here aborts below. *)
  let gced =
    own_gced
    && (Hashtbl.length t.repl_in = 0
       || List.exists
            (fun (vid, h, _) -> item_owner t vid (item_handle t vid h) = t.sid)
            p.p_items)
  in
  if gced then
    send t ~dst:p.p_coord
      (Msg.Prog_partial
         {
           prog_id = p.p_id;
           sent = 0;
           acc = Progval.Null;
           visited = [];
           error = Some "snapshot-gced";
         })
  else
  match Nodeprog.find t.rt.Runtime.registry p.p_prog with
  | None ->
      (* unknown program: report an empty batch so termination detection
         still converges (the coordinator validated the name already) *)
      send t ~dst:p.p_coord
        (Msg.Prog_partial
           { prog_id = p.p_id; sent = 0; acc = Progval.Null; visited = []; error = None })
  | Some (module P : Nodeprog.PROGRAM) ->
      (* time this batch spent parked behind the refinable-timestamp gate *)
      Stats.add t.prog_gate_wait (now t -. p_since);
      if Runtime.tracing t.rt ~trace:p.p_id then
        Runtime.trace_span t.rt ~trace:p.p_id ~name:"shard.prog_gate" ~actor:(actor t)
          ~start:p_since ~stop:(now t) ();
      let exec_start = now t in
      (* a batch below the cut reads the durable store: no demand paging,
         no LRU touches, no evictions — analytics never pollute the
         writers' hot set and writers never page the analytics' reads
         out *)
      if from_store then
        (counters t).Runtime.pinned_reads <- (counters t).Runtime.pinned_reads + 1;
      (* historical queries are pinned at their stamp: a version stamp
         concurrent with it is ordered after it (unless already committed
         before), so time travel excludes later writes *)
      let bf =
        if p.p_historical then fun a b ->
          Runtime.before t.rt a b ~prefer_first_on_tie:(not (Vclock.equal b p_ts))
        else before t
      in
      (* work items carry their vertex handle, as batch items do *)
      let work = Queue.create () in
      List.iter (fun item -> Queue.push item work) p.p_items;
      (* hops bound elsewhere, gathered per server in [t.fwd], with the
         servers in the order of their first hop *)
      let fwd = t.fwd and fwd_order = ref [] in
      let acc = ref P.empty in
      (* the vids read, for the coordinator's memo entry only *)
      let memo_reads = (cfg t).Config.enable_memoization && not p.p_historical in
      let visited = ref [] and n_visited = ref 0 in
      let read_cost_units = ref 0.0 in
      let page_cost = ref 0.0 in
      let forward_item server item =
        (match fwd.(server) with [] -> fwd_order := server :: !fwd_order | _ :: _ -> ());
        fwd.(server) <- item :: fwd.(server)
      in
      let pstate = ref (Tbl.Probe.find_opt t.prog_state p.p_id) in
      let aborted = ref false in
      while (not !aborted) && not (Queue.is_empty work) do
        let ((vid, h, params) as item) = Queue.pop work in
        let h = item_handle t vid h in
        if own_gced && item_owner t vid h = t.sid then
          (* a hop landed on this shard's own compacted partition *)
          aborted := true
        else begin
        (* a followed range's copy whose replication watermark covers the
           read stamp serves it in place of the owner — this is where
           follower capacity becomes read capacity *)
        let vrec, pc =
          if h = Runtime.no_handle then (None, 0.0)
          else if from_store then (store_lookup t h vid p_ts, 0.0)
          else visit_lookup t h vid p_ts
        in
        page_cost := !page_cost +. pc;
        match vrec with
        | None ->
            (* not resident: if the directory says another shard owns it
               (it migrated, §4.6), chase the vertex there *)
            let owner = item_owner t vid h in
            if owner <> t.sid then forward_item owner item
        | Some vertex ->
            if Mgraph.vertex_alive bf vertex ~at:p_ts then begin
              incr n_visited;
              if memo_reads then visited := vid :: !visited;
              (counters t).Runtime.vertices_read <-
                (counters t).Runtime.vertices_read + 1;
              (* a replica-served read is load on its home shard's
                 partition all the same *)
              Runtime.heat_read t.rt ~shard:t.home vid;
              let ctx = { Nodeprog.vid; at = p_ts; before = bf; vertex } in
              let state =
                match !pstate with Some tbl -> Tbl.Probe.find_opt tbl h | None -> None
              in
              (* a repeat visit only touches the per-program state, not the
                 full vertex record: charge a tenth of a read *)
              read_cost_units :=
                !read_cost_units +. (match state with None -> 1.0 | Some _ -> 0.1);
              let state', hops, partial = P.run ctx ~params ~state in
              (* a visit that hands the state back as it got it stores
                 nothing *)
              if state' != state then prog_state_set t p.p_id pstate h state';
              acc := P.merge !acc partial;
              (match hops with
              | [] -> ()
              | hops ->
                  let out = vertex.Mgraph.out in
                  let hs = hop_handles t h vertex in
                  (* programs usually hop along their edges in edge order *)
                  let next = ref 0 in
                  List.iter
                    (fun (hvid, hparams) ->
                      let i = edge_slot out hvid !next in
                      if i >= 0 then next := i + 1;
                      let dh = if i >= 0 then hs.(i) else Runtime.vertex_handle t.rt hvid in
                      (* from a read replica, hops go to the same-index
                         replica of the hop's shard, so a weak traversal
                         stays on replicas (§6.4) *)
                      let dst =
                        Runtime.sibling t.rt t.sid ~shard:(Runtime.shard_of_handle t.rt dh)
                      in
                      let hop = (hvid, dh, hparams) in
                      if dst = t.sid then Queue.push hop work else forward_item dst hop)
                    hops)
            end
        end
      done;
      (* (server, hops) per server forwarded to. Hops to several servers
         leave in the iteration order of a [Tbl.Int] keyed by server,
         filled once per server in first-hop order; most batches forward
         nothing or to one server, which needs no table. *)
      let take server =
        let items = fwd.(server) in
        fwd.(server) <- [];
        items
      in
      let remote =
        match !fwd_order with
        | [] -> []
        | [ server ] -> [ (server, take server) ]
        | order ->
            let tbl = Tbl.Int.create 4 in
            List.iter (fun server -> Tbl.Int.replace tbl server (take server)) (List.rev order);
            List.rev (Tbl.Int.fold (fun server items acc -> (server, items) :: acc) tbl [])
      in
      if !aborted then
        send t ~dst:p.p_coord
          (Msg.Prog_partial
             {
               prog_id = p.p_id;
               sent = 0;
               acc = Progval.Null;
               visited = [];
               error = Some "snapshot-gced";
             })
      else begin
      let cost = ((cfg t).Config.vertex_read_cost *. !read_cost_units) +. !page_cost in
      let start = Float.max (Engine.now t.rt.Runtime.engine) t.busy_until in
      t.busy_until <- start +. cost;
      t.busy_us <- t.busy_us +. cost;
      let acc = !acc and visited = !visited and n_visited = !n_visited in
      Engine.schedule_at t.rt.Runtime.engine ~time:t.busy_until (fun () ->
          if not t.retired then begin
            if Runtime.tracing t.rt ~trace:p.p_id then
              Runtime.trace_span t.rt ~trace:p.p_id ~name:"shard.prog_exec"
                ~actor:(actor t) ~start:exec_start ~stop:(now t)
                ~meta:[ ("visited", string_of_int n_visited) ]
                ();
            let sent = List.length remote in
            List.iter
              (fun (hshard, items) ->
                (counters t).Runtime.prog_batch_msgs <-
                  (counters t).Runtime.prog_batch_msgs + 1;
                send t
                  ~dst:(Runtime.shard_addr t.rt hshard)
                  (Msg.Prog_batch
                     {
                       coord = p.p_coord;
                       prog_id = p.p_id;
                       ts = p_ts;
                       prog = p.p_prog;
                       historical = p.p_historical;
                       items;
                       sent_at = now t;
                     }))
              remote;
            send t ~dst:p.p_coord
              (Msg.Prog_partial
                 { prog_id = p.p_id; sent; acc; visited; error = None })
          end)
      end

(* Carry out the gate's actions until it idles, then run the parked
   batches it clears. A consult is a round trip to the timeline oracle
   that honours the network's active latency-degrade factor, like any
   other message to the oracle's address would; [oracle_gen] voids its
   completion across epoch changes and crash-restarts. *)
let rec oracle_done t gen () =
  if (not t.retired) && Gate.consulting t.gate && t.oracle_gen = gen then begin
    (* serialize the whole coalesced batch in join order: one round trip
       decides every conflict discovered while it was out *)
    ignore (Runtime.oracle_serialize t.rt (Gate.end_consult t.gate));
    try_advance t
  end

and start_consult t =
  let c = counters t in
  c.Runtime.oracle_consults <- c.Runtime.oracle_consults + 1;
  c.Runtime.shard_oracle_consults <- c.Runtime.shard_oracle_consults + 1;
  let oracle_delay =
    2.0 *. (cfg t).Config.net_base_latency *. Net.latency_factor t.rt.Runtime.net
  in
  Runtime.observe t.rt "shard.oracle_wait" oracle_delay;
  Engine.schedule t.rt.Runtime.engine ~delay:oracle_delay (oracle_done t t.oracle_gen)

and try_advance t =
  if not t.retired then begin
    let continue = ref true in
    while !continue do
      match Gate.step t.gate with
      | Gate.Pop g -> apply_tx t ~gk:g (Gate.applied t.gate g)
      | Gate.Start_consult -> start_consult t
      | Gate.Join_consult ->
          (counters t).Runtime.shard_oracle_batched <-
            (counters t).Runtime.shard_oracle_batched + 1
      | Gate.Idle -> continue := false
    done;
    run_parked t
  end

and run_parked t =
  match Gate.runnable t.gate ~now:(now t) with
  | [] -> ()
  | ready -> List.iter (execute_prog_batch t) ready

(* ------------------------------------------------------------------ *)
(* Recovery (§4.3): restore this shard's partition from the backing store. *)

(* adopt this server's list of [by_shard] ([Runtime.records_by_shard]; a read
   replica owns none) in key order, up to the capacity; follower copies
   stay as they are *)
let load_records t by_shard =
  Dense.fold (fun h _ ~flag acc -> if flag then acc else h :: acc) t.graph []
  |> List.iter (Dense.remove t.graph);
  Tbl.Probe.reset t.gc_pending;
  Ring.clear t.lru;
  Array.fill t.lru_count 0 (Array.length t.lru_count) 0;
  Array.fill t.hop_out 0 (Array.length t.hop_out) [||];
  Array.fill t.hop_h 0 (Array.length t.hop_h) [||];
  let cap = (cfg t).Config.shard_capacity in
  List.iter
    (fun (h, v) ->
      let under_cap =
        match cap with None -> true | Some c -> resident_vertices t < c
      in
      if under_cap then begin
        adopt t h v;
        touch t h
      end)
    (if is_replica t then [] else by_shard.(t.sid))

let reload_from_store t =
  load_records t (if is_replica t then [||] else Runtime.records_by_shard t.rt)

(* Drop what lived only in memory between barriers: queued transactions
   and FIFO bookkeeping, parked programs, the in-flight consult, the cut
   and stream credits. The store reload that follows restores the full
   version history, so the compaction floor resets too. *)
let drop_volatile t =
  Gate.reset t.gate;
  Array.fill t.last_seq 0 (Array.length t.last_seq) 0;
  Array.fill t.seq_epoch 0 (Array.length t.seq_epoch) (-1);
  t.oracle_gen <- t.oracle_gen + 1;
  t.cut <- None;
  t.gc_floor <- None;
  Flow.Credits.reset t.repl_credits

let handle_epoch_change t new_epoch =
  if new_epoch > t.epoch then begin
    t.epoch <- new_epoch;
    drop_volatile t;
    (* replication across the barrier: old-epoch watermarks can never
       cover new-epoch reads, and in-flight stream traffic died with the
       queues — stop advertising and reseed every follower *)
    Hashtbl.iter (fun _ rin -> rin.rin_wm <- None) t.repl_in;
    mark_followers_dirty t;
    reload_from_store t;
    send t ~dst:(Runtime.manager_addr t.rt)
      (Msg.Epoch_ack { server = t.addr; epoch = new_epoch })
  end

(* ------------------------------------------------------------------ *)
(* Multi-version GC (§4.5): compact below the pointwise-min watermark. *)

let handle_watermark t gk ts =
  t.wm.(gk) <- Some ts;
  if Array.for_all Option.is_some t.wm then begin
    let wm =
      Array.fold_left
        (fun acc o ->
          match (acc, o) with
          | None, Some w -> Some w
          | Some a, Some w -> Some (Runtime.stamp_min a w)
          | _, None -> acc)
        None t.wm
      |> Option.get
    in
    t.cut <- Some wm;
    (* retain the floor (monotone within an epoch); epoch barriers reset
       it because the reload restores the full history *)
    t.gc_floor <-
      (match t.gc_floor with
      | Some f when f.Vclock.epoch = wm.Vclock.epoch -> Some (Vclock.merge f wm)
      | _ -> Some wm);
    (* vclock-only comparison: a version strictly below the watermark by
       vector clock alone is unreachable by any current or future read *)
    let vb a b = Vclock.precedes a b in
    (* only vertices in [gc_pending] can hold a closed version; [compact]
       returns every other record unchanged. Replacing an existing key
       updates its binding in place and removals commute, so [t.graph]
       ends exactly as a compaction of every resident vertex leaves it. *)
    Tbl.Probe.filter_map_inplace
      (fun h () ->
        (counters t).Runtime.gc_compact_visits <-
          (counters t).Runtime.gc_compact_visits + 1;
        match Dense.find_opt t.graph h with
        | None -> None
        | Some v -> (
            match Mgraph.compact vb v ~watermark:wm with
            | None ->
                Dense.remove t.graph h;
                forget_hops t h;
                None
            | Some v' ->
                if v' != v then Dense.update t.graph h v';
                if Mgraph.has_closed v' then Some () else None))
      t.gc_pending;
    (* partial replication, owner side: advance followers at the watermark
       boundary. Only once every transaction at or below [wm] has actually
       been applied here (watermark gossip shares the gatekeeper FIFO with
       Shard_tx, so covered transactions have *arrived*, but one may still
       be queued behind an oracle consult). Only the heads are checked,
       and per-gatekeeper stamps are not monotone in FIFO order (see
       [Gate.arrive]), so a covered transaction queued behind an
       uncovered head is missed. Clean followers get a
       watermark heartbeat: FIFO order guarantees they received every
       streamed update below it first. Dirty followers get a wholesale
       reseed of the owner's records at this cut — immutable, so sharing
       is safe — after which the stream is clean again. *)
    if Hashtbl.length t.repl_out > 0 then begin
      let applied_through_wm =
        Gate.for_all_heads t.gate (fun head -> not (Repl.covers ~wm head.Gate.q_ts))
      in
      if applied_through_wm then
        List.iter
          (fun range ->
            let out = Hashtbl.find t.repl_out range in
            let seed = lazy (
              Dense.fold
                (fun h v ~flag acc ->
                  let vid = Runtime.vertex_name t.rt h in
                  if (not flag) && repl_range t vid = range then (vid, v) :: acc else acc)
                t.graph [])
            in
            List.iter
              (fun f ->
                if Hashtbl.mem out.ro_dirty f then begin
                  Hashtbl.remove out.ro_dirty f;
                  Flow.Credits.reset_peer t.repl_credits f;
                  (counters t).Runtime.repl_resyncs <-
                    (counters t).Runtime.repl_resyncs + 1;
                  send t
                    ~dst:(Runtime.shard_addr t.rt f)
                    (Msg.Repl_seed
                       { range; owner = t.sid; ts = wm; vertices = Lazy.force seed })
                end
                else
                  send t
                    ~dst:(Runtime.shard_addr t.rt f)
                    (Msg.Repl_update { range; owner = t.sid; ts = wm; ops = [] }))
              out.ro_followers)
          (List.sort compare (Hashtbl.fold (fun r _ acc -> r :: acc) t.repl_out []))
    end
  end

(* ------------------------------------------------------------------ *)

let handle t ~src:_ msg =
  if not t.retired then
    match (msg : Msg.t) with
    | Msg.Shard_tx { gk; seq; ts; ops; trace } ->
        if ts.Vclock.epoch = t.epoch then begin
          (* FIFO channel check (§4.2): sequence numbers must be contiguous
             within an epoch *)
          if t.seq_epoch.(gk) <> t.epoch then begin
            t.seq_epoch.(gk) <- t.epoch;
            t.last_seq.(gk) <- seq
          end
          else begin
            assert (seq = t.last_seq.(gk) + 1);
            t.last_seq.(gk) <- seq
          end;
          if
            Gate.arrive t.gate gk
              { Gate.q_ts = ts; q_ops = ops; q_trace = trace; q_enq = now t }
          then
            (counters t).Runtime.stamp_inversions <- (counters t).Runtime.stamp_inversions + 1;
          try_advance t
        end
        (* other epochs: stale or not-yet-adopted traffic; the store reload
           at the epoch barrier covers the effects (§4.3) *)
    | Msg.Prog_batch { coord; prog_id; ts; prog; historical; items; sent_at } ->
        (* the network/fan-out leg of a node program, from the sender's
           dispatch to arrival here — the phase client-tx slow-log entries
           already had and program entries were missing *)
        Stats.add t.prog_hop_wait (now t -. sent_at);
        if Runtime.tracing t.rt ~trace:prog_id then
          Runtime.trace_span t.rt ~trace:prog_id ~name:"shard.prog_hop"
            ~actor:(actor t) ~start:sent_at ~stop:(now t) ();
        (* below the cut nothing can still arrive that the read could see:
           it runs at once, from the durable store *)
        Gate.park t.gate ~ts ~since:(Engine.now t.rt.Runtime.engine)
          ~gated:(not (historical && below_cut t ts))
          {
            p_coord = coord;
            p_id = prog_id;
            p_prog = prog;
            p_historical = historical;
            p_items = items;
          };
        run_parked t
    | Msg.Prog_gc { prog_id } -> Tbl.Probe.remove t.prog_state prog_id
    | Msg.Watermark { gk; ts } -> handle_watermark t gk ts
    | Msg.Epoch_change { epoch } -> handle_epoch_change t epoch
    | Msg.Repl_update { range; owner; ts; ops } -> (
        match Hashtbl.find_opt t.repl_in range with
        | Some rin when rin.rin_wm <> None ->
            if ops = [] then begin
              (* watermark heartbeat: everything at or below [ts] has been
                 streamed (FIFO), so this copy now covers it *)
              rin.rin_wm <- Some ts;
              advertise_cover t range ts
            end
            else begin
              t.repl_applied <- t.repl_applied + 1;
              List.iter (apply_op t ~copy:true ts) ops;
              (* return the stream credit this update spent at the owner *)
              if (cfg t).Config.shard_credits > 0 then begin
                (counters t).Runtime.credit_msgs <-
                  (counters t).Runtime.credit_msgs + 1;
                send t
                  ~dst:(Runtime.shard_addr t.rt owner)
                  (Msg.Credit { shard = t.sid; gk = owner; n = 1 })
              end
            end
        | _ -> () (* not following, or awaiting the first seed *))
    | Msg.Repl_seed { range; owner; ts; vertices } ->
        (* a seed is self-sufficient: create the follower entry on the
           fly rather than dropping the sync *)
        let rin =
          match Hashtbl.find_opt t.repl_in range with
          | Some rin -> rin
          | None ->
              let rin = { rin_owner = owner; rin_wm = None; rin_floor = None } in
              Hashtbl.replace t.repl_in range rin;
              rin
        in
        (* wholesale (re)sync: drop the stale copy of this range and adopt
           the owner's records at the [ts] cut verbatim *)
        let stale =
          Dense.fold
            (fun h _ ~flag acc ->
              if flag && repl_range t (Runtime.vertex_name t.rt h) = range then h :: acc
              else acc)
            t.graph []
        in
        List.iter (drop t) stale;
        List.iter (fun (vid, v) -> set_copy t (Runtime.vertex_handle t.rt vid) v) vertices;
        t.repl_applied <- t.repl_applied + 1;
        rin.rin_wm <- Some ts;
        rin.rin_floor <- Some ts;
        advertise_cover t range ts
    | Msg.Credit { shard; gk = _; n } ->
        (* a follower returning replication-stream credits *)
        Flow.Credits.refund t.repl_credits shard n
    | _ -> ()

let start_timers t =
  Engine.every t.rt.Runtime.engine ~period:(cfg t).Config.heartbeat_period (fun () ->
      if t.retired then false
      else begin
        if Net.is_alive t.rt.Runtime.net t.addr then begin
          (counters t).Runtime.heartbeat_msgs <-
            (counters t).Runtime.heartbeat_msgs + 1;
          send t ~dst:(Runtime.manager_addr t.rt) (Msg.Heartbeat { server = t.addr })
        end;
        true
      end)

let spawn rt ~sid ~epoch =
  let n_g = rt.Runtime.cfg.Config.n_gatekeepers in
  let home = Runtime.home_shard rt sid in
  let addr = Runtime.shard_addr rt sid in
  (* one FIFO queue per gatekeeper; a read replica has none *)
  let n_q = if home = sid then n_g else 0 in
  let plan = Runtime.standing_plan rt in
  let t =
    {
      rt;
      sid;
      home;
      addr;
      actor = Runtime.actor_of_addr rt addr;
      graph = Dense.create ();
      gc_pending = Tbl.Probe.create 64;
      lru = Ring.create ();
      lru_count = [||];
      hop_out = [||];
      hop_h = [||];
      last_seq = Array.make n_q 0;
      seq_epoch = Array.make n_q (-1); (* sentinel: re-baseline per channel *)
      gate =
        Gate.create (Runtime.ordering rt) ~queues:n_q
          ~patience:
            (* roughly two announce rounds (vector clocks will have
               resolved the pair by then if they ever will), capped so an
               enormous tau still makes progress reactively *)
            (Float.min
               (2.0 *. (rt.Runtime.cfg.Config.tau +. rt.Runtime.cfg.Config.nop_period))
               10_000.0);
      prog_state = Tbl.Probe.create 32;
      fwd = Array.make (Runtime.n_servers rt) [];
      oracle_gen = 0;
      busy_until = 0.0;
      busy_us = 0.0;
      epoch;
      wm = Array.make n_g None;
      cut = None;
      gc_floor = None;
      repl_out = Hashtbl.create 8;
      repl_in = Hashtbl.create 8;
      repl_credits =
        Flow.Credits.create ~peers:(Runtime.n_servers rt)
          ~credits:rt.Runtime.cfg.Config.shard_credits;
      repl_applied = 0;
      queue_wait = Runtime.reservoir rt "shard.queue_wait";
      prog_gate_wait = Runtime.reservoir rt "shard.prog_gate_wait";
      prog_hop_wait = Runtime.reservoir rt "shard.prog_hop_wait";
      retired = false;
    }
  in
  Runtime.register rt t.addr (fun ~src msg -> handle t ~src msg);
  (* utilization gauges (see the gatekeeper note on respawn semantics):
     busy time and the aggregate depth of the per-gatekeeper FIFO queues *)
  Weaver_obs.Metrics.gauge rt.Runtime.metrics
    (Printf.sprintf "util.%s.busy_us" t.actor)
    (fun () -> int_of_float t.busy_us);
  List.iter (install_plan t) plan;
  (* read replicas are not failure-detected: no queue gauge, no heartbeat *)
  if not (is_replica t) then begin
    Weaver_obs.Metrics.gauge rt.Runtime.metrics
      (Printf.sprintf "util.%s.queue_depth" t.actor)
      (fun () -> Array.fold_left ( + ) 0 (Gate.depths t.gate));
    start_timers t
  end;
  if epoch > 0 then reload_from_store t;
  t

let retire t = t.retired <- true

(* A bulk load bypassed the stream: reload every server and reseed every
   follower at the next watermark. One scan of the store serves them all. *)
let reload_all rt servers =
  let by_shard = Runtime.records_by_shard rt in
  Array.iter
    (fun t ->
      load_records t by_shard;
      mark_followers_dirty t)
    servers

(* A peer server crash-restarted: any follower copies it held died with
   it, so if it follows one of our replicated ranges, mark it dirty for a
   wholesale reseed at the next watermark and refill its credit column
   (stream credits it carried can never be refunded). *)
let on_peer_restart t ~peer =
  Hashtbl.iter
    (fun _ out ->
      if List.mem peer out.ro_followers then begin
        Hashtbl.replace out.ro_dirty peer ();
        Flow.Credits.reset_peer t.repl_credits peer
      end)
    t.repl_out

(* Crash-restart within the current epoch (fault-plan [Restart] firing
   before the manager's failure detector noticed): queued work and FIFO
   bookkeeping from before the crash are meaningless — messages were lost
   while dead — so drop them, let the next Shard_tx per gatekeeper
   re-baseline its channel (the [seq_epoch] sentinel), and restore the
   partition from the backing store, which holds every committed effect
   including those whose Shard_tx never arrived. Must run before the
   endpoint is revived, or an in-order-but-gapped sequence number trips
   the FIFO assertion. Effects committed within one network delay of the
   restart can be both reloaded and replayed by a still-in-flight
   Shard_tx; the durable store stays authoritative and the next epoch
   barrier reconciles the in-memory copy. *)
let resync t =
  drop_volatile t;
  (* replication state died with the crash: as a follower, the copies and
     watermarks are stale-but-safe at the gatekeepers (routed reads miss
     here and chase the owner) until the owner's next seed; as an owner,
     the standing plan reinstalled here re-marks every follower dirty and
     the next watermark reseeds them *)
  Hashtbl.reset t.repl_out;
  Hashtbl.reset t.repl_in;
  Dense.reset t.graph; (* so the reload below keeps no copy *)
  List.iter (install_plan t) (Runtime.standing_plan t.rt);
  reload_from_store t
