module Vclock = Weaver_vclock.Vclock
module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Store = Weaver_store.Store
module Mgraph = Weaver_graph.Mgraph
module Flow = Weaver_flow.Flow
module Repl = Weaver_repl.Repl
module Stats = Weaver_util.Stats
module Tbl = Weaver_util.Tbl

type prog_run = {
  pr_id : int; (* the client's request id; a re-run is keyed by its negation *)
  pr_client : int;
  pr_prog : string;
  pr_params : Progval.t;
  pr_starts : string list;
  pr_ts : Vclock.t;
  pr_memo_key : string option; (* None: historical run or memoization off *)
  pr_historical : bool; (* [at] was set: pinned to a past snapshot *)
  pr_restamped : bool;
      (* a weak run stamped at its followers' watermark: it holds no GC
         watermark back ([oldest_active_stamp]) *)
  pr_started : float; (* virtual time the run was admitted, for tracing *)
  mutable pr_outstanding : int;
  mutable pr_acc : Progval.t;
  mutable pr_visited : string list;
}

type memo_entry = { m_result : Progval.t; m_reads : string list }

type t = {
  rt : Runtime.t;
  gid : int;
  addr : int;
  mutable clock : Vclock.t;
  mutable epoch : int;
  seqs : int array; (* next FIFO sequence number per shard *)
  active : prog_run Tbl.Int.t;
  memo : (string, memo_entry) Hashtbl.t;
  (* duplicate suppression: committed (client, tx_id) pairs — local commits
     and peers' commit notes — with the reads their Tx_reply carried, so a
     retry of an already-committed transaction is answered instead of
     re-executed. FIFO-bounded by [dedup_capacity]. *)
  dedup : (int * int, (string * Progval.t) list) Hashtbl.t;
  dedup_q : (int * int) Queue.t;
  in_progress : (int * int, unit) Hashtbl.t;
  mutable busy_until : float;
  mutable busy_us : float; (* total service time charged — utilization *)
  (* overload management: the admission gate and the per-shard credit
     ledger. Both are inert (pure reads, no sheds) with the default
     all-zero Config knobs, keeping the baseline arm bit-identical. *)
  adm : Flow.Admission.t;
  credits : Flow.Credits.t;
  (* replication: the range → followers table of [Runtime.standing_plan]
     with the coverage watermarks the followers advertise. Empty (and never consulted) when nothing follows. *)
  repl : Repl.Table.t;
  repl_rr : (int, int) Hashtbl.t;
      (* per-range round-robin over the range's live copies: one shared
         counter would alias with the request pattern and pin a range to
         one copy *)
  mutable cur_tau : float; (* current announce period (adaptive, §3.5) *)
  mutable requests_seen : int; (* client requests since the last window *)
  prog_service : Stats.t;
  admission_wait : Stats.t; (* hot-path reservoirs, resolved once at spawn *)
  mutable retired : bool;
}

let gid t = t.gid
let epoch t = t.epoch
let clock t = t.clock

let tick t =
  t.clock <- Vclock.tick t.clock ~origin:t.gid;
  t.clock

let alive t = (not t.retired) && Net.is_alive t.rt.Runtime.net t.addr

let send t ~dst msg = Runtime.send t.rt ~src:t.addr ~dst msg

let cfg t = t.rt.Runtime.cfg
let counters t = t.rt.Runtime.counters
let actor t = "gk" ^ string_of_int t.gid
let now t = Engine.now t.rt.Runtime.engine

(* Ship a transaction's effects to a shard over its FIFO channel, or a NOP
   when [ops = []]. A real transaction spends a flow-control credit, which
   the shard refunds when it applies it. *)
let send_shard_tx t shard ~ts ~ops ~trace =
  let c = counters t in
  t.seqs.(shard) <- t.seqs.(shard) + 1;
  if ops = [] then c.Runtime.nop_msgs <- c.Runtime.nop_msgs + 1
  else begin
    c.Runtime.shard_tx_msgs <- c.Runtime.shard_tx_msgs + 1;
    Flow.Credits.consume t.credits shard
  end;
  send t ~dst:(Runtime.shard_addr t.rt shard)
    (Msg.Shard_tx { gk = t.gid; seq = t.seqs.(shard); ts; ops; trace })

(* ------------------------------------------------------------------ *)
(* Transactions (§4.2): validate and execute on the backing store, then
   forward committed write effects to the owning shards. *)

let get_vrec stx vid =
  match Store.Tx.get stx (Runtime.vkey vid) with
  | Some (Runtime.Vrec v) -> Some v
  | _ -> None

let vertex_live_latest (v : Mgraph.vertex) = v.Mgraph.v_life.Mgraph.deleted = None

let edge_live_latest (v : Mgraph.vertex) eid =
  Array.exists
    (fun (e : Mgraph.edge) ->
      String.equal e.Mgraph.eid eid && e.Mgraph.e_life.Mgraph.deleted = None)
    v.Mgraph.out

(* Run the buffered operations against the backing store inside one OCC
   transaction. Returns the shard-bound effects on success. *)
let exec_on_store t ts (ops : Txop.t list) =
  let rt = t.rt in
  let stx = Store.Tx.begin_ rt.Runtime.store in
  let before a b = Runtime.before rt a b ~prefer_first_on_tie:true in
  let shard_ops : (string * Msg.shard_op) list ref = ref [] in
  let written : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let reads : (string * Progval.t) list ref = ref [] in
  (* summary of a vertex as of this transaction's snapshot: the data a
     Read_vertex hands back to the client *)
  let summarize vid = function
    | None -> Progval.Null
    | Some (v : Mgraph.vertex) ->
        if not (vertex_live_latest v) then Progval.Null
        else
          let live_edges =
            List.filter
              (fun (e : Mgraph.edge) -> e.Mgraph.e_life.Mgraph.deleted = None)
              (Array.to_list v.Mgraph.out)
          in
          let props =
            List.filter_map
              (fun (p : Mgraph.prop) ->
                if p.Mgraph.p_life.Mgraph.deleted = None then
                  Some (p.Mgraph.pkey, Progval.Str p.Mgraph.pval)
                else None)
              (Array.to_list v.Mgraph.v_props)
          in
          Progval.Assoc
            [
              ("vid", Progval.Str vid);
              ("degree", Progval.Int (List.length live_edges));
              ("out", Progval.List (List.map (fun (e : Mgraph.edge) -> Progval.Str e.Mgraph.dst) live_edges));
              ("props", Progval.Assoc props);
            ]
  in
  (* effects carry the vertex id; the owning shard is resolved only after
     the commit, so transactions racing a migration follow the directory
     entry their serialization point sees (§4.6) *)
  let emit vid op =
    Hashtbl.replace written vid ();
    shard_ops := (vid, op) :: !shard_ops
  in
  let put_vrec vid v = Store.Tx.put stx (Runtime.vkey vid) (Runtime.Vrec v) in
  let invalid what = Error (`Invalid what) in
  let rec go = function
    | [] -> Ok ()
    | op :: rest -> (
        let step =
          match (op : Txop.t) with
          | Create_vertex vid -> (
              match get_vrec stx vid with
              | Some v when vertex_live_latest v -> invalid ("vertex exists: " ^ vid)
              | _ ->
                  let v = Mgraph.create_vertex ~vid ~at:ts in
                  put_vrec vid v;
                  let shard =
                    Weaver_partition.Partition.hash_vertex
                      ~shards:(cfg t).Config.n_shards vid
                  in
                  Store.Tx.put stx (Runtime.dirkey vid) (Runtime.Dir shard);
                  emit vid (Msg.S_create_vertex vid);
                  Ok ())
          | Delete_vertex vid -> (
              match get_vrec stx vid with
              | Some v when vertex_live_latest v ->
                  put_vrec vid (Mgraph.delete_vertex v ~at:ts);
                  emit vid (Msg.S_delete_vertex vid);
                  Ok ()
              | _ -> invalid ("no such vertex: " ^ vid))
          | Create_edge { eid; src; dst } -> (
              match (get_vrec stx src, get_vrec stx dst) with
              | Some sv, Some dv when vertex_live_latest sv && vertex_live_latest dv ->
                  put_vrec src (Mgraph.add_edge sv ~eid ~dst ~at:ts);
                  emit src (Msg.S_add_edge { src; eid; dst });
                  Ok ()
              | _ -> invalid ("create_edge endpoints missing: " ^ src ^ "->" ^ dst))
          | Delete_edge { eid; src } -> (
              match get_vrec stx src with
              | Some sv when vertex_live_latest sv && edge_live_latest sv eid ->
                  put_vrec src (Mgraph.delete_edge sv ~eid ~at:ts);
                  emit src (Msg.S_del_edge { src; eid });
                  Ok ()
              | _ -> invalid ("no such edge: " ^ eid))
          | Set_vertex_prop { vid; key; value } -> (
              match get_vrec stx vid with
              | Some v when vertex_live_latest v ->
                  put_vrec vid (Mgraph.set_vertex_prop before v ~key ~value ~at:ts);
                  emit vid (Msg.S_set_vprop { vid; key; value });
                  Ok ()
              | _ -> invalid ("no such vertex: " ^ vid))
          | Del_vertex_prop { vid; key } -> (
              match get_vrec stx vid with
              | Some v when vertex_live_latest v ->
                  put_vrec vid (Mgraph.del_vertex_prop before v ~key ~at:ts);
                  emit vid (Msg.S_del_vprop { vid; key });
                  Ok ()
              | _ -> invalid ("no such vertex: " ^ vid))
          | Set_edge_prop { src; eid; key; value } -> (
              match get_vrec stx src with
              | Some v when vertex_live_latest v && edge_live_latest v eid ->
                  put_vrec src (Mgraph.set_edge_prop before v ~eid ~key ~value ~at:ts);
                  emit src (Msg.S_set_eprop { src; eid; key; value });
                  Ok ()
              | _ -> invalid ("no such edge: " ^ eid))
          | Del_edge_prop { src; eid; key } -> (
              match get_vrec stx src with
              | Some v when vertex_live_latest v && edge_live_latest v eid ->
                  put_vrec src (Mgraph.del_edge_prop before v ~eid ~key ~at:ts);
                  emit src (Msg.S_del_eprop { src; eid; key });
                  Ok ()
              | _ -> invalid ("no such edge: " ^ eid))
          | Read_vertex vid ->
              reads := (vid, summarize vid (get_vrec stx vid)) :: !reads;
              Ok ()
        in
        match step with Ok () -> go rest | Error _ as e -> e)
  in
  match go ops with
  | Error (`Invalid what) ->
      Store.Tx.abort stx;
      Error (`Invalid what)
  | Ok () ->
      (* last-update timestamp checks (§4.2): the new stamp must follow the
         stamp of the latest committed write on every written vertex;
         otherwise abort and let the client retry with a fresher stamp. *)
      let lu_ok =
        Hashtbl.fold
          (fun vid () acc ->
            acc
            &&
            match Store.Tx.get stx (Runtime.lukey vid) with
            | Some (Runtime.Stamp lu) ->
                Runtime.before t.rt lu ts ~prefer_first_on_tie:true
            | _ -> true)
          written true
      in
      if not lu_ok then begin
        Store.Tx.abort stx;
        Error `Stale_timestamp
      end
      else begin
        Hashtbl.iter
          (fun vid () -> Store.Tx.put stx (Runtime.lukey vid) (Runtime.Stamp ts))
          written;
        (* hand the open transaction back: the commit happens after the
           store round trip, during which other gatekeepers' transactions
           may invalidate our read set (real OCC interleaving) *)
        Ok (stx, !shard_ops, written, List.rev !reads)
      end

let invalidate_memo_where t ~touched ~count =
  if (cfg t).Config.enable_memoization then begin
    let doomed =
      Hashtbl.fold
        (fun key entry acc ->
          if List.exists touched entry.m_reads then key :: acc else acc)
        t.memo []
    in
    List.iter
      (fun k ->
        Hashtbl.remove t.memo k;
        count ())
      doomed
  end

let invalidate_memo t written =
  invalidate_memo_where t
    ~touched:(fun vid -> Hashtbl.mem written vid)
    ~count:(fun () ->
      (counters t).Runtime.memo_invalidations <-
        (counters t).Runtime.memo_invalidations + 1)

(* a peer gatekeeper committed a write: its commit note closes the
   cross-gatekeeper staleness hole — without it, a memo entry filled on
   this gatekeeper would keep serving strong reads that miss the write *)
let invalidate_memo_remote t written =
  invalidate_memo_where t
    ~touched:(fun vid -> List.mem vid written)
    ~count:(fun () ->
      (counters t).Runtime.memo_remote_invalidations <-
        (counters t).Runtime.memo_remote_invalidations + 1)

(* Committed [(client, tx_id)] pairs each gatekeeper remembers, oldest
   evicted first: a client retry of an already-committed transaction within
   this window replies [Ok] instead of double-applying. *)
let dedup_capacity = 512

let record_dedup t ~client ~tx_id ~reads =
  let key = (client, tx_id) in
  if not (Hashtbl.mem t.dedup key) then begin
    Hashtbl.replace t.dedup key reads;
    Queue.push key t.dedup_q;
    while Queue.length t.dedup_q > dedup_capacity do
      Hashtbl.remove t.dedup (Queue.pop t.dedup_q)
    done
  end

(* tell the peer gatekeepers about a commit: written-vertex set for memo
   invalidation, (client, tx_id, reads) for duplicate suppression *)
let broadcast_commit_note t ~client ~tx_id ~written ~reads =
  let n_g = (cfg t).Config.n_gatekeepers in
  if n_g > 1 then
    for g = 0 to n_g - 1 do
      if g <> t.gid then
        send t ~dst:(Runtime.gk_addr t.rt g)
          (Msg.Commit_note { gk = t.gid; client; tx_id; written; reads })
    done

(* A revival after a network partition (fault-plan [Restart]) may have
   missed peers' commit notes, so the memo table can hold entries no note
   will ever invalidate: drop it wholesale. The dedup window stays — its
   entries record durable commits, which remain true. *)
let on_revive t = Hashtbl.reset t.memo

(* a duplicate of an already-committed transaction: answer with the
   original outcome instead of re-executing (the retried create_vertex
   would otherwise come back "invalid: vertex exists") *)
let reply_from_dedup t ~client ~tx_id ~name reads =
  (counters t).Runtime.dedup_hits <- (counters t).Runtime.dedup_hits + 1;
  Runtime.trace_span t.rt ~trace:tx_id ~name ~actor:(actor t) ~start:(now t)
    ~stop:(now t) ~meta:[ ("dedup", "hit") ] ();
  send t ~dst:client (Msg.Tx_reply { tx_id; result = Ok (); reads })

let handle_tx_req t ~client ~tx_id ops =
  let ts = tick t in
  let epoch_at_start = t.epoch in
  let t0 = now t in
  let key = (client, tx_id) in
  (* one store round trip to read and buffer, one to validate and commit;
     the gatekeeper keeps serving other requests meanwhile, and other
     transactions may commit between the two phases (OCC) *)
  let phase_cost =
    (cfg t).Config.store_op_cost *. float_of_int (1 + List.length ops)
  in
  let reply ?(reads = []) result =
    Hashtbl.remove t.in_progress key;
    let fin = now t in
    Runtime.observe t.rt "gk.tx_service" (fin -. t0);
    if Runtime.tracing t.rt ~trace:tx_id then
      Runtime.trace_span t.rt ~trace:tx_id ~name:"gk.tx" ~actor:(actor t) ~start:t0
        ~stop:fin
        ~meta:[ ("result", match result with Ok () -> "ok" | Error e -> e) ]
        ();
    send t ~dst:client (Msg.Tx_reply { tx_id; result; reads })
  in
  let store_span ~phase ~start =
    let stop = now t in
    Runtime.observe t.rt "gk.store_rtt" (stop -. start);
    if Runtime.tracing t.rt ~trace:tx_id then
      Runtime.trace_span t.rt ~trace:tx_id ~name:"store.round_trip" ~actor:"store"
        ~start ~stop ~meta:[ ("phase", phase) ] ()
  in
  let abort_counted () =
    (counters t).Runtime.tx_aborted <- (counters t).Runtime.tx_aborted + 1;
    reply (Error "conflict")
  in
  match Hashtbl.find_opt t.dedup key with
  | Some reads -> reply_from_dedup t ~client ~tx_id ~name:"gk.tx" reads
  | None when Hashtbl.mem t.in_progress key ->
      (* the original attempt is still mid-flight on this gatekeeper; its
         reply (or this client's timeout) resolves the request — executing
         the duplicate too would double-apply *)
      (counters t).Runtime.dedup_dropped <- (counters t).Runtime.dedup_dropped + 1
  | None ->
  Hashtbl.replace t.in_progress key ();
  Engine.schedule t.rt.Runtime.engine ~delay:phase_cost (fun () ->
      store_span ~phase:"read" ~start:t0;
      if not (alive t) then Hashtbl.remove t.in_progress key
      else if t.epoch <> epoch_at_start then reply (Error "epoch-change")
        else begin
          match exec_on_store t ts ops with
          | Ok (stx, shard_ops, written, reads) ->
              let p2_start = now t in
              Engine.schedule t.rt.Runtime.engine ~delay:phase_cost (fun () ->
                  store_span ~phase:"commit" ~start:p2_start;
                  if not (alive t) then begin
                    Hashtbl.remove t.in_progress key;
                    Store.Tx.abort stx
                  end
                  else if t.epoch <> epoch_at_start then begin
                    Store.Tx.abort stx;
                    reply (Error "epoch-change")
                  end
                  else begin
                    match Store.Tx.commit stx with
                    | Error (`Conflict _) -> abort_counted ()
                    | Ok () ->
                        (counters t).Runtime.tx_committed <-
                          (counters t).Runtime.tx_committed + 1;
                        (* group effects by owning shard (directory read
                           post-commit); forward over FIFO channels *)
                        let by_shard = Hashtbl.create 4 in
                        List.iter
                          (fun (vid, op) ->
                            let shard = Runtime.shard_of_vertex t.rt vid in
                            let l =
                              try Hashtbl.find by_shard shard with Not_found -> []
                            in
                            Hashtbl.replace by_shard shard (op :: l))
                          (List.rev shard_ops);
                        (* a commit that fans out to more than one shard is
                           a cross-shard transaction: record a cross touch
                           per affected vertex so the heat map can separate
                           skew that partitioning could fix from load that
                           replication must absorb *)
                        if Hashtbl.length by_shard > 1 then
                          List.iter
                            (fun (vid, _) -> Runtime.heat_cross t.rt vid)
                            shard_ops;
                        Hashtbl.iter
                          (fun shard rev_ops ->
                            send_shard_tx t shard ~ts ~ops:(List.rev rev_ops) ~trace:tx_id)
                          by_shard;
                        invalidate_memo t written;
                        record_dedup t ~client ~tx_id ~reads;
                        let written_l =
                          Hashtbl.fold (fun vid () acc -> vid :: acc) written []
                        in
                        broadcast_commit_note t ~client ~tx_id ~written:written_l
                          ~reads;
                        reply ~reads (Ok ())
                  end)
          | Error `Stale_timestamp -> abort_counted ()
          | Error (`Invalid what) ->
              (counters t).Runtime.tx_invalid <- (counters t).Runtime.tx_invalid + 1;
              reply (Error ("invalid: " ^ what))
        end)

(* Relocate a vertex to another shard (dynamic colocation, §4.6): a store
   transaction moves the directory entry (OCC against concurrent writers),
   then timestamp-ordered migrate ops tell the old owner to drop its copy
   and the new owner to adopt from the backing store. *)
let handle_migrate_req t ~client ~tx_id ~vid ~to_shard =
  let ts = tick t in
  (* like the tx path: remember the epoch the timestamp and the FIFO
     sequence numbers belong to. An epoch change while the store round
     trip is in flight zeroes [t.seqs]; completing the migration with the
     stale stamp would then desynchronize the per-gatekeeper FIFO at both
     shards, so bail out instead and let the client retry *)
  let epoch_at_start = t.epoch in
  let t0 = now t in
  let key = (client, tx_id) in
  let reply result =
    Hashtbl.remove t.in_progress key;
    let fin = now t in
    Runtime.observe t.rt "gk.tx_service" (fin -. t0);
    Runtime.trace_span t.rt ~trace:tx_id ~name:"gk.migrate" ~actor:(actor t)
      ~start:t0 ~stop:fin
      ~meta:[ ("vid", vid); ("result", match result with Ok () -> "ok" | Error e -> e) ]
      ();
    send t ~dst:client (Msg.Tx_reply { tx_id; result; reads = [] })
  in
  match Hashtbl.find_opt t.dedup key with
  | Some _ -> reply_from_dedup t ~client ~tx_id ~name:"gk.migrate" []
  | None when Hashtbl.mem t.in_progress key ->
      (counters t).Runtime.dedup_dropped <- (counters t).Runtime.dedup_dropped + 1
  | None ->
  if to_shard < 0 || to_shard >= (cfg t).Config.n_shards then
    reply (Error "invalid: no such shard")
  else begin
    Hashtbl.replace t.in_progress key ();
    let cost = (cfg t).Config.store_op_cost *. 3.0 in
    Engine.schedule t.rt.Runtime.engine ~delay:cost (fun () ->
        Runtime.observe t.rt "gk.store_rtt" (now t -. t0);
        Runtime.trace_span t.rt ~trace:tx_id ~name:"store.round_trip" ~actor:"store"
          ~start:t0 ~stop:(now t) ~meta:[ ("phase", "migrate") ] ();
        if not (alive t) then Hashtbl.remove t.in_progress key
        else if t.epoch <> epoch_at_start then reply (Error "epoch-change")
          else begin
          let from_shard = Runtime.shard_of_vertex t.rt vid in
          let stx = Store.Tx.begin_ t.rt.Runtime.store in
          match get_vrec stx vid with
          | Some v when vertex_live_latest v ->
              if from_shard = to_shard then begin
                Store.Tx.abort stx;
                (* a no-op is still a committed outcome: without the dedup
                   entry (and the note telling peer gatekeepers), a retry
                   whose first reply was lost would re-execute and could
                   observe a different [from_shard] after a racing move *)
                record_dedup t ~client ~tx_id ~reads:[];
                broadcast_commit_note t ~client ~tx_id ~written:[] ~reads:[];
                reply (Ok ())
              end
              else begin
                Store.Tx.put stx (Runtime.dirkey vid) (Runtime.Dir to_shard);
                (match Store.Tx.get stx (Runtime.lukey vid) with
                | Some (Runtime.Stamp _) | None | Some _ ->
                    Store.Tx.put stx (Runtime.lukey vid) (Runtime.Stamp ts));
                match Store.Tx.commit stx with
                | Error (`Conflict _) ->
                    (counters t).Runtime.tx_aborted <- (counters t).Runtime.tx_aborted + 1;
                    reply (Error "conflict")
                | Ok () ->
                    send_shard_tx t from_shard ~ts ~ops:[ Msg.S_migrate_out vid ] ~trace:tx_id;
                    send_shard_tx t to_shard ~ts ~ops:[ Msg.S_migrate_in vid ] ~trace:tx_id;
                    (counters t).Runtime.migrations <- (counters t).Runtime.migrations + 1;
                    record_dedup t ~client ~tx_id ~reads:[];
                    broadcast_commit_note t ~client ~tx_id ~written:[] ~reads:[];
                    reply (Ok ())
              end
          | _ ->
              Store.Tx.abort stx;
              reply (Error ("invalid: no such vertex: " ^ vid))
        end)
  end

(* ------------------------------------------------------------------ *)
(* Node programs (§4.1): stamp, fan out to the shards owning the start
   vertices, count outstanding batches for termination detection. *)

(* The memo key must cover everything the result depends on. [weak] runs
   may observe stale replica state, so they can never share entries with
   strong runs. Historical runs ([at] set) are pinned to an arbitrary past
   snapshot: a memo entry computed against the latest state must not
   answer them — nor may their snapshot-bound result poison the cache for
   current reads — so they bypass memoization entirely (each [at] stamp
   is essentially unique; caching per stamp would never hit anyway). *)
let memo_key prog params starts ~weak =
  (if weak then "weak!" else "strong!")
  ^ prog ^ "?" ^ Progval.key params ^ "@" ^ String.concat "," starts

(* Replicated reads ([Weaver_repl]; the §6.4 read replicas are followers
   of every range of their home shard): a follower copy whose replication
   watermark covers a stamp answers reads at that stamp exactly as the
   owner would. With [replicated], a start goes, in rotation, to its live
   owner or a live follower of its range — for a historical run ([at] set)
   one covering the pinned stamp, for a weak run one advertising coverage
   in this epoch, together with that watermark, at which the run is then
   re-stamped. Returns [(vid, handle, server, follower-chosen, watermark)].
   A vid the cluster has never numbered is not numbered here: it travels
   with [Runtime.no_handle] and goes to its hashed placement. *)
let route t ~replicated ~at vid =
  let h =
    match Weaver_util.Intern.find t.rt.Runtime.names vid with
    | Some h -> h
    | None -> Runtime.no_handle
  in
  let owner =
    if h = Runtime.no_handle then Runtime.shard_of_vertex t.rt vid
    else Runtime.shard_of_handle t.rt h
  in
  if not replicated then (vid, h, owner, false, None)
  else
    let alive_server s = Net.is_alive t.rt.Runtime.net (Runtime.shard_addr t.rt s) in
    let range = Runtime.repl_range t.rt vid in
    let followers =
      match at with
      | Some ts -> List.map (fun f -> (f, None)) (Repl.Table.covering t.repl ~range ~at:ts)
      | None ->
          List.filter_map
            (fun (f, wm) ->
              match wm with
              | Some wm when wm.Vclock.epoch = t.epoch -> Some (f, Some wm)
              | _ -> None)
            (Repl.Table.followers t.repl ~range)
    in
    let followers = List.filter (fun (f, _) -> f <> owner && alive_server f) followers in
    let cands = if alive_server owner then (owner, None) :: followers else followers in
    let server, wm =
      match cands with
      | [] -> (owner, None)
      | [ only ] -> only
      | _ ->
          let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.repl_rr range) in
          Hashtbl.replace t.repl_rr range n;
          List.nth cands (n mod List.length cands)
    in
    (vid, h, server, server <> owner, wm)

let send_batch t ~key run server items ~routed =
  run.pr_outstanding <- run.pr_outstanding + 1;
  (counters t).Runtime.prog_batch_msgs <- (counters t).Runtime.prog_batch_msgs + 1;
  if routed then (counters t).Runtime.repl_routed <- (counters t).Runtime.repl_routed + 1;
  send t ~dst:(Runtime.shard_addr t.rt server)
    (Msg.Prog_batch
       {
         coord = t.addr;
         prog_id = key;
         ts = run.pr_ts;
         prog = run.pr_prog;
         historical = run.pr_historical;
         items;
         sent_at = now t;
       })

(* Send one batch per server to the routed starts of the run registered
   under [key]; a run with no live start vertex is answered at once. A
   batch lists its starts in reverse route order. Starts on several
   servers are grouped in a [Tbl.Int] and the batches leave in its
   iteration order; the common run, whose starts all sit on one server,
   needs no table. *)
let dispatch t ~key run routes =
  let item (vid, h, _, _, _) = (vid, h, run.pr_params) in
  (* a server some start was routed to as a follower: none, unless a weak
     or historical run met a covering follower *)
  let to_follower (_, _, _, f, _) = f in
  (match routes with
  | [] -> ()
  | (_, _, server, _, _) :: rest when List.for_all (fun (_, _, s, _, _) -> s = server) rest ->
      send_batch t ~key run server (List.rev_map item routes)
        ~routed:(List.exists to_follower routes)
  | _ ->
      let by_dst = Tbl.Int.create 4 in
      let routed = ref [] in
      List.iter
        (fun ((_, _, server, _, _) as route) ->
          let l = try Tbl.Int.find by_dst server with Not_found -> [] in
          Tbl.Int.replace by_dst server (item route :: l);
          if to_follower route && not (List.mem server !routed) then
            routed := server :: !routed)
        routes;
      Tbl.Int.iter
        (fun server items ->
          send_batch t ~key run server items ~routed:(List.mem server !routed))
        by_dst);
  if run.pr_outstanding = 0 then begin
    Tbl.Int.remove t.active key;
    (counters t).Runtime.progs_completed <- (counters t).Runtime.progs_completed + 1;
    send t ~dst:run.pr_client (Msg.Prog_reply { prog_id = run.pr_id; result = Ok run.pr_acc })
  end

let handle_prog_req t ~client ~prog_id ~prog ~params ~starts ~at ~weak =
  match Nodeprog.find t.rt.Runtime.registry prog with
  | None ->
      send t ~dst:client
        (Msg.Prog_reply { prog_id; result = Error ("unknown program: " ^ prog) })
  | Some (module P : Nodeprog.PROGRAM) -> (
      let historical = Option.is_some at in
      let memoizable = (cfg t).Config.enable_memoization && not historical in
      let mkey =
        if memoizable then Some (memo_key prog params starts ~weak) else None
      in
      match
        match mkey with Some k -> Hashtbl.find_opt t.memo k | None -> None
      with
      | Some entry ->
          (counters t).Runtime.memo_hits <- (counters t).Runtime.memo_hits + 1;
          (counters t).Runtime.progs_completed <-
            (counters t).Runtime.progs_completed + 1;
          Runtime.trace_span t.rt ~trace:prog_id ~name:"gk.prog" ~actor:(actor t)
            ~start:(now t) ~stop:(now t) ~meta:[ ("memo", "hit") ] ();
          send t ~dst:client (Msg.Prog_reply { prog_id; result = Ok entry.m_result })
      | None ->
          (* A weak run is stamped at the minimum watermark of the
             followers chosen, which every one of them covers and every
             owner gates on, or fresh if only owners were chosen. Fresh
             strong reads never route to followers (a stamp minted now is
             never covered by a watermark gossiped earlier). *)
          let replicated = (weak || historical) && Repl.Table.size t.repl > 0 in
          let routes = List.map (route t ~replicated ~at) starts in
          let cut = List.filter_map (fun (_, _, _, _, wm) -> wm) routes in
          let ts =
            match (at, cut) with
            | Some ts, _ -> ts
            | None, [] -> tick t
            | None, wm :: wms -> List.fold_left Runtime.stamp_min wm wms
          in
          let run =
            {
              pr_id = prog_id;
              pr_client = client;
              pr_prog = prog;
              pr_params = params;
              pr_starts = starts;
              pr_ts = ts;
              pr_memo_key = mkey;
              pr_historical = historical;
              pr_restamped = at = None && cut <> [];
              pr_started = now t;
              pr_outstanding = 0;
              pr_acc = P.empty;
              pr_visited = [];
            }
          in
          Tbl.Int.replace t.active prog_id run;
          dispatch t ~key:prog_id run routes)

(* release per-vertex program state on every shard server (§4.5) *)
let gc_everywhere t prog_id =
  for s = 0 to Runtime.n_servers t.rt - 1 do
    send t ~dst:(Runtime.shard_addr t.rt s) (Msg.Prog_gc { prog_id })
  done

let handle_prog_partial t ~prog_id ~sent ~acc ~visited ~error =
  match Tbl.Int.find_opt t.active prog_id with
  | None -> () (* stale partial from a pre-epoch or abandoned run *)
  | Some run -> (
      match Nodeprog.find t.rt.Runtime.registry run.pr_prog with
      | None -> ()
      | Some (module P : Nodeprog.PROGRAM) -> (
          match error with
          | Some "snapshot-gced" when run.pr_restamped ->
              (* a weak run re-stamped at its followers' watermark reached
                 an owner that had already compacted past that stamp (such
                 runs hold no GC watermark back). Run it again, fresh, on
                 the owners alone, under the negated id: the first
                 attempt's outstanding partials then find no run and drop. *)
              Tbl.Int.remove t.active prog_id;
              gc_everywhere t prog_id;
              let again =
                {
                  run with
                  pr_ts = tick t;
                  pr_restamped = false;
                  pr_outstanding = 0;
                  pr_acc = P.empty;
                  pr_visited = [];
                }
              in
              Tbl.Int.replace t.active (-prog_id) again;
              dispatch t ~key:(-prog_id) again
                (List.map (route t ~replicated:false ~at:None) run.pr_starts)
          | Some reason ->
              (* a shard failed the whole run (e.g. "snapshot-gced": the
                 requested historical timestamp fell below its compaction
                 floor). Fail fast and retryably; partials from other shards
                 arriving after the removal are dropped as stale. *)
              Tbl.Int.remove t.active prog_id;
              Runtime.trace_span t.rt ~trace:run.pr_id ~name:"gk.prog" ~actor:(actor t)
                ~start:run.pr_started ~stop:(now t)
                ~meta:[ ("prog", run.pr_prog); ("error", reason) ]
                ();
              send t ~dst:run.pr_client
                (Msg.Prog_reply { prog_id = run.pr_id; result = Error reason });
              gc_everywhere t prog_id
          | None ->
              run.pr_outstanding <- run.pr_outstanding + sent - 1;
              run.pr_acc <- P.merge run.pr_acc acc;
              if Option.is_some run.pr_memo_key then
                run.pr_visited <- List.rev_append visited run.pr_visited;
              if run.pr_outstanding = 0 then begin
                Tbl.Int.remove t.active prog_id;
                (counters t).Runtime.progs_completed <-
                  (counters t).Runtime.progs_completed + 1;
                Stats.add t.prog_service (now t -. run.pr_started);
                if Runtime.tracing t.rt ~trace:run.pr_id then
                  Runtime.trace_span t.rt ~trace:run.pr_id ~name:"gk.prog" ~actor:(actor t)
                    ~start:run.pr_started ~stop:(now t)
                    ~meta:[ ("prog", run.pr_prog) ]
                    ();
                send t ~dst:run.pr_client
                  (Msg.Prog_reply { prog_id = run.pr_id; result = Ok run.pr_acc });
                gc_everywhere t prog_id;
                (* only non-historical runs ever carry a memo key (see
                   [memo_key]): a snapshot-bound result must not serve, or be
                   served to, current reads *)
                match run.pr_memo_key with
                | Some k ->
                    Hashtbl.replace t.memo k
                      { m_result = run.pr_acc; m_reads = run.pr_visited }
                | None -> ()
              end))

(* ------------------------------------------------------------------ *)
(* Epochs and failure handling (§4.3). *)

(* The memo table deliberately survives the barrier: entries were computed
   from committed (durable) state, local invalidation covers this
   gatekeeper's writes, and peers' commit notes — valid across epochs —
   cover theirs. Only a revival that was partitioned from those notes has
   to flush ([on_revive]). In-flight transactions clear their own
   [in_progress] entries through their reply paths (every exit replies or
   removes explicitly), so no sweep is needed here either. *)
let handle_epoch_change t new_epoch =
  if new_epoch > t.epoch then begin
    t.epoch <- new_epoch;
    t.clock <-
      Vclock.make ~epoch:new_epoch ~origin:t.gid
        (Array.make (cfg t).Config.n_gatekeepers 0);
    Array.fill t.seqs 0 (Array.length t.seqs) 0;
    (* the barrier cleared every shard queue: outstanding Shard_txs (and
       the refunds they owed) are gone, so refill the credit ledger *)
    Flow.Credits.reset t.credits;
    (* replication watermarks are pre-barrier stamps: they can never cover
       a post-barrier read, and the followers re-advertise once their
       owners reseed them in the new epoch *)
    Repl.Table.clear_wms t.repl;
    (* in-flight programs are lost; clients re-submit (§4.3) *)
    Tbl.Int.iter
      (fun _ run ->
        send t ~dst:run.pr_client
          (Msg.Prog_reply { prog_id = run.pr_id; result = Error "epoch-change" }))
      t.active;
    Tbl.Int.reset t.active;
    send t ~dst:(Runtime.manager_addr t.rt)
      (Msg.Epoch_ack { server = t.addr; epoch = new_epoch })
  end

(* ------------------------------------------------------------------ *)

let oldest_active_stamp t =
  (* Historical runs do not hold the watermark back: a shard serves a read
     below its cut from the durable store, which keeps the full version
     history, so a long-running analytics query at an old stamp never
     stalls multi-version GC. Weak runs re-stamped at their followers'
     watermark do not hold it back either: owners advance their followers
     only to watermarks, so a run that held the gossip at its followers'
     cut would keep every later cut there too, and the replicas would
     never advance under steady weak load. Their follower reads need no
     compaction hold (follower copies are floored at their seed cut, not
     compacted), and an owner that has compacted past their stamp fails
     them with "snapshot-gced", which [handle_prog_partial] answers by
     re-running them fresh. *)
  Tbl.Int.fold
    (fun _ run acc ->
      if run.pr_historical || run.pr_restamped then acc
      else
        match acc with
        | None -> Some run.pr_ts
        | Some m -> Some (Runtime.stamp_min m run.pr_ts))
    t.active None
  |> Option.value ~default:t.clock

(* Client requests occupy the gatekeeper for [gk_op_cost] µs each
   (timestamping and dispatch are serialized on its CPU); control-plane
   traffic (announces, partials, epochs) is handled by separate threads in
   the real system and is not charged. This serial admission is what makes
   gatekeepers the bottleneck for vertex-local reads (Fig. 12). *)
let admit t ~trace work =
  t.requests_seen <- t.requests_seen + 1;
  let arrived = Engine.now t.rt.Runtime.engine in
  let start = Float.max arrived t.busy_until in
  t.busy_until <- start +. (cfg t).Config.gk_op_cost;
  t.busy_us <- t.busy_us +. (cfg t).Config.gk_op_cost;
  Engine.schedule_at t.rt.Runtime.engine ~time:t.busy_until (fun () ->
      if not t.retired then begin
        let served = Engine.now t.rt.Runtime.engine in
        (* wait in the serial admission queue plus the admission service
           itself — the gatekeeper-bottleneck phase of Fig. 12 *)
        Stats.add t.admission_wait (served -. arrived);
        if Runtime.tracing t.rt ~trace then
          Runtime.trace_span t.rt ~trace ~name:"gk.admission" ~actor:(actor t)
            ~start:arrived ~stop:served ();
        work ()
      end)

(* ------------------------------------------------------------------ *)
(* Overload management (Weaver_flow): decide, per client request and
   BEFORE the serial admission queue, whether to shed it. Shedding early
   answers the client in one network round trip while the request has
   consumed nothing but this check — the alternative is a downstream
   timeout after the request held a queue slot, store round trips, and
   shard FIFO space. Only the three client request kinds pass through
   here: everything else is control traffic (Flow.priority_of_kind =
   Control) and is never shed, so refinement (announces, NOPs), failure
   detection (heartbeats), and commit propagation keep flowing at any
   offered load. *)

let shed t ~client ~req_id ~reason =
  let c = counters t in
  (match reason with
  | "deadline" -> c.Runtime.shed_deadline <- c.Runtime.shed_deadline + 1
  | _ -> c.Runtime.shed_credit <- c.Runtime.shed_credit + 1);
  Runtime.trace_span t.rt ~trace:req_id ~name:"gk.shed" ~actor:(actor t)
    ~start:(now t) ~stop:(now t) ~meta:[ ("reason", reason) ] ();
  send t ~dst:client (Msg.Overloaded { req_id; reason })

(* [target_shards] is a thunk: resolving write targets reads the store
   directory, which is pointless (and avoidable work) unless credits are
   actually configured *)
let flow_gate t ~target_shards =
  match Flow.Admission.decide t.adm ~now:(now t) ~busy_until:t.busy_until with
  | Flow.Admission.Shed_deadline -> Some "deadline"
  | Flow.Admission.Admit ->
      if
        Flow.Credits.enabled t.credits
        && List.exists (Flow.Credits.exhausted t.credits) (target_shards ())
      then Some "credit"
      else None

(* the shards a transaction's writes will fan out to if it commits — the
   columns whose credits must not already be exhausted *)
let tx_target_shards t ops () =
  List.filter_map Txop.written_vertex ops
  |> List.map (Runtime.shard_of_vertex t.rt)
  |> List.sort_uniq compare

let migrate_target_shards t ~vid ~to_shard () =
  let from_shard = Runtime.shard_of_vertex t.rt vid in
  if to_shard >= 0 && to_shard < (cfg t).Config.n_shards then
    List.sort_uniq compare [ from_shard; to_shard ]
  else [ from_shard ]

(* a retry of a known (committed or in-flight) transaction bypasses the
   gate: it is answered from the dedup window or dropped, both cheap, and
   shedding it would make duplicate suppression racy under load *)
let known_duplicate t ~client ~tx_id =
  Hashtbl.mem t.dedup (client, tx_id) || Hashtbl.mem t.in_progress (client, tx_id)

let handle t ~src:_ msg =
  if not t.retired then
    match (msg : Msg.t) with
    | Msg.Tx_req { client; tx_id; ops } -> (
        let verdict =
          if known_duplicate t ~client ~tx_id then None
          else flow_gate t ~target_shards:(tx_target_shards t ops)
        in
        match verdict with
        | Some reason -> shed t ~client ~req_id:tx_id ~reason
        | None -> admit t ~trace:tx_id (fun () -> handle_tx_req t ~client ~tx_id ops))
    | Msg.Prog_req { client; prog_id; prog; params; starts; at; weak } -> (
        (* read-only: no shard credits at stake, admission limits only *)
        match flow_gate t ~target_shards:(fun () -> []) with
        | Some reason -> shed t ~client ~req_id:prog_id ~reason
        | None ->
            admit t ~trace:prog_id (fun () ->
                handle_prog_req t ~client ~prog_id ~prog ~params ~starts ~at ~weak))
    | Msg.Migrate_req { client; tx_id; vid; to_shard } -> (
        let verdict =
          if known_duplicate t ~client ~tx_id then None
          else flow_gate t ~target_shards:(migrate_target_shards t ~vid ~to_shard)
        in
        match verdict with
        | Some reason -> shed t ~client ~req_id:tx_id ~reason
        | None ->
            admit t ~trace:tx_id (fun () ->
                handle_migrate_req t ~client ~tx_id ~vid ~to_shard))
    | Msg.Credit { shard; gk = _; n } ->
        (* control-plane, like announces: a shard applied [n] of our
           forwarded transactions; their flow-control credits return *)
        Flow.Credits.refund t.credits shard n
    | Msg.Announce { gk = _; clock } ->
        if clock.Vclock.epoch = t.epoch then t.clock <- Vclock.merge t.clock clock
    | Msg.Commit_note { gk = _; client; tx_id; written; reads } ->
        (* control-plane, like announces: handled off the admission queue.
           Valid across epochs — the note reports a durable store commit *)
        record_dedup t ~client ~tx_id ~reads;
        invalidate_memo_remote t written
    | Msg.Prog_partial { prog_id; sent; acc; visited; error } ->
        handle_prog_partial t ~prog_id ~sent ~acc ~visited ~error
    | Msg.Epoch_change { epoch } -> handle_epoch_change t epoch
    | Msg.Repl_cover { range; follower; ts } ->
        (* a follower advertises coverage through [ts]; stamps from an
           older epoch can never cover post-barrier reads, so drop them *)
        if ts.Vclock.epoch = t.epoch then
          Repl.Table.set_wm t.repl ~range ~follower ts
    | _ -> ()

let start_timers t =
  let rt = t.rt in
  let engine = rt.Runtime.engine in
  let n_g = (cfg t).Config.n_gatekeepers in
  (* τ-periodic vector clock announcements (§3.3); with adaptive_tau the
     period tracks the request rate (§3.5): a gatekeeper seeing r requests
     per window aims for about one announce round per few requests, within
     [10 µs, 100 ms] — quiescent systems barely announce, busy ones often *)
  let rec announce_round () =
    if not t.retired then begin
      if alive t then
        for g = 0 to n_g - 1 do
          if g <> t.gid then begin
            (counters t).Runtime.announce_msgs <-
              (counters t).Runtime.announce_msgs + 1;
            send t ~dst:(Runtime.gk_addr rt g)
              (Msg.Announce { gk = t.gid; clock = t.clock })
          end
        done;
      if (cfg t).Config.adaptive_tau then begin
        let seen = t.requests_seen in
        t.requests_seen <- 0;
        let target =
          if seen = 0 then t.cur_tau *. 2.0 (* quiescent: back off *)
          else t.cur_tau *. (4.0 /. float_of_int seen)
        in
        (* smooth and clamp *)
        t.cur_tau <- Float.max 10.0 (Float.min 100_000.0 ((t.cur_tau +. target) /. 2.0))
      end;
      Engine.schedule engine ~delay:t.cur_tau announce_round
    end
  in
  Engine.schedule engine ~delay:t.cur_tau announce_round;
  (* NOP transactions keep every shard queue non-empty (§4.2) *)
  Engine.every engine ~period:(cfg t).Config.nop_period (fun () ->
      if t.retired then false
      else begin
        if alive t then begin
          let ts = tick t in
          for s = 0 to (cfg t).Config.n_shards - 1 do
            send_shard_tx t s ~ts ~ops:[] ~trace:0
          done
        end;
        true
      end);
  (* heartbeats to the cluster manager *)
  Engine.every engine ~period:(cfg t).Config.heartbeat_period (fun () ->
      if t.retired then false
      else begin
        if alive t then begin
          (counters t).Runtime.heartbeat_msgs <-
            (counters t).Runtime.heartbeat_msgs + 1;
          send t ~dst:(Runtime.manager_addr rt) (Msg.Heartbeat { server = t.addr })
        end;
        true
      end);
  (* GC watermark gossip (§4.5) *)
  if (cfg t).Config.gc_period > 0.0 then
    Engine.every engine ~period:(cfg t).Config.gc_period (fun () ->
        if t.retired then false
        else begin
          if alive t then begin
            let wm = oldest_active_stamp t in
            for s = 0 to (cfg t).Config.n_shards - 1 do
              send t ~dst:(Runtime.shard_addr rt s) (Msg.Watermark { gk = t.gid; ts = wm })
            done;
            send t ~dst:(Runtime.manager_addr rt) (Msg.Watermark { gk = t.gid; ts = wm })
          end;
          true
        end)

let spawn rt ~gid ~epoch =
  let t =
    {
      rt;
      gid;
      addr = Runtime.gk_addr rt gid;
      clock = Vclock.make ~epoch ~origin:gid (Array.make rt.Runtime.cfg.Config.n_gatekeepers 0);
      epoch;
      seqs = Array.make rt.Runtime.cfg.Config.n_shards 0;
      active = Tbl.Int.create 16;
      memo = Hashtbl.create 64;
      dedup = Hashtbl.create 256;
      dedup_q = Queue.create ();
      in_progress = Hashtbl.create 16;
      busy_until = 0.0;
      busy_us = 0.0;
      adm =
        Flow.Admission.create ~deadline_budget:rt.Runtime.cfg.Config.deadline_budget;
      credits =
        Flow.Credits.create ~peers:rt.Runtime.cfg.Config.n_shards
          ~credits:rt.Runtime.cfg.Config.shard_credits;
      repl = Repl.Table.create ();
      repl_rr = Hashtbl.create 16;
      cur_tau = rt.Runtime.cfg.Config.tau;
      requests_seen = 0;
      prog_service = Runtime.reservoir rt "gk.prog_service";
      admission_wait = Runtime.reservoir rt "gk.admission_wait";
      retired = false;
    }
  in
  List.iter
    (fun (range, _owner, followers) -> Repl.Table.install t.repl ~range ~followers)
    (Runtime.standing_plan rt);
  Runtime.register rt t.addr (fun ~src msg -> handle t ~src msg);
  (* per-actor utilization gauge: busy time accumulated so far, as µs. A
     replacement spawned at the same address after a crash re-registers
     the name and restarts from zero *)
  Weaver_obs.Metrics.gauge rt.Runtime.metrics
    (Printf.sprintf "util.gk%d.busy_us" gid)
    (fun () -> int_of_float t.busy_us);
  start_timers t;
  t

let retire t = t.retired <- true

let current_tau t = t.cur_tau

let credits_available t shard = Flow.Credits.available t.credits shard

(* a shard restarted in place and dropped its queues: the credits our
   in-flight Shard_txs carried will never be refunded — refill the column
   or admission towards that shard wedges shut permanently *)
let on_shard_restart t shard = Flow.Credits.reset_peer t.credits shard
