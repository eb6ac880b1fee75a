(* Hot-range replication controller (DESIGN §16): the cluster-owned
   planner that turns the heat sensor's hottest vertices into follower
   copies for read scale-out.

   Each round (every [Config.gc_period] µs, the watermark cadence the
   stream itself runs at) the controller:

   - RE-BROADCASTS the standing plan. [Repl_install] is idempotent at
     every receiver (owners, followers, gatekeepers all skip ranges they
     already track), so repeating it each round is pure healing: a shard
     that crash-restarted and lost its replication state re-learns its
     roles and its owners reseed it at the next watermark.

   - PLANS new installs: for each shard, the top [candidate_topk] entries
     of its Space-Saving sketch nominate their key ranges. A range qualifies if it is not yet
     replicated, its owner is live, and its decayed read+write load
     exceeds the mean per-range load (the same kind of band the balancer
     uses — replicating a merely-average range adds streaming cost with
     no read relief). Followers are the [Config.replication_factor]
     least-loaded live shards other than the owner, ties toward the lower
     index. Every input is deterministic simulation state, so the install
     sequence is a pure function of the run.

   - ACTS by broadcasting [Repl_install] to the owner (which starts
     streaming at the next watermark), the followers (which await their
     seed), and every gatekeeper (which starts routing covered reads once
     the followers advertise coverage).

   Installs are permanent for the life of the epoch: the stream piggybacks
   on watermark gossip the cluster pays for anyway, so a range that cools
   down costs only its (tiny) heartbeat share. *)

module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Heat = Weaver_obs.Heat
module Repl = Weaver_repl.Repl

(* hot-vertex sketch entries per shard considered as replication
   candidates each round *)
let candidate_topk = 4

type t = { rt : Runtime.t; heat : Heat.t; table : Repl.Table.t }

let create rt =
  let heat =
    match rt.Runtime.heat with
    | Some h -> h
    | None -> invalid_arg "Replicator.create: requires Config.enable_heat"
  in
  { rt; heat; table = Repl.Table.create () }

let counters t = t.rt.Runtime.counters
let table t = t.table

let broadcast t ~range ~owner ~followers =
  let rt = t.rt in
  let src = Runtime.manager_addr rt in
  let msg = Msg.Repl_install { range; owner; followers } in
  Runtime.send rt ~src ~dst:(Runtime.shard_addr rt owner) msg;
  List.iter
    (fun f -> Runtime.send rt ~src ~dst:(Runtime.shard_addr rt f) msg)
    followers;
  for g = 0 to rt.Runtime.cfg.Config.n_gatekeepers - 1 do
    Runtime.send rt ~src ~dst:(Runtime.gk_addr rt g) msg
  done

let run_round t =
  let c = counters t in
  c.Runtime.repl_rounds <- c.Runtime.repl_rounds + 1;
  let cfg = t.rt.Runtime.cfg in
  (* heal first: restarted shards and gatekeepers re-learn the plan *)
  List.iter
    (fun range ->
      match Repl.Table.owner t.table ~range with
      | Some owner ->
          broadcast t ~range ~owner
            ~followers:(List.map fst (Repl.Table.followers t.table ~range))
      | None -> ())
    (Repl.Table.ranges t.table);
  let factor = cfg.Config.replication_factor in
  (* with read replicas every range already follows the standing plan
     ([Runtime.standing_plan]): there is nothing left to install *)
  if factor > 0 && cfg.Config.read_replicas = 0 then begin
    let n = cfg.Config.n_shards in
    let now = Engine.now t.rt.Runtime.engine in
    let loads = Array.init n (fun s -> Heat.shard_load t.heat ~shard:s ~now) in
    let total = Array.fold_left ( +. ) 0.0 loads in
    (* a candidate range must be hotter than the average range, or
       replicating it is all streaming cost and no read relief *)
    let band = total /. float_of_int (Heat.ranges t.heat) in
    if total > 0.0 then begin
      let alive s = Net.is_alive t.rt.Runtime.net (Runtime.shard_addr t.rt s) in
      for src = 0 to n - 1 do
        let considered = ref 0 in
        List.iter
          (fun (vid, _count, _err) ->
            if !considered < candidate_topk then begin
              incr considered;
              let range = Heat.range_of t.heat vid in
              let owner = Runtime.shard_of_vertex t.rt vid in
              if (not (Repl.Table.is_replicated t.table ~range)) && alive owner
              then begin
                let rl =
                  Heat.range_load t.heat ~range ~kind:Heat.Read ~now
                  +. Heat.range_load t.heat ~range ~kind:Heat.Write ~now
                in
                if rl > band then begin
                  let followers =
                    List.init n Fun.id
                    |> List.filter (fun s -> s <> owner && alive s)
                    |> List.sort (fun a b ->
                           if loads.(a) <> loads.(b) then
                             Float.compare loads.(a) loads.(b)
                           else compare a b)
                    |> List.filteri (fun i _ -> i < factor)
                  in
                  if followers <> [] then begin
                    Repl.Table.install t.table ~range ~owner ~followers;
                    c.Runtime.repl_installs <- c.Runtime.repl_installs + 1;
                    broadcast t ~range ~owner ~followers
                  end
                end
              end
            end)
          (Heat.top t.heat ~shard:src)
      done
    end
  end
