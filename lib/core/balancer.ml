(* Heat-driven live rebalancing (paper §4.6): the planner that closes the
   sense→plan→act loop over the PR-7 heat sensor.

   Each round (every [Config.rebalance_period] µs) the planner:

   - SENSES: reads the decayed per-shard loads from [Obs.Heat] and
     computes their mean. A shard is overloaded only above
     [hysteresis × mean]; a candidate vertex only qualifies if its key
     range's decayed read+write heat exceeds [(hysteresis − 1) ×] the
     average per-range load. The gap between "balanced" and "actionable"
     is what keeps a
     merely-noisy cluster from thrashing moves back and forth — like
     [Obs.Health], the planner is edge-triggered: it acts on the overload
     transition and stays quiet inside the band.

   - PLANS: candidates come from the overloaded shards' Space-Saving
     top-K sketches (hottest first, deterministic tie-breaks), verified
     against the live directory ([Runtime.shard_of_vertex]) so stale
     sketch entries for already-moved vertices are skipped, and assigned
     to the least-loaded LIVE shard (ties toward the lower index). Dead
     sources and dead destinations are skipped outright. Two further
     anti-thrash rules: a vertex moved within the last heat half-life is
     off-limits (its old shard's decayed load hasn't faded yet, so any
     judgement about it is stale), and a move is issued only if the
     destination would still be lighter than the source afterwards —
     relocating a hot spot wholesale is not an improvement. At most
     [rebalance_max_moves] moves are issued per round, and the projected
     range load is shifted between the in-round load estimates so one
     round spreads its moves rather than dog-piling one destination.
     Every input is deterministic simulation state, so the move log is a
     pure function of the run — reruns are bit-identical.

   - ACTS: moves execute through the ordinary OCC migrate path
     ([Client.migrate_async] → gatekeeper [handle_migrate_req]): a store
     transaction flips the directory entry, timestamp-ordered migrate ops
     drain the old owner and fill the new one, concurrent writers abort
     the move (not the other way around), and the dedup window makes
     retries safe. No stop-the-world anywhere. While any move is still in
     flight the next round only observes — it never plans — so a vertex
     can never have two outstanding migrations.

   Failures are tolerated, not fought: a move that times out or loses its
   OCC race counts as [rebal.skipped] and the shard simply stays hot until
   a later round retries the then-current hottest candidates. *)

module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Heat = Weaver_obs.Heat

(* Overload threshold as a multiple of the mean decayed shard load. A band
   below 1.0 would mark shards at or below the mean as overloaded and
   thrash moves between balanced shards. *)
let hysteresis = 1.5

type move = { mv_time : float; mv_vid : string; mv_from : int; mv_to : int }

type t = {
  rt : Runtime.t;
  client : Client.t;  (* the planner's own session; created only when enabled *)
  heat : Heat.t;
  pending : (string, unit) Hashtbl.t;  (* vids with an in-flight migrate *)
  last_moved : (string, float) Hashtbl.t;  (* per-vid cooldown stamps *)
  mutable move_log : move list;  (* newest first; [move_log] reverses *)
}

let create rt =
  let heat =
    match rt.Runtime.heat with
    | Some h -> h
    | None -> invalid_arg "Balancer.create: requires Config.enable_heat"
  in
  {
    rt;
    client = Client.create rt;
    heat;
    pending = Hashtbl.create 32;
    last_moved = Hashtbl.create 32;
    move_log = [];
  }

let counters t = t.rt.Runtime.counters
let move_log t = List.rev t.move_log
let pending_moves t = Hashtbl.length t.pending

let skip t = (counters t).Runtime.rebal_skipped <- (counters t).Runtime.rebal_skipped + 1

let issue t ~vid ~from_shard ~to_shard =
  Hashtbl.replace t.pending vid ();
  Hashtbl.replace t.last_moved vid (Engine.now t.rt.Runtime.engine);
  t.move_log <-
    {
      mv_time = Engine.now t.rt.Runtime.engine;
      mv_vid = vid;
      mv_from = from_shard;
      mv_to = to_shard;
    }
    :: t.move_log;
  Client.migrate_async t.client ~vid ~to_shard ~on_result:(fun r ->
      Hashtbl.remove t.pending vid;
      match r with
      | Ok () -> (counters t).Runtime.rebal_moves <- (counters t).Runtime.rebal_moves + 1
      | Error _ -> skip t)

let run_round t =
  let c = counters t in
  c.Runtime.rebal_rounds <- c.Runtime.rebal_rounds + 1;
  (* in-flight moves: observe only, plan nothing — no double-migrate, and
     the next plan sees the post-move heat rather than a half-applied one *)
  if Hashtbl.length t.pending = 0 then begin
    let cfg = t.rt.Runtime.cfg in
    let n = cfg.Config.n_shards in
    let now = Engine.now t.rt.Runtime.engine in
    let loads = Array.init n (fun s -> Heat.shard_load t.heat ~shard:s ~now) in
    let mean = Array.fold_left ( +. ) 0.0 loads /. float_of_int n in
    if mean > 0.0 then begin
      (* candidate ranges must be hot at *range* scale: above
         [(hysteresis − 1) ×] the average per-range load. A broad hot spot
         spreads over many ranges, each only modestly warm, so a
         shard-scale band would never let any single range qualify. *)
      let band =
        (hysteresis -. 1.0) *. mean *. float_of_int n
        /. float_of_int (Heat.ranges t.heat)
      in
      let alive s = Net.is_alive t.rt.Runtime.net (Runtime.shard_addr t.rt s) in
      let overloaded =
        List.filter (fun s -> loads.(s) > hysteresis *. mean) (List.init n Fun.id)
        |> List.sort (fun a b ->
               if loads.(a) <> loads.(b) then Float.compare loads.(b) loads.(a)
               else compare a b)
      in
      let budget = ref cfg.Config.rebalance_max_moves in
      (* one move per key range per round: the load estimate moves at
         range granularity, so a second vertex of the same range has no
         heat left to justify it this round *)
      let claimed = Hashtbl.create 8 in
      List.iter
        (fun src ->
          if !budget > 0 then begin
            if not (alive src) then skip t
            else
              List.iter
                (fun (vid, _count, _err) ->
                  (* cooldown: the decayed load a vertex left behind at its
                     old shard takes a half-life to fade, so re-judging a
                     recently moved vertex before then acts on stale heat
                     and ping-pongs it between shards *)
                  let cooling =
                    match Hashtbl.find_opt t.last_moved vid with
                    | Some t0 -> now -. t0 < Heat.half_life t.heat
                    | None -> false
                  in
                  if !budget > 0 && (not (Hashtbl.mem t.pending vid)) && not cooling
                  then begin
                    if Runtime.shard_of_vertex t.rt vid <> src then
                      (* stale sketch entry: the vertex already moved *)
                      skip t
                    else begin
                      let range = Heat.range_of t.heat vid in
                      let rl =
                        Heat.range_load t.heat ~range ~kind:Heat.Read ~now
                        +. Heat.range_load t.heat ~range ~kind:Heat.Write ~now
                      in
                      if rl > band && not (Hashtbl.mem claimed range) then begin
                        let dst = ref (-1) in
                        for s = 0 to n - 1 do
                          if s <> src && alive s && (!dst < 0 || loads.(s) < loads.(!dst))
                          then dst := s
                        done;
                        if !dst < 0 then skip t (* no live destination *)
                        else if loads.(!dst) +. rl >= loads.(src) then
                          (* moving would just relocate the hot spot: not
                             an improvement, leave it for decay to settle *)
                          ()
                        else begin
                          decr budget;
                          Hashtbl.replace claimed range ();
                          loads.(src) <- loads.(src) -. rl;
                          loads.(!dst) <- loads.(!dst) +. rl;
                          issue t ~vid ~from_shard:src ~to_shard:!dst
                        end
                      end
                    end
                  end)
                (Heat.top t.heat ~shard:src)
          end)
        overloaded
    end
  end
