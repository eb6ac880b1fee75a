(* weaver-cli: poke a simulated Weaver deployment from the command line.

   Subcommands:
     demo        build a small social graph and run sample queries
     tao         run the TAO-mix benchmark with chosen parameters
     coingraph   ingest and query synthetic blocks
     fault       demonstrate failure detection and recovery
     chaos       availability under a crash/restart fault plan, reliability off vs on
     sweep       announce-period sweep (Fig. 14 in miniature)
     overload    open-loop saturation quick-look, flow control off vs on
     snapshot    pinned historical analytics vs live writes, snapshots off vs on
     heat        per-shard hottest vertices and per-range heat map under zipf load
     health      watchdog alerts across a mid-run gatekeeper crash
     rebalance   live heat-driven rebalancing of a zipf hot spot, skew trajectory
     replication hot-range partial replication: installs, streams, routed reads
     backup      backup/restore demo
     stats       mixed run with tracing on; per-phase latency breakdown
     trace       span tree of one traced transaction and node program
     timeline    sampled time series under TAO-mix load
     export      Chrome trace-event JSON of a traced mixed run
     slow        top-K slowest requests of a traced mixed run *)

open Cmdliner
open Weaver_core
module Workloads = Weaver_workloads
module Metrics = Weaver_obs.Metrics
module Trace = Weaver_obs.Trace

let mk_cluster ?(tracing = false) ?(timeline = false) ?(timeline_period = 10_000.0)
    ?(heat = false) ~gatekeepers ~shards ~tau ~seed () =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = gatekeepers;
      Config.n_shards = shards;
      Config.tau;
      Config.seed;
      Config.enable_tracing = tracing;
      Config.enable_timeline = timeline;
      Config.timeline_period = timeline_period;
      Config.enable_heat = heat;
    }
  in
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  c

(* common options *)
let gatekeepers =
  Arg.(value & opt int 2 & info [ "g"; "gatekeepers" ] ~docv:"N" ~doc:"Gatekeeper servers.")

let shards =
  Arg.(value & opt int 4 & info [ "s"; "shards" ] ~docv:"N" ~doc:"Shard servers.")

let tau =
  Arg.(
    value
    & opt float 1000.0
    & info [ "tau" ] ~docv:"US" ~doc:"Vector-clock announce period in virtual µs.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")

let demo gatekeepers shards tau seed =
  let c = mk_cluster ~gatekeepers ~shards ~tau ~seed () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  let a = Client.Tx.create_vertex tx ~id:"a" () in
  let b = Client.Tx.create_vertex tx ~id:"b" () in
  let z = Client.Tx.create_vertex tx ~id:"z" () in
  ignore (Client.Tx.create_edge tx ~src:a ~dst:b);
  ignore (Client.Tx.create_edge tx ~src:b ~dst:z);
  (match Client.commit client tx with
  | Ok () -> print_endline "committed a -> b -> z"
  | Error e -> failwith e);
  (match
     Client.run_program client ~prog:"hop_distance"
       ~params:(Progval.Assoc [ ("target", Progval.Str z) ])
       ~starts:[ a ] ()
   with
  | Ok v -> Format.printf "hop_distance(a, z) = %a@." Progval.pp v
  | Error e -> failwith e);
  Printf.printf "virtual time: %.0f us\n" (Cluster.now c)

let tao gatekeepers shards tau seed clients duration_ms read_pct =
  let c = mk_cluster ~gatekeepers ~shards ~tau ~seed () in
  let rng = Weaver_util.Xrand.create ~seed () in
  let g =
    Workloads.Graphgen.preferential ~rng ~prefix:"u" ~vertices:4_000 ~out_degree:7 ()
  in
  Workloads.Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  let vertices = Array.of_list (Workloads.Graphgen.vertex_ids g) in
  let r =
    Workloads.Tao.Driver.run c ~vertices ~clients
      ~duration:(duration_ms *. 1000.0)
      ~read_fraction:(read_pct /. 100.0)
      ()
  in
  Printf.printf "completed %d ops in %.0f ms of virtual time\n" r.Workloads.Tao.Driver.completed
    (duration_ms);
  Printf.printf "throughput: %.0f ops/s\n" r.Workloads.Tao.Driver.throughput;
  Printf.printf "reads : %s\n" (Weaver_util.Stats.summary r.Workloads.Tao.Driver.read_latencies);
  Printf.printf "writes: %s\n" (Weaver_util.Stats.summary r.Workloads.Tao.Driver.write_latencies);
  let ctr = Cluster.counters c in
  Printf.printf "oracle consults: %d (cache hits %d); announces: %d\n"
    ctr.Runtime.oracle_consults ctr.Runtime.oracle_cache_hits ctr.Runtime.announce_msgs;
  print_newline ();
  print_string (Cluster.report c)

let coingraph gatekeepers shards tau seed height =
  let c = mk_cluster ~gatekeepers ~shards ~tau ~seed () in
  let cg = Weaver_apps.Coingraph.create c in
  ignore (Weaver_apps.Coingraph.preload_block cg ~height);
  Cluster.run_for c 5_000.0;
  let t0 = Cluster.now c in
  (match Weaver_apps.Coingraph.block_tx_count cg ~height with
  | Ok n ->
      Printf.printf "block %d: %d transactions rendered in %.2f virtual ms\n" height n
        ((Cluster.now c -. t0) /. 1000.0)
  | Error e -> failwith e)

let fault gatekeepers shards tau seed =
  let c = mk_cluster ~gatekeepers ~shards ~tau ~seed () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"survivor" ());
  (match Client.commit client tx with Ok () -> () | Error e -> failwith e);
  let victim = Cluster.shard_of_vertex c "survivor" in
  Printf.printf "killing shard %d (owns 'survivor')...\n" victim;
  Cluster.kill_shard c victim;
  Cluster.run_for c 400_000.0;
  Printf.printf "cluster epoch now %d; recoveries: %d\n" (Cluster.epoch c)
    (Cluster.counters c).Runtime.recoveries;
  let net = (Cluster.runtime c).Runtime.net in
  Printf.printf "messages dropped while the endpoint was dead: %d\n"
    (Weaver_sim.Net.messages_dropped net);
  List.iter
    (fun (dst, n) -> Printf.printf "  -> %-10s %d\n" (Cluster.actor_of_addr c dst) n)
    (Weaver_sim.Net.drops_by_dst net);
  match
    Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "survivor" ] ()
  with
  | Ok (Progval.List [ _ ]) -> print_endline "data recovered from backing store; query ok"
  | Ok v -> Format.printf "unexpected: %a@." Progval.pp v
  | Error e -> failwith e

let chaos gatekeepers shards seed clients duration json =
  (* TAO-mix under a rolling crash/restart fault plan, client reliability
     layer off then on — same seed, same plan (see EXPERIMENTS.md) *)
  let base =
    {
      Workloads.Chaosbench.default_opts with
      Workloads.Chaosbench.co_seed = seed;
      co_gatekeepers = gatekeepers;
      co_shards = shards;
      co_clients = clients;
      co_duration = duration *. 1_000.0;
    }
  in
  let off =
    Workloads.Chaosbench.run { base with Workloads.Chaosbench.co_reliable = false }
  in
  let on_ =
    Workloads.Chaosbench.run { base with Workloads.Chaosbench.co_reliable = true }
  in
  if json then
    Printf.printf "{\"experiment\": \"chaos\", \"seed\": %d, \"off\": %s, \"on\": %s}\n"
      seed
      (Workloads.Chaosbench.to_json off)
      (Workloads.Chaosbench.to_json on_)
  else begin
    let show tag (r : Workloads.Chaosbench.result) =
      Printf.printf
        "reliability %-4s availability %.3f (ok %d, err %d) | p99 %.1f ms | recovery %s | retries %d, late %d\n"
        tag r.Workloads.Chaosbench.r_availability r.Workloads.Chaosbench.r_total_ok
        r.Workloads.Chaosbench.r_total_err
        (r.Workloads.Chaosbench.r_p99 /. 1_000.0)
        (match r.Workloads.Chaosbench.r_recovery_time with
        | Some t -> Printf.sprintf "%.0f ms" (t /. 1_000.0)
        | None -> "never")
        r.Workloads.Chaosbench.r_retries r.Workloads.Chaosbench.r_late_replies
    in
    show "off" off;
    show "on" on_;
    Printf.printf "availability delta: +%.3f\n"
      (on_.Workloads.Chaosbench.r_availability
      -. off.Workloads.Chaosbench.r_availability)
  end

let sweep gatekeepers shards seed =
  (* Fig. 14 in miniature: announce vs oracle cost across tau *)
  Printf.printf "%-12s %18s %20s\n" "tau (us)" "announces/query" "oracle msgs/query";
  List.iter
    (fun tau ->
      let c = mk_cluster ~gatekeepers ~shards ~tau ~seed () in
      let rng = Weaver_util.Xrand.create ~seed () in
      let g = Workloads.Graphgen.uniform ~rng ~prefix:"s" ~vertices:500 ~edges:3_000 () in
      Workloads.Loader.fast_install c g;
      Cluster.run_for c 5_000.0;
      let vertices = Array.of_list (Workloads.Graphgen.vertex_ids g) in
      let r =
        Workloads.Tao.Driver.run c ~vertices ~clients:20 ~duration:200_000.0
          ~read_fraction:0.9 ()
      in
      let ops = max 1 r.Workloads.Tao.Driver.completed in
      let ctr = Cluster.counters c in
      Printf.printf "%-12.0f %18.3f %20.3f\n" tau
        (float_of_int ctr.Runtime.announce_msgs /. float_of_int ops)
        (float_of_int ctr.Runtime.oracle_consults /. float_of_int ops))
    [ 10.0; 100.0; 1_000.0; 10_000.0; 100_000.0 ]

let overload gatekeepers shards seed mult duration_ms json =
  (* one point of the `bench overload` sweep: the same offered load pushed
     through both arms, so the goodput/p99/shed deltas isolate what the
     flow-control subsystem (admission + deadline shedding + credits) buys *)
  let sat =
    Workloads.Overloadbench.saturation_rate ~gatekeepers
      ~gk_op_cost:Config.default.Config.gk_op_cost
  in
  let base =
    {
      Workloads.Overloadbench.default_opts with
      Workloads.Overloadbench.ov_seed = seed;
      ov_gatekeepers = gatekeepers;
      ov_shards = shards;
      ov_rate = sat *. mult;
      ov_duration = duration_ms *. 1_000.0;
    }
  in
  let off =
    Workloads.Overloadbench.run { base with Workloads.Overloadbench.ov_flow = false }
  in
  let on_ =
    Workloads.Overloadbench.run { base with Workloads.Overloadbench.ov_flow = true }
  in
  if json then
    Printf.printf
      "{\"experiment\": \"overload\", \"seed\": %d, \"load_multiplier\": %.2f, \
       \"off\": %s, \"on\": %s}\n"
      seed mult
      (Workloads.Overloadbench.to_json off)
      (Workloads.Overloadbench.to_json on_)
  else begin
    Printf.printf "offered %.0f req/s (%.2fx of ~%.0f req/s saturation)\n"
      base.Workloads.Overloadbench.ov_rate mult sat;
    let show tag (r : Workloads.Overloadbench.result) =
      Printf.printf
        "flow %-4s goodput %6.0f req/s | ok %d shed %d timeout %d | p50 %.1f ms p99 %.1f ms | shed %.1f%%\n"
        tag r.Workloads.Overloadbench.v_goodput r.Workloads.Overloadbench.v_ok
        r.Workloads.Overloadbench.v_shed r.Workloads.Overloadbench.v_timeout
        (r.Workloads.Overloadbench.v_p50 /. 1_000.0)
        (r.Workloads.Overloadbench.v_p99 /. 1_000.0)
        (100.0 *. r.Workloads.Overloadbench.v_shed_rate)
    in
    show "off" off;
    show "on" on_;
    Printf.printf
      "shed reasons (on): queue %d, deadline %d, credit %d | credit msgs %d\n"
      on_.Workloads.Overloadbench.v_shed_queue
      on_.Workloads.Overloadbench.v_shed_deadline
      on_.Workloads.Overloadbench.v_shed_credit
      on_.Workloads.Overloadbench.v_credit_msgs
  end

let snapshot gatekeepers shards seed duration_ms json =
  (* `bench snapshot` in miniature: historical multi-start reads at a
     captured cut race a live write mix, versioned snapshot store off vs
     on. Capacity-limited shards make the off arm pay demand paging and
     the ordering gate; a "snapshot-gced" reply re-captures the cut. *)
  let run snap =
    let cfg =
      {
        Config.default with
        Config.n_gatekeepers = gatekeepers;
        Config.n_shards = shards;
        Config.seed;
        Config.snapshot_reads = snap;
        Config.gc_period = 5_000.0;
        Config.shard_capacity = Some 60;
      }
    in
    let c = Cluster.create cfg in
    Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
    let n_vertices = 300 in
    let vid i = Printf.sprintf "s%03d" i in
    let setup = Cluster.client c in
    let i = ref 0 in
    while !i < n_vertices do
      let tx = Client.Tx.begin_ setup in
      for k = !i to min (n_vertices - 1) (!i + 49) do
        ignore (Client.Tx.create_vertex tx ~id:(vid k) ())
      done;
      i := !i + 50;
      match Client.commit setup tx with Ok () -> () | Error e -> failwith e
    done;
    Cluster.run_for c 30_000.0;
    let at = ref (Cluster.gk_clock c 0) in
    let starts = List.init 48 (fun k -> vid (k * 7 mod n_vertices)) in
    let stop = ref false in
    let writes = ref 0 in
    for w = 0 to 1 do
      let client = Cluster.client c in
      Client.set_gatekeeper client (Some (w mod gatekeepers));
      let rng = Weaver_util.Xrand.create ~seed:(seed + (1_000 * (w + 1))) () in
      let n = ref 0 in
      let rec next () =
        if not !stop then begin
          incr n;
          let tx = Client.Tx.begin_ client in
          Client.Tx.set_vertex_prop tx
            ~vid:(vid (Weaver_util.Xrand.int rng n_vertices))
            ~key:"n" ~value:(string_of_int !n);
          Client.commit_async client tx ~on_result:(fun r ->
              (match r with Ok () -> incr writes | Error _ -> ());
              next ())
        end
      in
      next ()
    done;
    let lat = Weaver_util.Stats.create () in
    let reads = ref 0 and gced = ref 0 in
    let analyst = Cluster.client c in
    Client.set_retry_policy analyst Client.no_retry_policy;
    let rec read_next () =
      if not !stop then begin
        let t0 = Cluster.now c in
        Client.run_program_async analyst ~prog:"get_node" ~params:Progval.Null
          ~starts ~at:!at
          ~on_result:(fun r ->
            (match r with
            | Ok _ ->
                incr reads;
                Weaver_util.Stats.add lat (Cluster.now c -. t0)
            | Error "snapshot-gced" ->
                incr gced;
                at := Cluster.gk_clock c 0
            | Error e -> failwith ("analytics: " ^ e));
            read_next ())
          ()
      end
    in
    read_next ();
    Cluster.run_for c (duration_ms *. 1_000.0);
    stop := true;
    Cluster.run_for c 30_000.0;
    let ctr = Cluster.counters c in
    ( !writes,
      !reads,
      !gced,
      Weaver_util.Stats.percentile lat 50.0,
      Weaver_util.Stats.percentile lat 99.0,
      ctr.Runtime.snap_published,
      ctr.Runtime.snap_pinned_reads,
      ctr.Runtime.snap_gc_deferred )
  in
  let off = run false and on_ = run true in
  if json then begin
    let arm (w, r, g, p50, p99, pub, pin, def) =
      Printf.sprintf
        "{\"writes\": %d, \"reads\": %d, \"cut_recaptures\": %d, \
         \"p50_read_us\": %.1f, \"p99_read_us\": %.1f, \"snapshots_published\": \
         %d, \"pinned_reads\": %d, \"gc_deferred\": %d}"
        w r g p50 p99 pub pin def
    in
    Printf.printf
      "{\"experiment\": \"snapshot\", \"seed\": %d, \"off\": %s, \"on\": %s}\n"
      seed (arm off) (arm on_)
  end
  else begin
    Printf.printf "%-4s %8s %7s %6s %12s %12s %10s %8s %9s\n" "arm" "writes"
      "reads" "gced" "p50 us" "p99 us" "published" "pinned" "deferred";
    let row tag (w, r, g, p50, p99, pub, pin, def) =
      Printf.printf "%-4s %8d %7d %6d %12.1f %12.1f %10d %8d %9d\n" tag w r g
        p50 p99 pub pin def
    in
    row "off" off;
    row "on" on_
  end

(* Rebalance: the live heat-driven balancer closing the sense→plan→act
   loop on a hot spot. The TAO mix is aimed (zipf within the set) at a hot
   set of vertices that all start on shard 0; the planner senses the skew,
   migrates the hot vertices off through the OCC migrate path, and the
   skew ratio recovers — sampled across the run so the trajectory is
   visible. Note the zipf approximation is very head-heavy: high theta
   concentrates most load on ONE vertex, which no placement can balance
   (the planner correctly refuses to relocate such a hot spot wholesale). *)
let rebalance_live gatekeepers shards tau seed clients duration_ms theta json =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = gatekeepers;
      Config.n_shards = shards;
      Config.tau;
      Config.seed;
      Config.enable_heat = true;
      Config.enable_rebalance = true;
      Config.rebalance_period = 10_000.0;
    }
  in
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  let rng = Weaver_util.Xrand.create ~seed () in
  let g = Workloads.Graphgen.uniform ~rng ~prefix:"r" ~vertices:512 ~edges:2_048 () in
  Workloads.Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  (* the hot set: 32 shard-0 residents; all direct traffic goes there
     (neighbor visits still spread reads cluster-wide) *)
  let hot =
    List.filter (fun v -> Cluster.shard_of_vertex c v = 0)
      (Workloads.Graphgen.vertex_ids g)
  in
  let vertices = Array.of_list (List.filteri (fun i _ -> i < 32) hot) in
  let h = Option.get (Cluster.heat c) in
  let slices = 8 in
  let slice = duration_ms *. 1000.0 /. float_of_int slices in
  let samples =
    List.init slices (fun _ ->
        ignore
          (Workloads.Tao.Driver.run c ~vertices ~clients ~duration:slice
             ~read_fraction:0.9 ~theta ~warmup:0.0 ());
        (Cluster.now c /. 1000.0, Weaver_obs.Heat.skew h ~now:(Cluster.now c)))
  in
  let ctr = Cluster.counters c in
  let moves = Balancer.move_log (Option.get (Cluster.balancer c)) in
  let peak = List.fold_left (fun a (_, s) -> Float.max a s) 0.0 samples in
  let final = snd (List.nth samples (slices - 1)) in
  if json then begin
    let sample_rows =
      String.concat ", "
        (List.map (fun (t, s) -> Printf.sprintf "{\"t_ms\": %.1f, \"skew\": %.3f}" t s) samples)
    in
    let move_rows =
      String.concat ", "
        (List.map
           (fun m ->
             Printf.sprintf
               "{\"t_ms\": %.1f, \"vid\": \"%s\", \"from\": %d, \"to\": %d}"
               (m.Balancer.mv_time /. 1000.0)
               m.Balancer.mv_vid m.Balancer.mv_from m.Balancer.mv_to)
           moves)
    in
    Printf.printf
      "{\"experiment\": \"rebalance\", \"seed\": %d, \"shards\": %d, \"theta\": \
       %.2f, \"peak_skew\": %.3f, \"final_skew\": %.3f, \"rounds\": %d, \
       \"moves_committed\": %d, \"moves_skipped\": %d, \"samples\": [%s], \
       \"move_log\": [%s]}\n"
      seed shards theta peak final ctr.Runtime.rebal_rounds ctr.Runtime.rebal_moves
      ctr.Runtime.rebal_skipped sample_rows move_rows
  end
  else begin
    Printf.printf
      "live rebalancing of a 32-vertex hot set on shard 0 (zipf theta=%.2f, %d shards)\n\n"
      theta shards;
    Printf.printf "%10s %8s\n" "t (ms)" "skew";
    List.iter (fun (t, s) -> Printf.printf "%10.1f %8.3f\n" t s) samples;
    Printf.printf "\npeak skew %.3f -> final %.3f (1.0 = balanced)\n" peak final;
    Printf.printf "planner: %d rounds, %d moves committed, %d skipped\n"
      ctr.Runtime.rebal_rounds ctr.Runtime.rebal_moves ctr.Runtime.rebal_skipped;
    List.iteri
      (fun i m ->
        if i < 12 then
          Printf.printf "  %7.1f ms  %-12s shard %d -> %d\n"
            (m.Balancer.mv_time /. 1000.0)
            m.Balancer.mv_vid m.Balancer.mv_from m.Balancer.mv_to)
      moves;
    if List.length moves > 12 then
      Printf.printf "  ... %d more moves\n" (List.length moves - 12)
  end

(* Replication: the hot-range partial-replication pipeline end to end —
   controller installs, owners seed and stream, gatekeepers route covered
   weak reads to followers. Zipf readers concentrate load on a few ranges
   so the quick-look shows the planner picking them up and the routed
   fraction climbing. *)
let replication_live gatekeepers shards seed clients duration_ms theta factor json =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = gatekeepers;
      Config.n_shards = shards;
      Config.seed;
      Config.enable_heat = true;
      Config.enable_replication = factor > 0;
      Config.replication_factor = factor;
      Config.gc_period = 2_000.0;
      Config.vertex_read_cost = 40.0;
    }
  in
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  let rng = Weaver_util.Xrand.create ~seed () in
  let g = Workloads.Graphgen.uniform ~rng ~prefix:"p" ~vertices:64 ~edges:128 () in
  Workloads.Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  let vertices = Array.of_list (Workloads.Graphgen.vertex_ids g) in
  let duration = duration_ms *. 1000.0 in
  let r =
    Workloads.Readscale.run c ~vertices ~readers:clients
      ~writers:(max 1 (clients / 6))
      ~duration ~theta ~warmup:(0.2 *. duration) ()
  in
  let ctr = Cluster.counters c in
  let table_rows =
    if factor = 0 then []
    else
      (* gatekeeper 0's copy: it carries the follower watermarks heard in
         [Repl_cover] advertisements, which the controller's own table
         does not *)
      let t = Cluster.gk_repl_table c 0 in
      List.map
        (fun range ->
          let followers = Weaver_repl.Repl.Table.followers t ~range in
          ( range,
            Option.value ~default:(-1) (Weaver_repl.Repl.Table.owner t ~range),
            List.map fst followers,
            List.length (List.filter (fun (_, wm) -> wm <> None) followers) ))
        (Weaver_repl.Repl.Table.ranges t)
  in
  (* both counters span the whole run (warmup included), unlike goodput *)
  let routed_frac =
    float_of_int ctr.Runtime.repl_routed
    /. float_of_int (max 1 ctr.Runtime.progs_completed)
  in
  if json then begin
    let rows =
      String.concat ", "
        (List.map
           (fun (range, owner, fs, covering) ->
             Printf.sprintf
               "{\"range\": %d, \"owner\": %d, \"followers\": [%s], \
                \"advertising\": %d}"
               range owner
               (String.concat ", " (List.map string_of_int fs))
               covering)
           table_rows)
    in
    Printf.printf
      "{\"experiment\": \"replication\", \"seed\": %d, \"shards\": %d, \
       \"factor\": %d, \"theta\": %.2f, \"read_goodput_per_s\": %.0f, \
       \"write_throughput_per_s\": %.0f, \"read_p50_us\": %.1f, \
       \"read_p99_us\": %.1f, \"read_errors\": %d, \"rounds\": %d, \
       \"installs\": %d, \"updates\": %d, \"resyncs\": %d, \"routed\": %d, \
       \"routed_fraction\": %.3f, \"table\": [%s]}\n"
      seed shards factor theta r.Workloads.Readscale.read_goodput
      r.Workloads.Readscale.write_throughput
      (Weaver_util.Stats.percentile r.Workloads.Readscale.read_latencies 50.0)
      (Weaver_util.Stats.percentile r.Workloads.Readscale.read_latencies 99.0)
      r.Workloads.Readscale.reads_err ctr.Runtime.repl_rounds
      ctr.Runtime.repl_installs ctr.Runtime.repl_updates ctr.Runtime.repl_resyncs
      ctr.Runtime.repl_routed routed_frac rows
  end
  else begin
    Printf.printf
      "hot-range replication (factor %d) under %d zipf readers (theta=%.2f, %d shards)\n\n"
      factor clients theta shards;
    Printf.printf "read goodput  %8.0f /s   (p50 %.0f us, p99 %.0f us, %d errors)\n"
      r.Workloads.Readscale.read_goodput
      (Weaver_util.Stats.percentile r.Workloads.Readscale.read_latencies 50.0)
      (Weaver_util.Stats.percentile r.Workloads.Readscale.read_latencies 99.0)
      r.Workloads.Readscale.reads_err;
    Printf.printf "write rate    %8.0f /s\n\n" r.Workloads.Readscale.write_throughput;
    Printf.printf
      "controller: %d rounds, %d installs; owners streamed %d updates (%d resyncs)\n"
      ctr.Runtime.repl_rounds ctr.Runtime.repl_installs ctr.Runtime.repl_updates
      ctr.Runtime.repl_resyncs;
    Printf.printf "gatekeepers routed %d reads to followers (%.1f%% of reads)\n"
      ctr.Runtime.repl_routed (100.0 *. routed_frac);
    if table_rows <> [] then begin
      Printf.printf "\n%8s %6s %-16s %s\n" "range" "owner" "followers" "advertising";
      List.iter
        (fun (range, owner, fs, covering) ->
          Printf.printf "%8d %6d %-16s %d/%d\n" range owner
            (String.concat "," (List.map string_of_int fs))
            covering (List.length fs))
        table_rows
    end
  end

let backup_demo gatekeepers shards tau seed =
  let c = mk_cluster ~gatekeepers ~shards ~tau ~seed () in
  let client = Cluster.client c in
  let rng = Weaver_util.Xrand.create ~seed () in
  let g = Workloads.Graphgen.uniform ~rng ~prefix:"b" ~vertices:200 ~edges:800 () in
  Workloads.Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  ignore client;
  let image = Backup.dump c in
  Printf.printf "dumped %d vertices into a %d-byte image\n" 200 (String.length image);
  let c2 = mk_cluster ~gatekeepers ~shards ~tau ~seed:(seed + 1) () in
  Backup.restore c2 image;
  Cluster.run_for c2 5_000.0;
  let client2 = Cluster.client c2 in
  match
    Client.run_program client2 ~prog:"count_edges" ~params:Progval.Null
      ~starts:(Workloads.Graphgen.vertex_ids g) ()
  with
  | Ok (Progval.Int n) -> Printf.printf "restored cluster reports %d edges\n" n
  | _ -> failwith "restore verification failed"

(* Shared by [stats] and [trace]: a mixed transaction / node-program run
   against a small preloaded graph, with request tracing on. Returns the
   trace ids of the issued requests (transactions first). *)
let run_mixed c ~txs ~progs =
  let client = Cluster.client c in
  let rng = Weaver_util.Xrand.create ~seed:7 () in
  let g = Workloads.Graphgen.uniform ~rng ~prefix:"m" ~vertices:300 ~edges:1_200 () in
  Workloads.Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  let vertices = Array.of_list (Workloads.Graphgen.vertex_ids g) in
  let tx_traces = ref [] in
  for i = 1 to txs do
    let tx = Client.Tx.begin_ client in
    let src = Weaver_util.Xrand.pick rng vertices in
    let dst = Weaver_util.Xrand.pick rng vertices in
    ignore (Client.Tx.create_edge tx ~src ~dst);
    Client.Tx.set_vertex_prop tx ~vid:src ~key:"touched" ~value:(string_of_int i);
    ignore (Client.commit client tx);
    tx_traces := Client.last_request_id client :: !tx_traces
  done;
  let prog_traces = ref [] in
  for _ = 1 to progs do
    let start = Weaver_util.Xrand.pick rng vertices in
    ignore
      (Client.run_program client ~prog:"get_edges" ~params:Progval.Null
         ~starts:[ start ] ());
    prog_traces := Client.last_request_id client :: !prog_traces
  done;
  Cluster.run_for c 10_000.0;
  (List.rev !tx_traces, List.rev !prog_traces)

let stats gatekeepers shards tau seed txs progs json =
  let c = mk_cluster ~tracing:true ~gatekeepers ~shards ~tau ~seed () in
  let tx_traces, prog_traces = run_mixed c ~txs ~progs in
  let m = Cluster.metrics c in
  (* per-request message counts come from the real trace ledgers *)
  let tr = Option.get (Cluster.request_tracer c) in
  List.iter
    (fun id ->
      let n = Trace.message_count tr id in
      if n > 0 then Metrics.observe m "req.messages" (float_of_int n))
    (tx_traces @ prog_traces);
  if json then print_endline (Metrics.to_json m)
  else begin
    Printf.printf "mixed run: %d transactions, %d node programs (%d gks, %d shards)\n\n"
      txs progs gatekeepers shards;
    print_string (Metrics.render m);
    print_newline ();
    let phase ?(unit = "us") name label =
      match List.assoc_opt name (Metrics.reservoirs m) with
      | None -> Printf.printf "%-16s (no samples)\n" label
      | Some s ->
          Printf.printf "%-16s p50 %8.1f %s   p99 %8.1f %s   (n=%d)\n" label
            (Weaver_util.Stats.percentile s 50.0)
            unit
            (Weaver_util.Stats.percentile s 99.0)
            unit
            (Weaver_util.Stats.count s)
    in
    print_endline "per-phase latency breakdown:";
    phase "gk.admission_wait" "admission";
    phase "gk.store_rtt" "store";
    phase "shard.queue_wait" "shard-queue";
    phase "shard.oracle_wait" "oracle";
    phase ~unit:"  " "req.messages" "msgs/request";
    let net = (Cluster.runtime c).Runtime.net in
    Printf.printf "\nmessages dropped at dead endpoints: %d\n"
      (Weaver_sim.Net.messages_dropped net);
    List.iter
      (fun (dst, n) ->
        Printf.printf "  -> %-10s %d\n" (Cluster.actor_of_addr c dst) n)
      (Weaver_sim.Net.drops_by_dst net)
  end

(* Timeline: sustained TAO-mix load with registry sampling on; windowed
   rates and utilization, or the full series as JSON/CSV. *)
let timeline_cmd_impl gatekeepers shards tau seed clients duration_ms period_ms json csv =
  let c =
    mk_cluster ~timeline:true
      ~timeline_period:(period_ms *. 1000.0)
      ~gatekeepers ~shards ~tau ~seed ()
  in
  let rng = Weaver_util.Xrand.create ~seed () in
  let g = Workloads.Graphgen.uniform ~rng ~prefix:"t" ~vertices:800 ~edges:3_200 () in
  Workloads.Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  let vertices = Array.of_list (Workloads.Graphgen.vertex_ids g) in
  ignore
    (Workloads.Tao.Driver.run c ~vertices ~clients ~duration:(duration_ms *. 1000.0)
       ~read_fraction:0.95 ());
  let tl = Option.get (Cluster.timeline c) in
  if json then print_string (Weaver_obs.Export.timeline_json tl)
  else if csv then print_string (Weaver_obs.Export.timeline_csv tl)
  else begin
    let rate name = Weaver_obs.Timeline.rates tl name in
    let txs = rate "tx.committed"
    and progs = rate "prog.completed"
    and msgs = rate "net.sent"
    and pages = rate "paging.page_ins"
    and gk_busy = rate "util.gk0.busy_us"
    and sh_busy = rate "util.shard0.busy_us" in
    let at series t =
      match List.assoc_opt t series with Some v -> v | None -> 0.0
    in
    Printf.printf "%d samples every %.0f ms over %.0f ms of virtual time\n\n"
      (Weaver_obs.Timeline.length tl) period_ms duration_ms;
    Printf.printf "%10s %10s %10s %10s %10s %8s %8s\n" "time(ms)" "tx/s" "prog/s"
      "msg/s" "pages/s" "gk0busy" "sh0busy";
    List.iter
      (fun (t, tx_rate) ->
        Printf.printf "%10.1f %10.0f %10.0f %10.0f %10.0f %7.1f%% %7.1f%%\n"
          (t /. 1000.0) tx_rate (at progs t) (at msgs t) (at pages t)
          (at gk_busy t /. 10_000.0)
          (at sh_busy t /. 10_000.0))
      txs
  end

(* Export: traced mixed run serialized as Chrome trace-event JSON for
   Perfetto / chrome://tracing. *)
let export_cmd_impl gatekeepers shards tau seed txs progs out =
  let c = mk_cluster ~tracing:true ~gatekeepers ~shards ~tau ~seed () in
  let tx_traces, prog_traces = run_mixed c ~txs ~progs in
  let tr = Option.get (Cluster.request_tracer c) in
  let doc =
    Weaver_obs.Export.chrome_trace tr
      ~traces:(tx_traces @ prog_traces)
      ~actor_of_addr:(Cluster.actor_of_addr c) ()
  in
  match out with
  | "-" -> print_string doc
  | path ->
      let oc = open_out path in
      output_string oc doc;
      close_out oc;
      Printf.printf "wrote %s (%d traces, %d bytes)\n" path
        (List.length tx_traces + List.length prog_traces)
        (String.length doc)

(* Slow: traced mixed run; the top-K slowest requests with per-phase
   breakdowns. *)
let slow_cmd_impl gatekeepers shards tau seed txs progs json =
  let c = mk_cluster ~tracing:true ~gatekeepers ~shards ~tau ~seed () in
  ignore (run_mixed c ~txs ~progs);
  let log = Cluster.slow_log c in
  if json then print_endline (Weaver_obs.Slowlog.to_json log)
  else print_string (Weaver_obs.Slowlog.render log)

let trace_cmd_impl gatekeepers shards tau seed =
  let c = mk_cluster ~tracing:true ~gatekeepers ~shards ~tau ~seed () in
  let tx_traces, prog_traces = run_mixed c ~txs:3 ~progs:1 in
  let tr = Option.get (Cluster.request_tracer c) in
  (match List.rev tx_traces with
  | last :: _ ->
      print_endline "=== transaction ===";
      print_string (Trace.render tr last)
  | [] -> ());
  match prog_traces with
  | p :: _ ->
      print_endline "=== node program ===";
      print_string (Trace.render tr p)
  | [] -> ()

(* Heat: zipf-skewed TAO-mix load with heat attribution on; per-shard
   hottest vertices, the per-range heat map, and the cluster skew ratio. *)
let heat_cmd_impl gatekeepers shards tau seed clients duration_ms theta json csv =
  let c = mk_cluster ~heat:true ~gatekeepers ~shards ~tau ~seed () in
  let rng = Weaver_util.Xrand.create ~seed () in
  let g = Workloads.Graphgen.uniform ~rng ~prefix:"h" ~vertices:512 ~edges:2_048 () in
  Workloads.Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  let vertices = Array.of_list (Workloads.Graphgen.vertex_ids g) in
  ignore
    (Workloads.Tao.Driver.run c ~vertices ~clients ~duration:(duration_ms *. 1000.0)
       ~read_fraction:0.9 ~theta ());
  let h = Option.get (Cluster.heat c) in
  let now = Cluster.now c in
  if json then print_endline (Weaver_obs.Export.heat_json h ~now)
  else if csv then print_string (Weaver_obs.Export.heat_csv h ~now)
  else begin
    let module Heat = Weaver_obs.Heat in
    Printf.printf "heat after %.0f ms of TAO-mix at zipf theta=%.2f (skew %.2f)\n\n"
      duration_ms theta (Heat.skew h ~now);
    for s = 0 to Heat.shards h - 1 do
      let reads, writes, cross = Heat.totals h ~shard:s in
      Printf.printf "shard %d: %d reads, %d writes, %d cross-shard touches\n" s reads
        writes cross;
      List.iteri
        (fun i (vid, n, err) ->
          if i < 5 then Printf.printf "  %d. %-12s ~%d touches (err <= %d)\n" (i + 1) vid n err)
        (Heat.top h ~shard:s)
    done;
    (* the hottest ranges cluster-wide, by decayed read+write load *)
    let ranges =
      List.init (Heat.ranges h) (fun r ->
          ( r,
            Heat.range_load h ~range:r ~kind:Heat.Read ~now
            +. Heat.range_load h ~range:r ~kind:Heat.Write ~now ))
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    in
    Printf.printf "\nhottest ranges (decayed load, half-life %.0f ms):\n"
      (Heat.half_life h /. 1000.0);
    List.iteri
      (fun i (r, l) ->
        if i < 8 then
          Printf.printf "  range %2d (home shard %d): %8.1f\n" r (Heat.home_shard h r) l)
      ranges
  end

(* Health: watchdog checks across a mid-run gatekeeper crash. The failure
   detector is suppressed (huge timeout) so the stalled GC watermark stays
   visible to the watchdog instead of being healed by a replacement. *)
let health_cmd_impl gatekeepers shards seed duration_ms json =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = gatekeepers;
      Config.n_shards = shards;
      Config.seed;
      Config.enable_health = true;
      Config.health_period = 5_000.0;
      Config.failure_timeout = 1.0e9;
    }
  in
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  let rng = Weaver_util.Xrand.create ~seed () in
  let g = Workloads.Graphgen.uniform ~rng ~prefix:"w" ~vertices:400 ~edges:1_600 () in
  Workloads.Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  let crash_at = Cluster.now c +. (duration_ms *. 1000.0 /. 3.0) in
  ignore
    (Cluster.install_fault_plan c
       [ { Weaver_sim.Fault.at = crash_at; action = Weaver_sim.Fault.Crash (Weaver_sim.Fault.Gatekeeper 0) } ]);
  let vertices = Array.of_list (Workloads.Graphgen.vertex_ids g) in
  ignore
    (Workloads.Tao.Driver.run c ~vertices ~clients:12
       ~duration:(duration_ms *. 1000.0) ~read_fraction:0.9 ());
  let h = Option.get (Cluster.health c) in
  if json then print_endline (Weaver_obs.Health.to_json h)
  else begin
    Printf.printf "gatekeeper 0 crashed at %.0f ms (failure detector suppressed)\n\n"
      (crash_at /. 1000.0);
    print_string (Weaver_obs.Health.render h)
  end

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Tiny end-to-end demo")
    Term.(const demo $ gatekeepers $ shards $ tau $ seed)

let tao_cmd =
  let clients =
    Arg.(value & opt int 30 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent clients.")
  in
  let duration =
    Arg.(value & opt float 300.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Virtual ms.")
  in
  let read_pct =
    Arg.(value & opt float 99.8 & info [ "r"; "reads" ] ~docv:"PCT" ~doc:"Read percentage.")
  in
  Cmd.v (Cmd.info "tao" ~doc:"TAO-mix benchmark")
    Term.(const tao $ gatekeepers $ shards $ tau $ seed $ clients $ duration $ read_pct)

let coingraph_cmd =
  let height =
    Arg.(value & opt int 200_000 & info [ "height" ] ~docv:"H" ~doc:"Block height.")
  in
  Cmd.v (Cmd.info "coingraph" ~doc:"Blockchain explorer demo")
    Term.(const coingraph $ gatekeepers $ shards $ tau $ seed $ height)

let fault_cmd =
  Cmd.v (Cmd.info "fault" ~doc:"Failure detection and recovery demo")
    Term.(const fault $ gatekeepers $ shards $ tau $ seed)

let chaos_cmd =
  let clients =
    Arg.(value & opt int 8 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent clients.")
  in
  let duration =
    Arg.(value & opt float 400.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Virtual ms.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit both runs as JSON.") in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Availability under a rolling crash/restart fault plan, client reliability \
          off vs on")
    Term.(const chaos $ gatekeepers $ shards $ seed $ clients $ duration $ json)

let sweep_cmd =
  Cmd.v (Cmd.info "sweep" ~doc:"Announce-period sweep (Fig. 14 in miniature)")
    Term.(const sweep $ gatekeepers $ shards $ seed)

let overload_cmd =
  let mult =
    Arg.(
      value & opt float 2.0
      & info [ "m"; "mult" ] ~docv:"X" ~doc:"Offered load as a multiple of saturation.")
  in
  let duration =
    Arg.(
      value & opt float 200.0
      & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Issuance window, virtual ms.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit both arms as JSON.") in
  Cmd.v
    (Cmd.info "overload"
       ~doc:
         "Open-loop saturation quick-look: goodput, tail latency, and shed rate \
          with flow control (admission + deadline shedding + credits) off vs on")
    Term.(const overload $ gatekeepers $ shards $ seed $ mult $ duration $ json)

let snapshot_cmd =
  let duration =
    Arg.(
      value & opt float 150.0
      & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Race window, virtual ms.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit both arms as JSON.") in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Historical analytics vs live writes quick-look: versioned snapshot \
          store (pinned lock-free reads) off vs on")
    Term.(const snapshot $ gatekeepers $ shards $ seed $ duration $ json)

let heat_cmd =
  let clients =
    Arg.(value & opt int 16 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent clients.")
  in
  let duration =
    Arg.(value & opt float 150.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Virtual ms.")
  in
  let theta =
    Arg.(value & opt float 0.9 & info [ "theta" ] ~docv:"T" ~doc:"Zipf vertex skew.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the heat snapshot as JSON.") in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit the per-range heat map as CSV.") in
  Cmd.v
    (Cmd.info "heat"
       ~doc:
         "Per-shard hottest vertices (Space-Saving sketch) and per-range decayed \
          heat map under zipf-skewed TAO-mix load")
    Term.(
      const heat_cmd_impl $ gatekeepers $ shards $ tau $ seed $ clients $ duration
      $ theta $ json $ csv)

let health_cmd =
  let duration =
    Arg.(value & opt float 400.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Virtual ms.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the alert log as JSON.") in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Cluster health watchdog quick-look: alerts fired across a mid-run \
          gatekeeper crash (watermark stall, queue trend, shed/skew/late rates)")
    Term.(const health_cmd_impl $ gatekeepers $ shards $ seed $ duration $ json)

let rebalance_cmd =
  let clients =
    Arg.(value & opt int 16 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent clients.")
  in
  let duration =
    Arg.(value & opt float 300.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Virtual ms.")
  in
  let theta =
    Arg.(
      value & opt float 0.2
      & info [ "theta" ] ~docv:"T" ~doc:"Zipf skew within the hot set.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit trajectory and move log as JSON.") in
  Cmd.v
    (Cmd.info "rebalance"
       ~doc:
         "Live heat-driven rebalancing quick-look (par. 4.6): a hot spot \
          pinned on one shard, the planner's migrations, and the skew \
          trajectory")
    Term.(
      const rebalance_live $ gatekeepers $ shards $ tau $ seed $ clients $ duration
      $ theta $ json)

let replication_cmd =
  let clients =
    Arg.(value & opt int 32 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent readers.")
  in
  let duration =
    Arg.(value & opt float 200.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Virtual ms.")
  in
  let theta =
    Arg.(
      value & opt float 0.9
      & info [ "theta" ] ~docv:"T" ~doc:"Zipf skew of the readers.")
  in
  let factor =
    Arg.(
      value & opt int 2
      & info [ "f"; "factor" ] ~docv:"N" ~doc:"Replication factor (0 disables).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit results and the routing table as JSON.") in
  Cmd.v
    (Cmd.info "replication"
       ~doc:
         "Hot-range partial replication quick-look: controller installs, \
          owner update streams, and the fraction of weak reads served by \
          follower copies")
    Term.(
      const replication_live $ gatekeepers $ shards $ seed $ clients $ duration
      $ theta $ factor $ json)

let backup_cmd =
  Cmd.v (Cmd.info "backup" ~doc:"Backup/restore demo")
    Term.(const backup_demo $ gatekeepers $ shards $ tau $ seed)

let stats_cmd =
  let txs =
    Arg.(value & opt int 40 & info [ "txs" ] ~docv:"N" ~doc:"Transactions to issue.")
  in
  let progs =
    Arg.(value & opt int 10 & info [ "progs" ] ~docv:"N" ~doc:"Node programs to issue.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry as JSON.") in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Mixed run with tracing on; metrics registry and per-phase latency breakdown")
    Term.(const stats $ gatekeepers $ shards $ tau $ seed $ txs $ progs $ json)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace" ~doc:"Span tree of one traced transaction and node program")
    Term.(const trace_cmd_impl $ gatekeepers $ shards $ tau $ seed)

let timeline_cmd =
  let clients =
    Arg.(value & opt int 20 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent clients.")
  in
  let duration =
    Arg.(value & opt float 200.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Virtual ms.")
  in
  let period =
    Arg.(value & opt float 10.0 & info [ "p"; "period" ] ~docv:"MS" ~doc:"Sample period, virtual ms.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the full series as JSON.") in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit the full series as CSV.") in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Sampled time series (throughput, messages, utilization) under TAO-mix load")
    Term.(
      const timeline_cmd_impl $ gatekeepers $ shards $ tau $ seed $ clients $ duration
      $ period $ json $ csv)

let export_cmd =
  let txs =
    Arg.(value & opt int 20 & info [ "txs" ] ~docv:"N" ~doc:"Transactions to issue.")
  in
  let progs =
    Arg.(value & opt int 5 & info [ "progs" ] ~docv:"N" ~doc:"Node programs to issue.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file ('-' for stdout).")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Chrome trace-event JSON of a traced mixed run (open in Perfetto)")
    Term.(const export_cmd_impl $ gatekeepers $ shards $ tau $ seed $ txs $ progs $ out)

let slow_cmd =
  let txs =
    Arg.(value & opt int 40 & info [ "txs" ] ~docv:"N" ~doc:"Transactions to issue.")
  in
  let progs =
    Arg.(value & opt int 10 & info [ "progs" ] ~docv:"N" ~doc:"Node programs to issue.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the log as JSON.") in
  Cmd.v
    (Cmd.info "slow"
       ~doc:"Top-K slowest requests of a traced mixed run, with per-phase breakdowns")
    Term.(const slow_cmd_impl $ gatekeepers $ shards $ tau $ seed $ txs $ progs $ json)

let () =
  let info =
    Cmd.info "weaver-cli" ~version:"1.0.0"
      ~doc:"Drive a simulated Weaver graph database deployment"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            demo_cmd;
            tao_cmd;
            coingraph_cmd;
            fault_cmd;
            chaos_cmd;
            sweep_cmd;
            overload_cmd;
            snapshot_cmd;
            heat_cmd;
            health_cmd;
            rebalance_cmd;
            replication_cmd;
            backup_cmd;
            stats_cmd;
            trace_cmd;
            timeline_cmd;
            export_cmd;
            slow_cmd;
          ]))
