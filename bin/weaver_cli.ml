(* weaver-cli: poke a simulated Weaver deployment from the command line.

   Subcommands (chaos, sweep, overload, snapshot, rebalance, replication
   and the mixed run of stats/trace/export/slow are the bench's own
   experiments, run under the flags):
     demo        build a small social graph and run sample queries
     tao         run the TAO-mix benchmark with chosen parameters
     coingraph   ingest and query synthetic blocks
     fault       demonstrate failure detection and recovery
     chaos       availability under a crash/restart fault plan, reliability off vs on
     sweep       announce-period sweep (Fig. 14)
     overload    open-loop saturation quick-look, flow control off vs on
     snapshot    pinned historical analytics from the store vs live writes
     heat        per-shard hottest vertices and per-range heat map under zipf load
     health      watchdog alerts across a mid-run gatekeeper crash
     rebalance   hot-spot flip across shards, live balancer off vs on
     replication partial replication: read goodput, write rate, routed reads
     backup      backup/restore demo
     stats       mixed run with tracing on; per-phase latency breakdown
     profile     the same mixed run; CPU and allocation per message handler
     trace       span tree of one traced transaction and node program
     timeline    sampled time series under TAO-mix load
     export      Chrome trace-event JSON of a traced mixed run
     slow        top-K slowest requests of a traced mixed run *)

open Cmdliner
open Weaver_core
module Workloads = Weaver_workloads
module Metrics = Weaver_obs.Metrics
module Trace = Weaver_obs.Trace
module Json = Weaver_util.Json
module X = Weaver_bench.Experiments

(* the default configuration under the common flags *)
let config ~gatekeepers ~shards ~tau ~seed =
  {
    Config.default with
    Config.n_gatekeepers = gatekeepers;
    Config.n_shards = shards;
    Config.tau;
    Config.seed;
  }

let cluster ~gatekeepers ~shards ~tau ~seed =
  X.cluster (config ~gatekeepers ~shards ~tau ~seed)

let print_json fields = print_endline (Json.to_string (Json.Obj fields))

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
  let c = cluster ~gatekeepers ~shards ~tau ~seed in
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
  let c = cluster ~gatekeepers ~shards ~tau ~seed in
  let rng = Weaver_util.Xrand.create ~seed () in
  let g =
    Workloads.Graphgen.preferential ~rng ~prefix:"u" ~vertices:4_000 ~out_degree:7 ()
  in
  let vertices = X.install c g in
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
  Printf.printf "oracle consults: %d; announces: %d\n" ctr.Runtime.oracle_consults
    ctr.Runtime.announce_msgs;
  print_newline ();
  print_string (Cluster.report c)

let coingraph gatekeepers shards tau seed height =
  let c = cluster ~gatekeepers ~shards ~tau ~seed in
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
  let c = cluster ~gatekeepers ~shards ~tau ~seed in
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

(* The quick-looks below run the bench's own experiments (bench/experiments.ml)
   under the command-line flags, and print the bench's table or JSON. *)

let chaos gatekeepers shards seed clients duration json =
  let o =
    { X.Chaos.defaults with X.Chaos.seed; gatekeepers; shards; clients; duration = duration *. 1_000.0 }
  in
  let r = X.Chaos.run o in
  if json then print_json (X.Chaos.document o r) else X.Chaos.table r

let sweep gatekeepers shards seed =
  X.Fig14.table (X.Fig14.run { X.Fig14.seed; gatekeepers; shards })

let overload gatekeepers shards seed mult duration_ms json =
  let o =
    { X.Overload.seed; gatekeepers; shards; duration = duration_ms *. 1_000.0; mults = [ mult ] }
  in
  let sweep = X.Overload.run o in
  if json then print_json (X.Overload.document o sweep) else X.Overload.table o sweep

let snapshot gatekeepers shards seed duration_ms json =
  let o = { X.Snapshot.seed; gatekeepers; shards; window = duration_ms *. 1_000.0 } in
  let r = X.Snapshot.run o in
  if json then print_json (X.Snapshot.document o r) else X.Snapshot.table r

let rebalance gatekeepers shards tau seed clients json =
  let o = { X.Rebalance.seed; gatekeepers; shards; tau; writers = clients } in
  let r = X.Rebalance.run o in
  if json then print_json (X.Rebalance.document o r) else X.Rebalance.table r

let replication gatekeepers shards seed clients duration_ms theta factor json =
  let o =
    {
      X.Replication.seed;
      gatekeepers;
      shards;
      readers = clients;
      duration = duration_ms *. 1_000.0;
      thetas = [ theta ];
      factors = [ factor ];
    }
  in
  let runs = X.Replication.run o in
  if json then print_json (X.Replication.document o runs) else X.Replication.table runs

let backup_demo gatekeepers shards tau seed =
  let c = cluster ~gatekeepers ~shards ~tau ~seed in
  let rng = Weaver_util.Xrand.create ~seed () in
  let g = Workloads.Graphgen.uniform ~rng ~prefix:"b" ~vertices:200 ~edges:800 () in
  ignore (X.install c g);
  let image = Backup.dump c in
  let dumped = List.length g.Workloads.Graphgen.edges in
  Printf.printf "dumped %d vertices and %d edges into a %d-byte image\n"
    g.Workloads.Graphgen.n_vertices dumped (String.length image);
  let c2 = cluster ~gatekeepers ~shards ~tau ~seed:(seed + 1) in
  Backup.restore c2 image;
  Cluster.run_for c2 5_000.0;
  let client2 = Cluster.client c2 in
  match
    Client.run_program client2 ~prog:"count_edges" ~params:Progval.Null
      ~starts:(Workloads.Graphgen.vertex_ids g) ()
  with
  | Ok (Progval.Int n) when n = dumped -> Printf.printf "restored cluster reports %d edges\n" n
  | Ok (Progval.Int n) -> failwith (Printf.sprintf "restored cluster reports %d of %d edges" n dumped)
  | _ -> failwith "restore verification failed"

(* [stats], [trace], [export] and [slow] inspect the bench's traced
   mixed run (the breakdown experiment) *)
let mixed_run gatekeepers shards tau seed txs progs =
  X.Breakdown.run { X.Breakdown.seed; gatekeepers; shards; tau; txs; progs }

let stats gatekeepers shards tau seed txs progs json =
  let c, tx_traces, _ = mixed_run gatekeepers shards tau seed txs progs in
  let m = Cluster.metrics c in
  if json then print_endline (Metrics.to_json m)
  else begin
    Printf.printf "mixed run: %d transactions, %d node programs (%d gks, %d shards)\n\n"
      txs progs gatekeepers shards;
    print_string (Metrics.render m);
    print_endline "\nper-phase latency breakdown:";
    X.Breakdown.table (X.Breakdown.summarize c tx_traces);
    let net = (Cluster.runtime c).Runtime.net in
    Printf.printf "\nmessages dropped at dead endpoints: %d\n"
      (Weaver_sim.Net.messages_dropped net);
    List.iter
      (fun (dst, n) ->
        Printf.printf "  -> %-10s %d\n" (Cluster.actor_of_addr c dst) n)
      (Weaver_sim.Net.drops_by_dst net)
  end

(* [profile]: the mixed run with handler attribution attached. Time is
   read from the monotonic clock, which on this single-threaded simulator
   is the handler's CPU time; per-op figures divide by txs + progs. Time
   inside the timeline oracle is its own "oracle" row, left out of the
   handler that called it. *)
let profile gatekeepers shards tau seed txs progs json =
  let prof =
    Weaver_obs.Prof.create ~clock:(fun () -> Int64.to_int (Monotonic_clock.now ()))
  in
  let cpu0 = Sys.time () in
  ignore (X.Breakdown.run ~prof { X.Breakdown.seed; gatekeepers; shards; tau; txs; progs });
  let cpu_ns = (Sys.time () -. cpu0) *. 1e9 in
  let rows = Weaver_obs.Prof.rows prof in
  let total = Weaver_obs.Prof.total_ns prof in
  let ops = float_of_int (max 1 (txs + progs)) in
  let per_call n (r : Weaver_obs.Prof.row) = n /. float_of_int (max 1 r.calls) in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("experiment", Json.Str "profile");
              ("ops", Json.int (txs + progs));
              ("run_cpu_ns", Json.fixed 0 cpu_ns);
              ("attributed_ns", Json.int total);
              ( "handlers",
                Json.List
                  (List.map
                     (fun (r : Weaver_obs.Prof.row) ->
                       Json.Obj
                         [
                           ("actor", Json.Str r.actor);
                           ("kind", Json.Str r.kind);
                           ("calls", Json.int r.calls);
                           ("ns", Json.int r.ns);
                           ("ns_per_call", Json.fixed 1 (per_call (float_of_int r.ns) r));
                           ("ns_per_op", Json.fixed 1 (float_of_int r.ns /. ops));
                           ("minor_words_per_call", Json.fixed 1 (per_call r.minor_words r));
                         ])
                     rows) );
            ]))
  else begin
    Printf.printf "mixed run: %d transactions, %d node programs (%d gks, %d shards)\n\n" txs
      progs gatekeepers shards;
    Printf.printf "%-11s %-14s %8s %10s %9s %9s %9s\n" "actor" "message" "calls" "total_us"
      "ns/call" "ns/op" "words/call";
    List.iter
      (fun (r : Weaver_obs.Prof.row) ->
        Printf.printf "%-11s %-14s %8d %10.0f %9.0f %9.0f %9.1f\n" r.actor r.kind r.calls
          (float_of_int r.ns /. 1e3)
          (per_call (float_of_int r.ns) r)
          (float_of_int r.ns /. ops)
          (per_call r.minor_words r))
      rows;
    Printf.printf "\nhandlers and oracle calls: %.1f ms of %.1f ms run CPU (%.0f%%); the rest \
                   is set-up, the engine and timers\n"
      (float_of_int total /. 1e6) (cpu_ns /. 1e6)
      (100.0 *. float_of_int total /. Float.max 1.0 cpu_ns)
  end

(* Timeline: sustained TAO-mix load with registry sampling on; windowed
   rates and utilization, or the full series as JSON/CSV. *)
let timeline_cmd_impl gatekeepers shards tau seed clients duration_ms period_ms json csv =
  let c =
    X.cluster
      {
        (config ~gatekeepers ~shards ~tau ~seed) with
        Config.enable_timeline = true;
        Config.timeline_period = period_ms *. 1000.0;
      }
  in
  let rng = Weaver_util.Xrand.create ~seed () in
  let g = Workloads.Graphgen.uniform ~rng ~prefix:"t" ~vertices:800 ~edges:3_200 () in
  let vertices = X.install c g in
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
  let c, tx_traces, prog_traces = mixed_run gatekeepers shards tau seed txs progs in
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
  let c, _, _ = mixed_run gatekeepers shards tau seed txs progs in
  let log = Cluster.slow_log c in
  if json then print_endline (Weaver_obs.Slowlog.to_json log)
  else print_string (Weaver_obs.Slowlog.render log)

let trace_cmd_impl gatekeepers shards tau seed =
  let c, tx_traces, prog_traces = mixed_run gatekeepers shards tau seed 3 1 in
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
  let c =
    X.cluster { (config ~gatekeepers ~shards ~tau ~seed) with Config.enable_heat = true }
  in
  let rng = Weaver_util.Xrand.create ~seed () in
  let g = Workloads.Graphgen.uniform ~rng ~prefix:"h" ~vertices:512 ~edges:2_048 () in
  let vertices = X.install c g in
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
  let c =
    X.cluster
      {
        (config ~gatekeepers ~shards ~tau:Config.default.Config.tau ~seed) with
        Config.enable_health = true;
        Config.health_period = 5_000.0;
        Config.failure_timeout = 1.0e9;
      }
  in
  let rng = Weaver_util.Xrand.create ~seed () in
  let g = Workloads.Graphgen.uniform ~rng ~prefix:"w" ~vertices:400 ~edges:1_600 () in
  let vertices = X.install c g in
  let crash_at = Cluster.now c +. (duration_ms *. 1000.0 /. 3.0) in
  ignore
    (Cluster.install_fault_plan c
       [ { Weaver_sim.Fault.at = crash_at; action = Weaver_sim.Fault.Crash (Weaver_sim.Fault.Gatekeeper 0) } ]);
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

(* per-subcommand options; each subcommand picks its own default *)
let clients ?(doc = "Concurrent clients.") n =
  Arg.(value & opt int n & info [ "c"; "clients" ] ~docv:"N" ~doc)

let duration ?(doc = "Virtual ms.") ms =
  Arg.(value & opt float ms & info [ "d"; "duration" ] ~docv:"MS" ~doc)

let theta doc t = Arg.(value & opt float t & info [ "theta" ] ~docv:"T" ~doc)
let txs n = Arg.(value & opt int n & info [ "txs" ] ~docv:"N" ~doc:"Transactions to issue.")
let progs n = Arg.(value & opt int n & info [ "progs" ] ~docv:"N" ~doc:"Node programs to issue.")
let json doc = Arg.(value & flag & info [ "json" ] ~doc)
let csv doc = Arg.(value & flag & info [ "csv" ] ~doc)
let bench_json = json "Emit the bench's document as JSON."
let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let commands =
  let read_pct =
    Arg.(value & opt float 99.8 & info [ "r"; "reads" ] ~docv:"PCT" ~doc:"Read percentage.")
  in
  let height = Arg.(value & opt int 200_000 & info [ "height" ] ~docv:"H" ~doc:"Block height.") in
  let mult =
    Arg.(
      value & opt float 2.0
      & info [ "m"; "mult" ] ~docv:"X" ~doc:"Offered load as a multiple of saturation.")
  in
  let factor =
    Arg.(
      value & opt int 2
      & info [ "f"; "factor" ] ~docv:"N"
          ~doc:"Replication factor: shards following each range (0 disables; below the shard count).")
  in
  let period =
    Arg.(
      value & opt float 10.0 & info [ "p"; "period" ] ~docv:"MS" ~doc:"Sample period, virtual ms.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file ('-' for stdout).")
  in
  [
    cmd "demo" "Tiny end-to-end demo" Term.(const demo $ gatekeepers $ shards $ tau $ seed);
    cmd "tao" "TAO-mix benchmark"
      Term.(
        const tao $ gatekeepers $ shards $ tau $ seed $ clients 30 $ duration 300.0 $ read_pct);
    cmd "coingraph" "Blockchain explorer demo"
      Term.(const coingraph $ gatekeepers $ shards $ tau $ seed $ height);
    cmd "fault" "Failure detection and recovery demo"
      Term.(const fault $ gatekeepers $ shards $ tau $ seed);
    cmd "chaos"
      "Availability under a rolling crash/restart fault plan, client reliability off vs on"
      Term.(const chaos $ gatekeepers $ shards $ seed $ clients 8 $ duration 400.0 $ bench_json);
    cmd "sweep" "Announce-period sweep (the bench's Fig. 14)"
      Term.(const sweep $ gatekeepers $ shards $ seed);
    cmd "overload"
      "Open-loop saturation quick-look: goodput, tail latency, and shed rate with flow \
       control (admission + deadline shedding + credits) off vs on"
      Term.(
        const overload $ gatekeepers $ shards $ seed $ mult
        $ duration ~doc:"Issuance window, virtual ms." 200.0
        $ bench_json);
    cmd "snapshot"
      "Historical analytics vs live writes quick-look: reads below each shard's cut served \
       from the durable store"
      Term.(
        const snapshot $ gatekeepers $ shards $ seed
        $ duration ~doc:"Race window, virtual ms." 150.0
        $ bench_json);
    cmd "heat"
      "Per-shard hottest vertices (Space-Saving sketch) and per-range decayed heat map under \
       zipf-skewed TAO-mix load"
      Term.(
        const heat_cmd_impl $ gatekeepers $ shards $ tau $ seed $ clients 16 $ duration 150.0
        $ theta "Zipf vertex skew." 0.9
        $ json "Emit the heat snapshot as JSON."
        $ csv "Emit the per-range heat map as CSV.");
    cmd "health"
      "Cluster health watchdog quick-look: alerts fired across a mid-run gatekeeper crash \
       (watermark stall, queue trend, shed/skew/late rates)"
      Term.(
        const health_cmd_impl $ gatekeepers $ shards $ seed $ duration 400.0
        $ json "Emit the alert log as JSON.");
    cmd "rebalance"
      "Live heat-driven rebalancing quick-look (par. 4.6): writers hammer a hot set on shard \
       0, then flip to shard 1; skew before and after the flip and the planner's moves, \
       balancer off vs on"
      Term.(
        const rebalance $ gatekeepers $ shards $ tau $ seed
        $ clients ~doc:"Closed-loop writers on the hot set." 16
        $ bench_json);
    cmd "replication"
      "Partial replication quick-look: read goodput, write rate and follower-routed reads \
       under zipf readers, each range followed by the next --factor shards"
      Term.(
        const replication $ gatekeepers $ shards $ seed
        $ clients ~doc:"Concurrent readers." 32
        $ duration 200.0
        $ theta "Zipf skew of the readers." 0.9
        $ factor $ bench_json);
    cmd "backup" "Backup/restore demo" Term.(const backup_demo $ gatekeepers $ shards $ tau $ seed);
    cmd "stats" "Mixed run with tracing on; metrics registry and per-phase latency breakdown"
      Term.(
        const stats $ gatekeepers $ shards $ tau $ seed $ txs 40 $ progs 10
        $ json "Emit the registry as JSON.");
    cmd "profile"
      "The mixed run of stats with handler attribution: CPU time and minor-heap words per \
       actor kind and message kind"
      Term.(
        const profile $ gatekeepers $ shards $ tau $ seed $ txs 200 $ progs 50
        $ json "Emit the attribution table as JSON.");
    cmd "trace" "Span tree of one traced transaction and node program"
      Term.(const trace_cmd_impl $ gatekeepers $ shards $ tau $ seed);
    cmd "timeline" "Sampled time series (throughput, messages, utilization) under TAO-mix load"
      Term.(
        const timeline_cmd_impl $ gatekeepers $ shards $ tau $ seed $ clients 20 $ duration 200.0
        $ period
        $ json "Emit the full series as JSON."
        $ csv "Emit the full series as CSV.");
    cmd "export" "Chrome trace-event JSON of a traced mixed run (open in Perfetto)"
      Term.(const export_cmd_impl $ gatekeepers $ shards $ tau $ seed $ txs 20 $ progs 5 $ out);
    cmd "slow" "Top-K slowest requests of a traced mixed run, with per-phase breakdowns"
      Term.(
        const slow_cmd_impl $ gatekeepers $ shards $ tau $ seed $ txs 40 $ progs 10
        $ json "Emit the log as JSON.");
  ]

let () =
  let info =
    Cmd.info "weaver-cli" ~version:"1.0.0" ~doc:"Drive a simulated Weaver graph database deployment"
  in
  exit (Cmd.eval (Cmd.group info commands))
