(* Reproduction of every table and figure in the paper's evaluation (§6),
   plus the ablations DESIGN.md calls out. Each experiment prints the same
   rows/series the paper reports; EXPERIMENTS.md records paper-vs-measured.

   All "time" below is virtual simulation time; see DESIGN.md for why the
   shapes (not the absolute numbers) are the reproduction target.

   The experiments that weaver_cli also runs as quick-looks are modules
   (Fig14, Breakdown, Chaos, Overload, Snapshot, Rebalance, Replication):
   [run] takes an options record of the settings the CLI's flags set,
   whose [defaults] are the bench's values (the other settings are module
   constants, which [document] prints too); [table] prints the console
   table and [document] builds the JSON fields, and [bench] adds the
   gates, the deterministic rerun and the BENCH file. The CLI calls [run] with its flags, then [table] or
   [document]. *)

open Weaver_core
open Weaver_workloads
open Weaver_baselines
module Xrand = Weaver_util.Xrand
module Stats = Weaver_util.Stats
module Partition = Weaver_partition.Partition
module Programs = Weaver_programs.Std_programs
module Json = Weaver_util.Json

let line fmt = Printf.printf (fmt ^^ "\n%!")
let header title = line "\n==== %s ====" title

(* one BENCH_<name>.json in the working directory *)
let write_bench name fields =
  let file = "BENCH_" ^ name ^ ".json" in
  let oc = open_out file in
  output_string oc (Json.to_string (Json.Obj fields));
  output_char oc '\n';
  close_out oc;
  line "wrote %s" file

(* a cluster under [cfg] with the standard node programs registered *)
let cluster cfg =
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  c

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

(* run one node program and return its latency measured at the callback
   (not quantized by the sync driver's polling window) *)
let timed_program cluster client ~prog ~params ~starts =
  let t0 = Cluster.now cluster in
  let result = ref None in
  Client.run_program_async client ~prog ~params ~starts
    ~on_result:(fun r -> result := Some (Cluster.now cluster -. t0, r))
    ();
  let budget = ref 200_000 in
  while Option.is_none !result && !budget > 0 do
    decr budget;
    Cluster.run_for cluster 1_000.0
  done;
  match !result with
  | Some (lat, Ok v) -> (lat, v)
  | Some (_, Error e) -> failwith ("timed_program: " ^ e)
  | None -> failwith "timed_program: stalled"

(* one transaction creating the vertices [ids], through a fresh client *)
let create_vertices c ~what ids =
  let setup = Cluster.client c in
  let tx = Client.Tx.begin_ setup in
  List.iter (fun id -> ignore (Client.Tx.create_vertex tx ~id ())) ids;
  ok_exn what (Client.commit setup tx)

(* load [g] into [c], let the install settle, and return its vertex ids *)
let install c g =
  Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  Array.of_list (Graphgen.vertex_ids g)

(* [clients] closed-loop sessions, each issuing [prog] again as soon as
   its last run returns; [start ()] runs once per session, after the
   session is created, and returns the picker of each run's start vertex.
   Returns the completion counter. *)
let closed_loop_programs c ~clients ~prog ?consistency ~start () =
  let completed = ref 0 in
  for _ = 1 to clients do
    let client = Cluster.client c in
    let pick = start () in
    let rec loop () =
      Client.run_program_async client ~prog ~params:Progval.Null ~starts:[ pick () ]
        ?consistency
        ~on_result:(fun _ ->
          incr completed;
          loop ())
        ()
    in
    loop ()
  done;
  completed

(* a start picker drawing uniformly from [vertices] with its own split of
   the engine RNG *)
let uniform_start c vertices () =
  let vrng = Xrand.split (Weaver_sim.Engine.rng (Cluster.runtime c).Runtime.engine) in
  fun () -> vertices.(Xrand.int vrng (Array.length vertices))

(* [writers] closed-loop sessions, each committing [per_writer]
   single-vertex property writes and retrying aborted commits. Writer [i]
   is [setup i] after creation, draws from its own RNG seeded
   [seed_of i] and writes the vertex [vid (pick rng)];
   [on_commit key latency] sees each commit of [key]. Returns the count
   of finished writers. *)
let closed_loop_writers c ~writers ~per_writer ~seed_of ?(setup = fun _ _ -> ()) ~pick ~vid
    ?(on_commit = fun _ _ -> ()) () =
  let done_writers = ref 0 in
  for i = 0 to writers - 1 do
    let client = Cluster.client c in
    setup i client;
    let rng = Xrand.create ~seed:(seed_of i) () in
    let committed = ref 0 and attempt = ref 0 in
    let rec next () =
      if !committed < per_writer then begin
        incr attempt;
        let key = pick rng in
        let t0 = Cluster.now c in
        let tx = Client.Tx.begin_ client in
        Client.Tx.set_vertex_prop tx ~vid:(vid key) ~key:"n" ~value:(string_of_int !attempt);
        Client.commit_async client tx ~on_result:(fun r ->
            (match r with
            | Ok () ->
                incr committed;
                on_commit key (Cluster.now c -. t0)
            | Error _ -> () (* an OCC abort: retry with a fresh stamp *));
            next ())
      end
      else incr done_writers
    in
    next ()
  done;
  done_writers

(* run until all [writers] are done, in 1 ms steps, for at most 4 s *)
let drain c ~done_writers ~writers ~label =
  let budget = ref 4_000 in
  while !done_writers < writers && !budget > 0 do
    decr budget;
    Cluster.run_for c 1_000.0
  done;
  if !done_writers < writers then failwith (label ^ ": writers stalled")

(* ------------------------------------------------------------------ *)
(* Table 1: the TAO operation mix our generator produces vs the paper.  *)

let table1 () =
  header "Table 1: TAO workload mix (generated vs paper)";
  let rng = Xrand.create ~seed:1 () in
  let vertices = Array.init 1000 (fun i -> "v" ^ string_of_int i) in
  let n = 500_000 in
  let ops = List.init n (fun _ -> Tao.gen_op ~rng ~vertices ()) in
  let counts = Tao.mix_counts ops in
  let paper =
    [
      ("get_edges", 59.4 *. 0.998);
      ("count_edges", 11.7 *. 0.998);
      ("get_node", 28.9 *. 0.998);
      ("create_edge", 80.0 *. 0.2 /. 100.0);
      ("delete_edge", 20.0 *. 0.2 /. 100.0);
    ]
  in
  line "%-14s %10s %10s" "operation" "generated%" "paper%";
  List.iter
    (fun (name, paper_pct) ->
      let got =
        100.0
        *. float_of_int (Option.value ~default:0 (List.assoc_opt name counts))
        /. float_of_int n
      in
      line "%-14s %10.3f %10.3f" name got paper_pct)
    paper

(* ------------------------------------------------------------------ *)
(* Fig. 7: Bitcoin block query latency vs block height,
   CoinGraph vs the Blockchain.info cost model.                        *)

let fig7_heights = [ 1_000; 50_000; 100_000; 150_000; 200_000; 250_000; 300_000; 350_000 ]

(* CoinGraph's deployment reads transactions through demand paging from the
   disk-backed store (par. 6.1), measured by the paper at 0.6-0.8 ms per
   Bitcoin transaction; we calibrate the per-vertex read cost to that. *)
let coingraph_vertex_cost = 2_600.0

let fig7 () =
  header "Fig 7: Bitcoin block query latency (s)";
  let cfg =
    {
      Config.default with
      Config.n_shards = 8;
      Config.seed = 7;
      Config.vertex_read_cost = coingraph_vertex_cost;
    }
  in
  let c = cluster cfg in
  let app = Weaver_apps.Coingraph.create c in
  List.iter (fun h -> ignore (Weaver_apps.Coingraph.preload_block app ~height:h)) fig7_heights;
  Cluster.run_for c 10_000.0;
  let rng = Xrand.create ~seed:77 () in
  line "%-10s %8s %14s %14s %16s" "block" "n_tx" "coingraph(s)" "bc.info(s)" "coingraph ms/tx";
  List.iter
    (fun h ->
      let n_tx = Blockchain.txs_in_block h in
      let lat = Stats.create () in
      for _ = 1 to 20 do
        let t0 = Cluster.now c in
        ignore (ok_exn "block_query" (Weaver_apps.Coingraph.block_query app ~height:h));
        Stats.add lat (Cluster.now c -. t0)
      done;
      let cg = Stats.mean lat /. 1e6 in
      let bc = Blockchain_info.block_query_latency ~rng ~n_tx () /. 1e6 in
      line "%-10d %8d %14.4f %14.4f %16.4f" h n_tx cg bc (Stats.mean lat /. float_of_int n_tx /. 1000.0))
    fig7_heights

(* ------------------------------------------------------------------ *)
(* Fig. 8: throughput of block render queries and vertex read rate.    *)

let fig8 () =
  header "Fig 8: CoinGraph block render throughput";
  line "%-10s %8s %12s %14s" "block" "n_tx" "queries/s" "vertices/s";
  List.iter
    (fun h ->
      let cfg =
        {
          Config.default with
          Config.n_shards = 16;
          Config.seed = 8;
          Config.vertex_read_cost = coingraph_vertex_cost;
        }
      in
      let c = cluster cfg in
      let app = Weaver_apps.Coingraph.create c in
      ignore (Weaver_apps.Coingraph.preload_block app ~height:h);
      Cluster.run_for c 10_000.0;
      let completed =
        closed_loop_programs c ~clients:16 ~prog:"block_render"
          ~start:(fun () () -> Blockchain.block_vid h)
          ()
      in
      let v0 = (Cluster.counters c).Runtime.vertices_read in
      let duration = 1_000_000.0 in
      Cluster.run_for c duration;
      let dv = (Cluster.counters c).Runtime.vertices_read - v0 in
      let secs = duration /. 1e6 in
      line "%-10d %8d %12.1f %14.0f" h (Blockchain.txs_in_block h)
        (float_of_int !completed /. secs)
        (float_of_int dv /. secs))
    [ 1_000; 100_000; 200_000; 300_000; 350_000 ]

(* ------------------------------------------------------------------ *)
(* Fig. 9 / Fig. 10: social-network throughput and latency CDFs,
   Weaver vs the Titan-like 2PL+2PC baseline.                          *)

let social_graph seed =
  let rng = Xrand.create ~seed () in
  Graphgen.preferential ~rng ~prefix:"u" ~vertices:8_000 ~out_degree:7 ()

(* Warp commits on the paper's spinning-disk testbed dominate write
   latency (Fig. 10 shows writes an order of magnitude slower than reads);
   calibrate the per-key store cost so one small write transaction costs
   a paper-like ~15 ms. *)
let social_store_op_cost = 5_000.0

let run_weaver_social ~read_fraction ~clients ~seed =
  let cfg =
    {
      Config.default with
      Config.n_shards = 8;
      Config.seed;
      Config.store_op_cost = social_store_op_cost;
    }
  in
  let c = cluster cfg in
  let g = social_graph seed in
  let vertices = install c g in
  ( Tao.Driver.run c ~vertices ~clients ~duration:400_000.0 ~read_fraction
      ~warmup:50_000.0 (),
    c )

let titan_social ~read_fraction ~clients ~seed =
  let engine = Weaver_sim.Engine.create ~seed () in
  let t =
    Titan_like.create engine ~rtt:(2.0 *. Config.default.Config.net_base_latency)
  in
  let g = social_graph seed in
  let vertices = Array.of_list (Graphgen.vertex_ids g) in
  Titan_like.Driver.run t ~vertices ~clients ~duration:400_000.0 ~read_fraction ()

let fig9 () =
  header "Fig 9a: throughput, TAO mix (99.8% reads)";
  let weaver, _ = run_weaver_social ~read_fraction:0.998 ~clients:60 ~seed:9 in
  let titan = titan_social ~read_fraction:0.998 ~clients:60 ~seed:9 in
  line "%-8s %12s" "system" "tx/s";
  line "%-8s %12.0f" "weaver" weaver.Tao.Driver.throughput;
  line "%-8s %12.0f" "titan" titan.Titan_like.Driver.throughput;
  line "speedup: %.1fx (paper: 10.9x)"
    (weaver.Tao.Driver.throughput /. titan.Titan_like.Driver.throughput);
  header "Fig 9b: throughput, 75% read workload";
  let weaver75, _ = run_weaver_social ~read_fraction:0.75 ~clients:50 ~seed:19 in
  let titan75 = titan_social ~read_fraction:0.75 ~clients:45 ~seed:19 in
  line "%-8s %12s" "system" "tx/s";
  line "%-8s %12.0f" "weaver" weaver75.Tao.Driver.throughput;
  line "%-8s %12.0f" "titan" titan75.Titan_like.Driver.throughput;
  line "speedup: %.1fx (paper: 1.5x)"
    (weaver75.Tao.Driver.throughput /. titan75.Titan_like.Driver.throughput)

let print_cdf name stats =
  let cdf = Stats.cdf stats ~points:10 in
  line "%s (n=%d):" name (Stats.count stats);
  List.iter (fun (v, f) -> line "  p%-3.0f %10.3f ms" (f *. 100.0) (v /. 1000.0)) cdf

let fig10 () =
  header "Fig 10: transaction latency CDFs, social network workload";
  let weaver_hi, _ = run_weaver_social ~read_fraction:0.998 ~clients:60 ~seed:10 in
  let weaver_lo, _ = run_weaver_social ~read_fraction:0.75 ~clients:50 ~seed:10 in
  let titan_hi = titan_social ~read_fraction:0.998 ~clients:60 ~seed:10 in
  let titan_lo = titan_social ~read_fraction:0.75 ~clients:45 ~seed:10 in
  print_cdf "weaver 99.8% reads (reads)" weaver_hi.Tao.Driver.read_latencies;
  print_cdf "weaver 75% reads (reads)" weaver_lo.Tao.Driver.read_latencies;
  print_cdf "weaver 75% reads (writes)" weaver_lo.Tao.Driver.write_latencies;
  print_cdf "titan 99.8% reads (reads)" titan_hi.Titan_like.Driver.read_latencies;
  print_cdf "titan 75% reads (reads)" titan_lo.Titan_like.Driver.read_latencies

(* ------------------------------------------------------------------ *)
(* Fig. 11: traversal latency CDF vs GraphLab-like engines.            *)

let fig11 () =
  header "Fig 11: reachability latency CDF, small Twitter-like graph";
  let rng = Xrand.create ~seed:11 () in
  (* heavy-tailed like the paper's ego-Twitter crawl, so the work per query
     varies greatly across requests (the spread in Fig. 11) *)
  let g = Graphgen.rmat ~rng ~prefix:"t" ~vertices:4_096 ~edges:84_000 () in
  let cfg = { Config.default with Config.n_shards = 8; Config.seed = 11 } in
  let c = cluster cfg in
  ignore (install c g);
  let client = Cluster.client c in
  let gl = Graphlab_like.load g in
  let costs = Graphlab_like.default_costs in
  let weaver = Stats.create ()
  and gl_sync = Stats.create ()
  and gl_async = Stats.create () in
  let pair_rng = Xrand.create ~seed:111 () in
  for _ = 1 to 40 do
    let src = Graphgen.vid g (Xrand.int pair_rng g.Graphgen.n_vertices) in
    let dst = Graphgen.vid g (Xrand.int pair_rng g.Graphgen.n_vertices) in
    (* Weaver: sequential single client, as in the paper (§6.3) *)
    let lat, _ =
      timed_program c client ~prog:"reachable"
        ~params:(Progval.Assoc [ ("target", Progval.Str dst) ])
        ~starts:[ src ]
    in
    Stats.add weaver lat;
    Stats.add gl_sync
      (Graphlab_like.reachability_latency gl ~mode:Graphlab_like.Sync ~costs ~src ~dst);
    Stats.add gl_async
      (Graphlab_like.reachability_latency gl ~mode:Graphlab_like.Async ~costs ~src ~dst)
  done;
  print_cdf "weaver" weaver;
  print_cdf "graphlab async" gl_async;
  print_cdf "graphlab sync" gl_sync;
  line "mean latency: weaver %.1f ms | async %.1f ms (%.1fx) | sync %.1f ms (%.1fx)"
    (Stats.mean weaver /. 1e3)
    (Stats.mean gl_async /. 1e3)
    (Stats.mean gl_async /. Stats.mean weaver)
    (Stats.mean gl_sync /. 1e3)
    (Stats.mean gl_sync /. Stats.mean weaver);
  line "(paper: async 4.3x, sync 9.4x slower than Weaver)"

(* ------------------------------------------------------------------ *)
(* Fig. 12: get_node throughput scaling with gatekeepers.              *)

let fig12 () =
  header "Fig 12: get_node throughput vs gatekeepers";
  line "%-14s %12s" "gatekeepers" "tx/s";
  List.iter
    (fun n_gk ->
      let cfg =
        { Config.default with Config.n_gatekeepers = n_gk; Config.n_shards = 4; Config.seed = 12 }
      in
      let c = cluster cfg in
      let rng = Xrand.create ~seed:12 () in
      let g = Graphgen.rmat ~rng ~prefix:"w" ~vertices:4_000 ~edges:40_000 () in
      let vertices = install c g in
      let completed =
        closed_loop_programs c ~clients:(60 * n_gk) ~prog:"get_node"
          ~start:(uniform_start c vertices) ()
      in
      let duration = 200_000.0 in
      Cluster.run_for c duration;
      line "%-14d %12.0f" n_gk (float_of_int !completed /. (duration /. 1e6)))
    [ 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Fig. 13: clustering-coefficient throughput scaling with shards.     *)

let fig13 () =
  header "Fig 13: local clustering coefficient throughput vs shards";
  line "%-10s %12s" "shards" "tx/s";
  List.iter
    (fun n_shards ->
      (* heavier per-vertex work makes the shards the bottleneck (the
         paper's clustering query does real work per neighbour) *)
      let cfg =
        {
          Config.default with
          Config.n_gatekeepers = 2;
          Config.n_shards = n_shards;
          Config.seed = 13;
          Config.vertex_read_cost = 50.0;
        }
      in
      let c = cluster cfg in
      let rng = Xrand.create ~seed:13 () in
      let g = Graphgen.uniform ~rng ~prefix:"t" ~vertices:2_000 ~edges:42_000 () in
      let vertices = install c g in
      let completed =
        closed_loop_programs c ~clients:100 ~prog:"clustering"
          ~start:(uniform_start c vertices) ()
      in
      let duration = 200_000.0 in
      Cluster.run_for c duration;
      line "%-10d %12.0f" n_shards (float_of_int !completed /. (duration /. 1e6)))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

(* ------------------------------------------------------------------ *)
(* Fig. 14: proactive vs reactive coordination cost as τ varies.       *)

module Fig14 = struct
  type opts = { seed : int; gatekeepers : int; shards : int }

  let defaults = { seed = 14; gatekeepers = Config.default.Config.n_gatekeepers; shards = 4 }
  let taus = [ 10.0; 100.0; 1_000.0; 10_000.0; 100_000.0; 1_000_000.0 ]

  (* [(tau, announces per op, oracle consults per op)] *)
  let run o =
    List.map
      (fun tau ->
        let cfg =
          {
            Config.default with
            Config.tau;
            Config.n_gatekeepers = o.gatekeepers;
            Config.n_shards = o.shards;
            Config.seed = o.seed;
          }
        in
        let c = cluster cfg in
        let rng = Xrand.create ~seed:o.seed () in
        let g = Graphgen.uniform ~rng ~prefix:"f" ~vertices:1_000 ~edges:8_000 () in
        let vertices = install c g in
        let r =
          Tao.Driver.run c ~vertices ~clients:20 ~duration:200_000.0 ~read_fraction:0.9 ()
        in
        let ops = float_of_int (max 1 r.Tao.Driver.completed) in
        let ctr = Cluster.counters c in
        ( tau,
          float_of_int ctr.Runtime.announce_msgs /. ops,
          float_of_int ctr.Runtime.oracle_consults /. ops ))
      taus

  let table rows =
    line "%-12s %20s %22s" "tau (us)" "announces/query" "oracle msgs/query";
    List.iter (fun (tau, a, o) -> line "%-12.0f %20.3f %22.3f" tau a o) rows

  let bench () =
    header "Fig 14: coordination overhead vs timestamp announce period";
    table (run defaults)
end

(* ------------------------------------------------------------------ *)
(* Ablations (ours; DESIGN.md A1-A3).                                  *)

let ablation_cache () =
  header "Ablation A1: node-program memoization (par. 4.6)";
  let run memo =
    let cfg =
      { Config.default with Config.enable_memoization = memo; Config.n_gatekeepers = 1; Config.seed = 21 }
    in
    let c = cluster cfg in
    let rng = Xrand.create ~seed:21 () in
    let g = Graphgen.uniform ~rng ~prefix:"m" ~vertices:500 ~edges:4_000 () in
    ignore (install c g);
    let client = Cluster.client c in
    let lat = Stats.create () in
    (* hot query set with occasional invalidating writes *)
    for i = 0 to 199 do
      let v = Graphgen.vid g (i mod 10) in
      let lat_i, _ = timed_program c client ~prog:"get_node" ~params:Progval.Null ~starts:[ v ] in
      Stats.add lat lat_i;
      if i mod 50 = 49 then begin
        let tx = Client.Tx.begin_ client in
        Client.Tx.set_vertex_prop tx ~vid:(Graphgen.vid g 0) ~key:"x" ~value:(string_of_int i);
        ignore (Client.commit client tx)
      end
    done;
    (lat, Cluster.counters c)
  in
  let off, _ = run false in
  let on_, ctr = run true in
  line "memoization off: mean %.0f us" (Stats.mean off);
  line "memoization on : mean %.0f us (hits %d, invalidations %d)" (Stats.mean on_)
    ctr.Runtime.memo_hits ctr.Runtime.memo_invalidations;
  line "speedup: %.1fx" (Stats.mean off /. Stats.mean on_)

let ablation_truetime () =
  header "Ablation A2: TrueTime-style first stage vs vector clocks (par. 3.5)";
  (* measure Weaver's actual commit latency, then show what a TrueTime
     first stage would add: a commit-wait of 2*eps per transaction *)
  let cfg = { Config.default with Config.seed = 22 } in
  let c = cluster cfg in
  let client = Cluster.client c in
  let tx0 = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx0 ~id:"tt" ());
  ignore (Client.commit client tx0);
  let lat = Stats.create () in
  for i = 0 to 49 do
    let tx = Client.Tx.begin_ client in
    Client.Tx.set_vertex_prop tx ~vid:"tt" ~key:"v" ~value:(string_of_int i);
    let t0 = Cluster.now c in
    ignore (Client.commit client tx);
    Stats.add lat (Cluster.now c -. t0)
  done;
  let base = Stats.mean lat in
  line "%-16s %16s %12s" "eps (us)" "commit lat (us)" "overhead";
  line "%-16s %16.0f %12s" "vclock (ours)" base "1.0x";
  List.iter
    (fun eps ->
      let tt = base +. (2.0 *. eps) in
      line "%-16.0f %16.0f %11.1fx" eps tt (tt /. base))
    [ 100.0; 500.0; 1_000.0; 5_000.0; 10_000.0 ]

let ablation_partition () =
  header "Ablation A3: partition quality and cross-shard traffic (par. 4.6)";
  let rng = Xrand.create ~seed:23 () in
  let g = Graphgen.preferential ~rng ~prefix:"p" ~vertices:2_000 ~out_degree:6 () in
  let adjacency = Graphgen.adjacency g in
  let shards = 8 in
  let hash_assign : Partition.assignment = Hashtbl.create 2048 in
  List.iter
    (fun (v, _) -> Hashtbl.replace hash_assign v (Partition.hash_vertex ~shards v))
    adjacency;
  let schemes =
    [
      ("hash", hash_assign);
      ("ldg", Partition.ldg ~shards adjacency);
      ("restream5", Partition.restream ~shards ~rounds:5 adjacency);
    ]
  in
  let placed assign =
    let c = cluster { Config.default with Config.n_shards = shards; Config.seed = 23 } in
    Loader.fast_install_with_assignment c assign g;
    Cluster.run_for c 5_000.0;
    (c, Cluster.client c)
  in
  (* program messages per 2-hop query, over 30 sources drawn from [seed] *)
  let msgs_per_query c client ~seed =
    let m0 = (Cluster.counters c).Runtime.prog_batch_msgs in
    let qrng = Xrand.create ~seed () in
    for _ = 1 to 30 do
      let src = Graphgen.vid g (Xrand.int qrng g.Graphgen.n_vertices) in
      ignore
        (ok_exn "nhop"
           (Client.run_program client ~prog:"nhop_count"
              ~params:(Progval.Assoc [ ("depth", Progval.Int 2) ])
              ~starts:[ src ] ()))
    done;
    float_of_int ((Cluster.counters c).Runtime.prog_batch_msgs - m0) /. 30.0
  in
  line "%-12s %10s %10s %22s" "scheme" "edge-cut" "balance" "prog msgs / query";
  List.iter
    (fun (name, assign) ->
      let c, client = placed assign in
      let msgs = msgs_per_query c client ~seed:231 in
      line "%-12s %10.3f %10.3f %22.1f" name
        (Partition.edge_cut assign adjacency)
        (Partition.balance assign ~shards)
        msgs)
    schemes;
  (* live rebalancing (§4.6): start from hash placement and migrate vertices
     while the cluster is running, then measure again *)
  let c, client = placed hash_assign in
  let run_queries () = msgs_per_query c client ~seed:232 in
  let before_msgs = run_queries () in
  let r = Rebalance.run c client ~max_moves:2_000 ~rounds:3 () in
  let after_msgs = run_queries () in
  line "live rebalance: %d moves, edge-cut %.3f -> %.3f, prog msgs/query %.1f -> %.1f"
    r.Rebalance.moved r.Rebalance.edge_cut_before r.Rebalance.edge_cut_after before_msgs
    after_msgs

let ablation_nop () =
  header "Ablation A4: NOP period bounds node-program delay (par. 4.2)";
  (* single gatekeeper isolates the NOP effect: a program may run as soon
     as the next NOP (or transaction) proves no earlier work is pending,
     so read latency tracks the NOP period *)
  line "%-16s %18s" "nop period (us)" "get_node p50 (us)";
  List.iter
    (fun nop_period ->
      let cfg =
        {
          Config.default with
          Config.n_gatekeepers = 1;
          Config.n_shards = 2;
          Config.nop_period;
          Config.seed = 24;
        }
      in
      let c = cluster cfg in
      let rng = Xrand.create ~seed:24 () in
      let g = Graphgen.uniform ~rng ~prefix:"n" ~vertices:200 ~edges:1_000 () in
      ignore (install c g);
      let client = Cluster.client c in
      let lat = Stats.create () in
      for i = 0 to 99 do
        let v = Graphgen.vid g (i mod 200) in
        let l, _ = timed_program c client ~prog:"get_node" ~params:Progval.Null ~starts:[ v ] in
        Stats.add lat l
      done;
      line "%-16.0f %18.0f" nop_period (Stats.percentile lat 50.0))
    [ 10.0; 50.0; 100.0; 500.0; 1_000.0 ]

let ablation_replicas () =
  header "Ablation A5: read-only shard replicas (par. 6.4)";
  (* shard-bound fan-out reads: replicas take weak-consistency traffic off
     the primaries, roughly doubling read capacity per replica *)
  let run ~replicas ~consistency =
    let cfg =
      {
        Config.default with
        Config.n_shards = 4;
        Config.read_replicas = replicas;
        Config.vertex_read_cost = 50.0;
        Config.seed = 25;
      }
    in
    let c = cluster cfg in
    let rng = Xrand.create ~seed:25 () in
    let g = Graphgen.uniform ~rng ~prefix:"r" ~vertices:1_000 ~edges:20_000 () in
    let vertices = install c g in
    let completed =
      closed_loop_programs c ~clients:80 ~prog:"clustering" ~consistency
        ~start:(uniform_start c vertices) ()
    in
    let duration = 200_000.0 in
    Cluster.run_for c duration;
    float_of_int !completed /. (duration /. 1e6)
  in
  let strong = run ~replicas:0 ~consistency:`Strong in
  let weak1 = run ~replicas:1 ~consistency:`Weak in
  let weak2 = run ~replicas:2 ~consistency:`Weak in
  line "%-28s %12s" "configuration" "queries/s";
  line "%-28s %12.0f" "primaries only (strong)" strong;
  line "%-28s %12.0f" "1 replica/shard (weak)" weak1;
  line "%-28s %12.0f" "2 replicas/shard (weak)" weak2;
  line "weak reads may be stale by the replication lag (one network hop)"

let ablation_adaptive_tau () =
  header "Ablation A6: dynamic clock-synchronization period (par. 3.5)";
  let run ~adaptive ~tau ~clients =
    let cfg =
      {
        Config.default with
        Config.adaptive_tau = adaptive;
        Config.tau;
        Config.n_shards = 4;
        Config.seed = 26;
      }
    in
    let c = cluster cfg in
    let rng = Xrand.create ~seed:26 () in
    let g = Graphgen.uniform ~rng ~prefix:"a" ~vertices:500 ~edges:4_000 () in
    let vertices = install c g in
    let r = Tao.Driver.run c ~vertices ~clients ~duration:500_000.0 ~read_fraction:0.9 () in
    let ops = max 1 r.Tao.Driver.completed in
    let ctr = Cluster.counters c in
    ( float_of_int ctr.Runtime.announce_msgs /. float_of_int ops,
      float_of_int ctr.Runtime.oracle_consults /. float_of_int ops,
      Cluster.gk_tau c 0 )
  in
  line "%-26s %16s %18s %14s" "configuration" "announces/query" "oracle msgs/query" "final tau(us)";
  List.iter
    (fun (label, adaptive, tau, clients) ->
      let a, o, t = run ~adaptive ~tau ~clients in
      line "%-26s %16.3f %18.3f %14.0f" label a o t)
    [
      ("fixed 10us, busy", false, 10.0, 40);
      ("fixed 100ms, busy", false, 100_000.0, 40);
      ("adaptive, busy", true, 1_000.0, 40);
      ("fixed 10us, light", false, 10.0, 2);
      ("adaptive, light", true, 1_000.0, 2);
    ]

let ablation_freshness () =
  header "Ablation A7: update visibility vs Kineograph-style epochs (par. 7)";
  (* Weaver: a write is readable as soon as its commit returns; measure the
     gap between commit time and first successful strong read *)
  let cfg = { Config.default with Config.seed = 27 } in
  let c = cluster cfg in
  let client = Cluster.client c in
  let tx0 = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx0 ~id:"fresh" ());
  ignore (ok_exn "seed" (Client.commit client tx0));
  let weaver_staleness = Stats.create () in
  for i = 1 to 20 do
    let t0 = Cluster.now c in
    let tx = Client.Tx.begin_ client in
    Client.Tx.set_vertex_prop tx ~vid:"fresh" ~key:"v" ~value:(string_of_int i);
    ignore (ok_exn "write" (Client.commit client tx));
    (* first read that observes the new value *)
    let seen = ref false in
    while not !seen do
      match
        Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "fresh" ] ()
      with
      | Ok (Progval.List [ s ]) ->
          if Progval.assoc_opt "v" (Progval.assoc "props" s) = Some (Progval.Str (string_of_int i))
          then seen := true
      | _ -> ()
    done;
    Stats.add weaver_staleness (Cluster.now c -. t0)
  done;
  (* Kineograph model: updates visible at the next epoch seal *)
  let engine = Weaver_sim.Engine.create ~seed:27 () in
  let rngk = Xrand.create ~seed:27 () in
  let kg = Kineograph_like.create engine ~epoch_length:10_000_000.0 (* 10 s *) in
  let kine_staleness = Stats.create () in
  for i = 1 to 20 do
    Weaver_sim.Engine.run ~until:(Weaver_sim.Engine.now engine +. Xrand.float rngk 9_000_000.0) engine;
    Kineograph_like.update kg ~key:"fresh" ~value:i;
    (* advance until the write becomes visible, then record its age *)
    let visible = ref false in
    while not !visible do
      Weaver_sim.Engine.run ~until:(Weaver_sim.Engine.now engine +. 100_000.0) engine;
      if Kineograph_like.query kg ~key:"fresh" = Some i then visible := true
    done;
    match Kineograph_like.query_staleness kg ~key:"fresh" with
    | Some age -> Stats.add kine_staleness age
    | None -> ()
  done;
  line "%-22s %20s" "system" "update->visible (ms)";
  line "%-22s %20.1f" "weaver (mean)" (Stats.mean weaver_staleness /. 1e3);
  line "%-22s %20.1f" "kineograph (mean)" (Stats.mean kine_staleness /. 1e3);
  line "(Kineograph buffers updates for its 10 s epochs, par. 7; Weaver's
refinable timestamps make them visible within a commit round trip)"

(* ------------------------------------------------------------------ *)
(* Per-request latency breakdown from the causal tracer: where a
   transaction's latency goes (gatekeeper admission, store round trips,
   shard queueing, oracle waits) and what it costs in messages. Emits
   BENCH_breakdown.json next to the console table. *)

module Breakdown = struct
  type opts = {
    seed : int;
    gatekeepers : int;
    shards : int;
    tau : float;
    txs : int;
    progs : int;
  }

  let defaults =
    {
      seed = Config.default.Config.seed;
      gatekeepers = 2;
      shards = 4;
      tau = Config.default.Config.tau;
      txs = 200;
      progs = 50;
    }

  (* The traced mixed run: [o.txs] edge-and-property transactions, then
     [o.progs] [get_edges] programs, one at a time against a small graph.
     Returns the cluster and the trace ids of the transactions and of the
     programs, each in issue order. *)
  let run o =
    let cfg =
      {
        Config.default with
        Config.seed = o.seed;
        Config.n_gatekeepers = o.gatekeepers;
        Config.n_shards = o.shards;
        Config.tau = o.tau;
        Config.enable_tracing = true;
        Config.trace_capacity = 4096;
      }
    in
    let c = cluster cfg in
    let client = Cluster.client c in
    let rng = Xrand.create ~seed:11 () in
    let g = Graphgen.uniform ~rng ~prefix:"bd" ~vertices:500 ~edges:2_000 () in
    let vertices = install c g in
    let txs =
      List.init o.txs (fun i ->
          let tx = Client.Tx.begin_ client in
          let src = Xrand.pick rng vertices in
          ignore (Client.Tx.create_edge tx ~src ~dst:(Xrand.pick rng vertices));
          Client.Tx.set_vertex_prop tx ~vid:src ~key:"n" ~value:(string_of_int (i + 1));
          ignore (Client.commit client tx);
          Client.last_request_id client)
    in
    let progs =
      List.init o.progs (fun _ ->
          ignore
            (Client.run_program client ~prog:"get_edges" ~params:Progval.Null
               ~starts:[ Xrand.pick rng vertices ] ());
          Client.last_request_id client)
    in
    Cluster.run_for c 10_000.0;
    (c, txs, progs)

  type summary = {
    rows : (string * int * float * float) list;  (** phase, n, p50 µs, p99 µs *)
    msgs_per_tx : Stats.t;
    announces : int;
    announce_per_tx : float;
  }

  let phases =
    [
      ("admission", "gk.admission_wait");
      ("store", "gk.store_rtt");
      ("shard_queue", "shard.queue_wait");
      ("oracle", "shard.oracle_wait");
      ("tx_service", "gk.tx_service");
      ("prog_service", "gk.prog_service");
    ]

  (* where the latency of the run went, and the messages per transaction
     from the trace ledgers of [txs] *)
  let summarize c txs =
    let reservoirs = Weaver_obs.Metrics.reservoirs (Cluster.metrics c) in
    let tr = Option.get (Cluster.request_tracer c) in
    let msgs_per_tx = Stats.create () in
    List.iter
      (fun id ->
        let n = Weaver_obs.Trace.message_count tr id in
        if n > 0 then Stats.add msgs_per_tx (float_of_int n))
      txs;
    let ctr = Cluster.counters c in
    {
      rows =
        List.map
          (fun (label, name) ->
            match List.assoc_opt name reservoirs with
            | None -> (label, 0, 0.0, 0.0)
            | Some s -> (label, Stats.count s, Stats.percentile s 50.0, Stats.percentile s 99.0))
          phases;
      msgs_per_tx;
      announces = ctr.Runtime.announce_msgs;
      announce_per_tx =
        float_of_int ctr.Runtime.announce_msgs /. float_of_int (max 1 ctr.Runtime.tx_committed);
    }

  let table s =
    line "%-14s %10s %10s %8s" "phase" "p50 (us)" "p99 (us)" "n";
    List.iter
      (fun (label, n, p50, p99) ->
        if n = 0 then line "%-14s %10s %10s %8d" label "-" "-" 0
        else line "%-14s %10.1f %10.1f %8d" label p50 p99 n)
      s.rows;
    line "messages/tx: mean %.1f p99 %.0f | announces/committed tx: %.2f"
      (Stats.mean s.msgs_per_tx)
      (Stats.percentile s.msgs_per_tx 99.0)
      s.announce_per_tx

  let document s =
    [
      ("experiment", Json.Str "breakdown");
      ( "phases",
        Json.Obj
          (List.map
             (fun (label, n, p50, p99) ->
               ( label,
                 Json.Obj
                   [ ("n", Json.int n); ("p50_us", Json.fixed 1 p50); ("p99_us", Json.fixed 1 p99) ]
               ))
             s.rows) );
      ( "messages_per_tx",
        Json.Obj
          [
            ("mean", Json.fixed 2 (Stats.mean s.msgs_per_tx));
            ("p50", Json.fixed 0 (Stats.percentile s.msgs_per_tx 50.0));
            ("p99", Json.fixed 0 (Stats.percentile s.msgs_per_tx 99.0));
          ] );
      ( "announce_overhead",
        Json.Obj
          [
            ("announces", Json.int s.announces);
            ("per_committed_tx", Json.fixed 3 s.announce_per_tx);
          ] );
    ]

  let bench () =
    header "Latency breakdown (traced mixed run)";
    let c, txs, _ = run defaults in
    let s = summarize c txs in
    table s;
    write_bench "breakdown" (document s)
end

(* ------------------------------------------------------------------ *)
(* Timeline: TAO-mix throughput sampled across a mid-run shard crash —
   the time-dimension view of the §4.3 recovery story. Emits
   BENCH_timeline.json with the full ops/s series and a dip/recovery
   summary. *)

let timeline () =
  header "Timeline: TAO-mix throughput across a shard crash and recovery";
  let period = 25_000.0 in
  let crash_at = 500_000.0 in
  let duration = 1_500_000.0 in
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = 2;
      Config.n_shards = 4;
      Config.enable_timeline = true;
      Config.timeline_period = period;
    }
  in
  let c = cluster cfg in
  let rng = Xrand.create ~seed:5 () in
  let g = Graphgen.uniform ~rng ~prefix:"tl" ~vertices:1_000 ~edges:4_000 () in
  let vertices = install c g in
  let rt = Cluster.runtime c in
  Weaver_sim.Engine.schedule rt.Runtime.engine
    ~delay:(crash_at -. Cluster.now c)
    (fun () ->
      line "  [%.0f ms] killing shard 0" (crash_at /. 1000.0);
      Cluster.kill_shard c 0);
  ignore (Tao.Driver.run c ~vertices ~clients:20 ~duration ());
  let tl = Option.get (Cluster.timeline c) in
  let ops_series =
    (* committed txs + completed programs, as windowed per-second rates *)
    let progs = Weaver_obs.Timeline.rates tl "prog.completed" in
    List.map
      (fun (t, tx_rate) ->
        let p = match List.assoc_opt t progs with Some v -> v | None -> 0.0 in
        (t, tx_rate +. p))
      (Weaver_obs.Timeline.rates tl "tx.committed")
  in
  let mean = function
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  let pre =
    mean (List.filter_map (fun (t, v) -> if t < crash_at then Some v else None) ops_series)
  in
  let dip =
    List.fold_left Float.min Float.infinity
      (List.filter_map
         (fun (t, v) ->
           if t >= crash_at && t <= crash_at +. 300_000.0 then Some v else None)
         ops_series)
  in
  let post =
    mean
      (List.filter_map
         (fun (t, v) -> if t > crash_at +. 500_000.0 then Some v else None)
         ops_series)
  in
  line "pre-crash %.0f ops/s | dip %.0f ops/s | post-recovery %.0f ops/s" pre dip post;
  line "recoveries: %d | epoch: %d" (Cluster.counters c).Runtime.recoveries
    (Cluster.epoch c);
  write_bench "timeline"
    [
      ("experiment", Json.Str "timeline");
      ("period_us", Json.fixed 0 period);
      ("crash_at_us", Json.fixed 0 crash_at);
      ("duration_us", Json.fixed 0 duration);
      ( "series",
        Json.Obj
          [
            ("time_us", Json.List (List.map (fun (t, _) -> Json.fixed 0 t) ops_series));
            ("ops_per_s", Json.List (List.map (fun (_, v) -> Json.fixed 0 v) ops_series));
          ] );
      ( "summary",
        Json.Obj
          [
            ("pre_crash_ops_s", Json.fixed 0 pre);
            ("dip_ops_s", Json.fixed 0 dip);
            ("post_recovery_ops_s", Json.fixed 0 post);
            ("recoveries", Json.int (Cluster.counters c).Runtime.recoveries);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Chaos: TAO-style mix under a rolling crash/restart fault plan, client
   reliability layer off vs on — same seed, same plan, so the availability
   and recovery-time deltas isolate what retries + failure-aware routing +
   duplicate suppression buy. Emits BENCH_chaos.json with both runs. *)

module Chaos = struct
  (* the same options and fault plan, reliability layer off then on *)
  let run (o : Chaosbench.opts) =
    let off = Chaosbench.run { o with Chaosbench.co_reliable = false } in
    (off, Chaosbench.run { o with Chaosbench.co_reliable = true })

  let table (off, on_) =
    let show tag (r : Chaosbench.result) =
      line
        "%-4s availability %.3f | ok %d err %d | p99 %.1f ms | recovery %s | retries %d \
         dedup %d late %d"
        tag r.Chaosbench.r_availability r.Chaosbench.r_total_ok r.Chaosbench.r_total_err
        (r.Chaosbench.r_p99 /. 1_000.0)
        (match r.Chaosbench.r_recovery_time with
        | Some t -> Printf.sprintf "%.0f ms" (t /. 1_000.0)
        | None -> "never")
        r.Chaosbench.r_retries r.Chaosbench.r_dedup_hits r.Chaosbench.r_late_replies
    in
    show "off" off;
    show "on" on_;
    line "availability delta: +%.3f"
      (on_.Chaosbench.r_availability -. off.Chaosbench.r_availability)

  let document (o : Chaosbench.opts) (off, on_) =
    [
      ("experiment", Json.Str "chaos");
      ("seed", Json.int o.Chaosbench.co_seed);
      ("off", Chaosbench.to_json off);
      ("on", Chaosbench.to_json on_);
    ]

  let bench () =
    header "Chaos: availability under rolling crashes, reliability off vs on";
    let o = Chaosbench.default_opts in
    let r = run o in
    table r;
    write_bench "chaos" (document o r)
end

(* ------------------------------------------------------------------ *)
(* Contention: write-contention sweep over zipf-skewed keys on a single
   shard, measuring the non-blocking, coalesced refinement path against
   the historical blocking refinement (one consult froze the whole shard
   event loop), whose numbers are kept as constants now that its arm is
   retired. Writers pin themselves to distinct gatekeepers so their stamps
   stay mutually concurrent between announce rounds (large tau) and the
   undecided pairs genuinely reach the shard — same-key races are ordered
   proactively at the gatekeepers by the last-update check, so the skew
   knob trades shard-level (cross-key) conflicts against gatekeeper-level
   (same-key) aborts. Reports oracle
   consults per committed transaction and the commit-visibility tail
   (shard enqueue -> apply, the segment refinement stalls inflate; the
   gatekeeper ack path never waits on the shard, so client-observed ack
   latency is blind to the difference). Emits BENCH_contention.json. *)

type contention_run = {
  cr_committed : int;
  cr_aborted : int;
  cr_consults : int;
  cr_batched : int;
  cr_consults_per_tx : float;
  cr_p50_apply : float;
  cr_p99_apply : float;
  cr_p99_ack : float;
  cr_fingerprint : int * int * int * int * int * int;
}

let contention_arm ~theta ~seed =
  let cfg =
    {
      Config.default with
      Config.seed;
      Config.n_gatekeepers = 3;
      Config.n_shards = 1;
      Config.tau = 50_000.0;
      Config.nop_period = 400.0;
    }
  in
  let c = cluster cfg in
  let n_keys = 16 in
  create_vertices c ~what:"contention setup" (List.init n_keys (Printf.sprintf "k%d"));
  let writers = 9 and ack = Stats.create () in
  let done_writers =
    closed_loop_writers c ~writers ~per_writer:40
      ~seed_of:(fun i -> seed + (1_000 * (i + 1)))
      ~setup:(fun i client ->
        Client.set_gatekeeper client (Some (i mod cfg.Config.n_gatekeepers)))
      ~pick:(fun rng -> Xrand.zipf rng ~n:n_keys ~theta)
      ~vid:(Printf.sprintf "k%d")
      ~on_commit:(fun _ latency -> Stats.add ack latency)
      ()
  in
  drain c ~done_writers ~writers ~label:"contention";
  Cluster.run_for c 50_000.0;
  let ctr = Cluster.counters c in
  let rt = Cluster.runtime c in
  let apply =
    match
      List.assoc_opt "shard.queue_wait"
        (Weaver_obs.Metrics.reservoirs (Cluster.metrics c))
    with
    | Some s -> s
    | None -> Stats.create ()
  in
  {
    cr_committed = ctr.Runtime.tx_committed;
    cr_aborted = ctr.Runtime.tx_aborted;
    cr_consults = ctr.Runtime.shard_oracle_consults;
    cr_batched = ctr.Runtime.shard_oracle_batched;
    cr_consults_per_tx =
      float_of_int ctr.Runtime.shard_oracle_consults
      /. float_of_int (max 1 ctr.Runtime.tx_committed);
    cr_p50_apply = Stats.percentile apply 50.0;
    cr_p99_apply = Stats.percentile apply 99.0;
    cr_p99_ack = Stats.percentile ack 99.0;
    cr_fingerprint =
      ( ctr.Runtime.tx_committed,
        ctr.Runtime.tx_aborted,
        ctr.Runtime.shard_oracle_consults,
        ctr.Runtime.shard_oracle_batched,
        Weaver_sim.Net.messages_sent rt.Runtime.net,
        ctr.Runtime.nop_msgs );
  }

(* The retired blocking arm at this seed and sweep, as last measured:
   [(theta, consults per committed tx, p50 apply µs, p99 apply µs)]. The
   remaining arm must stay strictly below it on consults and p50 and must
   not exceed it on p99. *)
let contention_blocking_baseline =
  [
    (0.0, 0.598, 4473.1, 9160.9);
    (0.6, 0.368, 683.9, 12513.3);
    (0.9, 0.202, 218.8, 15705.2);
  ]

let contention () =
  header "Contention: skewed write races under non-blocking refinement";
  let seed = 7 in
  let sweep =
    List.map
      (fun (theta, _, _, _) -> (theta, contention_arm ~theta ~seed))
      contention_blocking_baseline
  in
  line "%-6s %10s %9s %8s %12s %13s %13s %12s" "theta" "committed" "consults"
    "batched" "consults/tx" "p50 apply us" "p99 apply us" "p99 ack us";
  List.iter
    (fun (theta, (r : contention_run)) ->
      line "%-6.1f %10d %9d %8d %12.3f %13.1f %13.1f %12.1f" theta r.cr_committed
        r.cr_consults r.cr_batched r.cr_consults_per_tx r.cr_p50_apply
        r.cr_p99_apply r.cr_p99_ack)
    sweep;
  (* determinism: the highest skew reruns to the identical counter
     fingerprint *)
  let hot, hot_run = List.hd (List.rev sweep) in
  let again = contention_arm ~theta:hot ~seed in
  let deterministic = again.cr_fingerprint = hot_run.cr_fingerprint in
  line "deterministic rerun (theta %.1f): %b" hot deterministic;
  if not deterministic then failwith "contention: rerun diverged";
  (* latencies compare at the 0.1 µs precision the baseline was recorded
     with *)
  let us x = Float.round (x *. 10.0) /. 10.0 in
  List.iter2
    (fun (theta, (r : contention_run)) (_, consults, p50, p99) ->
      if r.cr_consults_per_tx >= consults then
        failwith
          (Printf.sprintf
             "contention: consults/tx not below the blocking baseline at theta %.1f"
             theta);
      if us r.cr_p99_apply > p99 || us r.cr_p50_apply >= p50 then
        failwith
          (Printf.sprintf
             "contention: latency not below the blocking baseline at theta %.1f"
             theta))
    sweep contention_blocking_baseline;
  let run (theta, (r : contention_run)) =
    Json.Obj
      [
        ("theta", Json.fixed 1 theta);
        ("committed", Json.int r.cr_committed);
        ("aborted", Json.int r.cr_aborted);
        ("consults", Json.int r.cr_consults);
        ("batched", Json.int r.cr_batched);
        ("consults_per_committed_tx", Json.fixed 4 r.cr_consults_per_tx);
        ("p50_commit_apply_us", Json.fixed 1 r.cr_p50_apply);
        ("p99_commit_apply_us", Json.fixed 1 r.cr_p99_apply);
        ("p99_commit_ack_us", Json.fixed 1 r.cr_p99_ack);
      ]
  in
  write_bench "contention"
    [
      ("experiment", Json.Str "contention");
      ("seed", Json.int seed);
      ( "workload",
        Json.Obj
          [
            ("writers", Json.int 9);
            ("commits_per_writer", Json.int 40);
            ("keys", Json.int 16);
            ("shards", Json.int 1);
            ("gatekeepers", Json.int 3);
          ] );
      ("sweep", Json.List (List.map run sweep));
      ("deterministic_rerun", Json.Bool deterministic);
    ]

(* ------------------------------------------------------------------ *)
(* Overload: open-loop offered-load sweep across the admission-capacity
   knee, flow control (admission limit + deadline shedding + shard
   credits, §DESIGN 11) off vs on. The off arm collapses past saturation
   (every queued request eventually times out); the on arm sheds the
   excess early and keeps goodput at capacity with a bounded tail.
   Control traffic (NOPs, heartbeats) is exempt from shedding, so its
   counters must match across arms. Emits BENCH_overload.json. *)

module Overload = struct
  type opts = { base : Overloadbench.opts; mults : float list  (** of saturation *) }

  let defaults = { base = Overloadbench.default_opts; mults = [ 0.25; 0.5; 1.0; 2.0; 4.0 ] }

  let saturation o =
    Overloadbench.saturation_rate ~gatekeepers:o.base.Overloadbench.ov_gatekeepers
      ~gk_op_cost:Config.default.Config.gk_op_cost

  let arm o ~flow mult =
    Overloadbench.run
      { o.base with Overloadbench.ov_flow = flow; Overloadbench.ov_rate = saturation o *. mult }

  (* [(multiplier, flow off, flow on)] at each offered load *)
  let run o =
    List.map
      (fun mult ->
        let off = arm o ~flow:false mult in
        (mult, off, arm o ~flow:true mult))
      o.mults

  let table o sweep =
    line "saturation ~= %.0f req/s (%d gatekeepers x %.0f us/admit)" (saturation o)
      o.base.Overloadbench.ov_gatekeepers Config.default.Config.gk_op_cost;
    line "%-6s %-5s %9s %9s %8s %8s %8s %10s %10s %9s" "load" "arm" "offered" "ok" "shed"
      "timeout" "goodput" "p50 us" "p99 us" "shed%";
    List.iter
      (fun (mult, off, on_) ->
        let row tag (r : Overloadbench.result) =
          line "%-6.2f %-5s %9d %9d %8d %8d %8.0f %10.1f %10.1f %9.1f" mult tag
            r.Overloadbench.v_offered r.Overloadbench.v_ok r.Overloadbench.v_shed
            r.Overloadbench.v_timeout r.Overloadbench.v_goodput r.Overloadbench.v_p50
            r.Overloadbench.v_p99
            (100.0 *. r.Overloadbench.v_shed_rate)
        in
        row "off" off;
        row "on" on_)
      sweep

  let document o sweep =
    [
      ("experiment", Json.Str "overload");
      ("seed", Json.int o.base.Overloadbench.ov_seed);
      ("saturation_rps", Json.fixed 0 (saturation o));
      ( "knobs",
        Json.Obj
          [
            ("admission_limit", Json.int o.base.Overloadbench.ov_admission_limit);
            ("deadline_budget_us", Json.fixed 0 o.base.Overloadbench.ov_deadline_budget);
            ("shard_credits", Json.int o.base.Overloadbench.ov_shard_credits);
          ] );
      ( "sweep",
        Json.List
          (List.map
             (fun (mult, off, on_) ->
               Json.Obj
                 [
                   ("load_multiplier", Json.fixed 2 mult);
                   ("off", Overloadbench.to_json off);
                   ("on", Overloadbench.to_json on_);
                 ])
             sweep) );
    ]

  let bench () =
    header "Overload: open-loop goodput sweep, flow control off vs on";
    let o = defaults in
    let sweep = run o in
    table o sweep;
    let find mult = List.find (fun (m, _, _) -> m = mult) sweep in
    (* peak-capacity goodput: the on arm at the knee *)
    let _, _, on_1x = find 1.0 in
    let _, off_2x, on_2x = find 2.0 in
    let peak = on_1x.Overloadbench.v_goodput in
    line "at 2x: goodput on %.0f (peak %.0f) vs off %.0f | p99 on %.1f us vs off %.1f us"
      on_2x.Overloadbench.v_goodput peak off_2x.Overloadbench.v_goodput
      on_2x.Overloadbench.v_p99 off_2x.Overloadbench.v_p99;
    if on_2x.Overloadbench.v_goodput < 0.9 *. peak then
      failwith "overload: on-arm goodput at 2x fell below 90% of peak";
    if off_2x.Overloadbench.v_goodput > 0.7 *. peak then
      failwith "overload: off arm did not collapse at 2x saturation";
    if on_2x.Overloadbench.v_p99 > 10.0 *. on_1x.Overloadbench.v_p99 then
      failwith "overload: on-arm p99 not bounded at 2x saturation";
    (* control traffic is never shed: NOP and heartbeat counts are timer
       driven and must be identical across arms at every offered load *)
    List.iter
      (fun (mult, off, on_) ->
        if
          off.Overloadbench.v_nop_msgs <> on_.Overloadbench.v_nop_msgs
          || off.Overloadbench.v_heartbeats <> on_.Overloadbench.v_heartbeats
        then failwith (Printf.sprintf "overload: control traffic diverged at %.2fx" mult))
      sweep;
    (* determinism: the on arm at 2x reruns to the identical fingerprint *)
    let again = arm o ~flow:true 2.0 in
    let deterministic =
      again.Overloadbench.v_fingerprint = on_2x.Overloadbench.v_fingerprint
    in
    line "deterministic rerun (2x, flow on): %b" deterministic;
    if not deterministic then failwith "overload: rerun diverged";
    write_bench "overload" (document o sweep @ [ ("deterministic_rerun", Json.Bool deterministic) ])
end

(* ------------------------------------------------------------------ *)
(* Snapshot reads: historical analytics latency and concurrent write
   throughput with the versioned snapshot store (§DESIGN 12) off vs on.
   Capacity-limited shards make the off arm pay demand paging for every
   cold historical lookup and hold each program at the ordering gate
   behind live write traffic; the on arm pins a published immutable
   snapshot, skips the gate, and reads at zero per-vertex cost. Writers
   must not slow down: snapshots are built off the durable store at
   watermark boundaries, never by locking the live graph. Emits
   BENCH_snapshot.json. *)

type snapshot_run = {
  sr_writes : int;
  sr_reads : int;
  sr_gced : int;  (** cut re-captures forced by the compaction watermark *)
  sr_p50_read : float;
  sr_p99_read : float;
  sr_published : int;
  sr_pinned : int;
  sr_deferred : int;
  sr_fingerprint : int * int * int * int * int * int;
}

module Snapshot = struct
  type opts = {
    seed : int;
    gatekeepers : int;
    shards : int;
    window : float;  (** virtual µs of writers racing the analytics *)
  }

  let defaults = { seed = 11; gatekeepers = 2; shards = 4; window = 400_000.0 }
  let vertices = 600
  let writers = 4
  let analytics_starts = 64  (* start vertices of each analytics read *)
  let shard_capacity = 120  (* resident vertices per shard *)
  let gc_period = 5_000.0  (* µs *)

  let arm o ~snap =
    let cfg =
      {
        Config.default with
        Config.seed = o.seed;
        Config.n_gatekeepers = o.gatekeepers;
        Config.n_shards = o.shards;
        Config.snapshot_reads = snap;
        Config.gc_period;
        Config.shard_capacity = Some shard_capacity;
      }
    in
    let c = cluster cfg in
    let vid i = Printf.sprintf "s%03d" i in
    let setup = Cluster.client c in
    let i = ref 0 in
    while !i < vertices do
      let tx = Client.Tx.begin_ setup in
      for k = !i to min (vertices - 1) (!i + 49) do
        ignore (Client.Tx.create_vertex tx ~id:(vid k) ())
      done;
      i := !i + 50;
      ok_exn "snapshot setup" (Client.commit setup tx)
    done;
    Cluster.run_for c 50_000.0;
    (* the analytics cut: everything below this stamp is history *)
    let at0 = Cluster.gk_clock c 0 in
    let starts = List.init analytics_starts (fun k -> vid (k * 9 mod vertices)) in
    let stop = ref false in
    (* TAO-style write mix: continuous single-vertex property updates across
       the whole key range, hot enough to keep every shard's queues fed *)
    let writes = ref 0 in
    for w = 0 to writers - 1 do
      let client = Cluster.client c in
      Client.set_gatekeeper client (Some (w mod o.gatekeepers));
      let rng = Xrand.create ~seed:(o.seed + (1_000 * (w + 1))) () in
      let n = ref 0 in
      let rec next () =
        if not !stop then begin
          incr n;
          let tx = Client.Tx.begin_ client in
          Client.Tx.set_vertex_prop tx
            ~vid:(vid (Xrand.int rng vertices))
            ~key:"n" ~value:(string_of_int !n);
          Client.commit_async client tx ~on_result:(fun r ->
              (match r with Ok () -> incr writes | Error _ -> ());
              next ())
        end
      in
      next ()
    done;
    (* analytics: repeated multi-start historical reads at the pinned cut.
       When the cut falls below the compaction watermark the shard replies
       the retryable "snapshot-gced" (the silent-stale-read bugfix); the
       client then re-captures a fresh cut, exactly what a real analytics
       driver would do. The on arm pins published snapshots, so its cut
       stays readable far longer. *)
    let lat = Stats.create () in
    let reads = ref 0 and gced = ref 0 in
    let at = ref at0 in
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
                Stats.add lat (Cluster.now c -. t0)
            | Error "snapshot-gced" ->
                incr gced;
                at := Cluster.gk_clock c 0
            | Error e -> failwith ("snapshot: analytics failed: " ^ e));
            read_next ())
          ()
      end
    in
    read_next ();
    Cluster.run_for c o.window;
    stop := true;
    Cluster.run_for c 50_000.0;
    let ctr = Cluster.counters c in
    let rt = Cluster.runtime c in
    {
      sr_writes = !writes;
      sr_reads = !reads;
      sr_gced = !gced;
      sr_p50_read = Stats.percentile lat 50.0;
      sr_p99_read = Stats.percentile lat 99.0;
      sr_published = ctr.Runtime.snap_published;
      sr_pinned = ctr.Runtime.snap_pinned_reads;
      sr_deferred = ctr.Runtime.snap_gc_deferred;
      sr_fingerprint =
        ( !writes,
          !reads,
          ctr.Runtime.tx_committed,
          ctr.Runtime.snap_published,
          ctr.Runtime.snap_pinned_reads,
          Weaver_sim.Net.messages_sent rt.Runtime.net );
    }

  (* [(off, on)], run in that order *)
  let run o =
    let off = arm o ~snap:false in
    (off, arm o ~snap:true)

  let table (off, on_) =
    let row tag (r : snapshot_run) =
      line "%-4s %8d %8d %6d %12.1f %12.1f %10d %8d %9d" tag r.sr_writes r.sr_reads r.sr_gced
        r.sr_p50_read r.sr_p99_read r.sr_published r.sr_pinned r.sr_deferred
    in
    line "%-4s %8s %8s %6s %12s %12s %10s %8s %9s" "arm" "writes" "reads" "gced" "p50 us"
      "p99 us" "published" "pinned" "deferred";
    row "off" off;
    row "on" on_

  let document o (off, on_) =
    let arm (r : snapshot_run) =
      Json.Obj
        [
          ("writes", Json.int r.sr_writes);
          ("reads", Json.int r.sr_reads);
          ("cut_recaptures", Json.int r.sr_gced);
          ("p50_read_us", Json.fixed 1 r.sr_p50_read);
          ("p99_read_us", Json.fixed 1 r.sr_p99_read);
          ("snapshots_published", Json.int r.sr_published);
          ("pinned_reads", Json.int r.sr_pinned);
          ("gc_deferred", Json.int r.sr_deferred);
        ]
    in
    [
      ("experiment", Json.Str "snapshot");
      ("seed", Json.int o.seed);
      ( "workload",
        Json.Obj
          [
            ("vertices", Json.int vertices);
            ("writers", Json.int writers);
            ("analytics_starts", Json.int analytics_starts);
            ("shards", Json.int o.shards);
            ("gatekeepers", Json.int o.gatekeepers);
            ("shard_capacity", Json.int shard_capacity);
            ("gc_period_us", Json.fixed 0 gc_period);
          ] );
      ("arms", Json.Obj [ ("off", arm off); ("on", arm on_) ]);
    ]

  let bench () =
    header "Snapshot reads: pinned historical analytics vs live write mix";
    let o = defaults in
    let ((off, on_) as r) = run o in
    table r;
    (* the tail is where gate waits and demand paging land; the median is
       dominated by network round trips in both arms, so require a solid
       tail win and a no-worse median *)
    if on_.sr_p99_read >= 0.8 *. off.sr_p99_read || on_.sr_p50_read > off.sr_p50_read then
      failwith "snapshot: analytics latency did not improve";
    if float_of_int off.sr_writes > 1.1 *. float_of_int on_.sr_writes then
      failwith "snapshot: write throughput regressed beyond noise";
    if on_.sr_published = 0 || on_.sr_pinned = 0 then
      failwith "snapshot: on arm never pinned a snapshot";
    if off.sr_published <> 0 || off.sr_pinned <> 0 then
      failwith "snapshot: off arm touched snapshot counters";
    (* determinism: the on arm reruns to the identical fingerprint *)
    let again = arm o ~snap:true in
    let deterministic = again.sr_fingerprint = on_.sr_fingerprint in
    line "deterministic rerun (snapshots on): %b" deterministic;
    if not deterministic then failwith "snapshot: rerun diverged";
    write_bench "snapshot" (document o r @ [ ("deterministic_rerun", Json.Bool deterministic) ])
end

(* ------------------------------------------------------------------ *)
(* Skew: heat-attribution accuracy and cost under zipf-skewed writes.
   Closed-loop writers issue single-vertex property writes over 128 keys
   with zipf-ranked selection; the exact per-key touch tally (setup create
   + every committed write) is the ground truth the per-shard Space-Saving
   sketches are scored against. Reports, per theta: merged top-K
   precision/recall vs the true hottest set (tie-tolerant: a pick counts
   if its true tally reaches the K-th largest — under light skew many keys
   tie at the boundary and any of them is a correct answer). Then: an
   induced mid-run hot-spot flip (rank->key mapping rotated by half the
   keyspace) with the virtual-time detection latency until the new hottest
   key enters the merged top-K; the heat-on vs heat-off cost (virtual
   write throughput must be bit-identical — recording never schedules
   events — plus wall-clock CPU time, informational); and a deterministic
   rerun (counter fingerprint and heat JSON both identical). Emits
   BENCH_skew.json. *)

type skew_run = {
  sk_committed : int;
  sk_aborted : int;
  sk_precision : float;
  sk_recall : float;
  sk_throughput : float;  (* committed writes per virtual second *)
  sk_cpu_s : float;  (* wall-clock, informational *)
  sk_cross : int;  (* cross-shard touches recorded (setup fan-out) *)
  sk_fingerprint : int * int * int * int * int;
  sk_heat_json : string;  (* "" when heat is off *)
}

let skew_keys = 128
let skew_k = 8
let skew_key i = Printf.sprintf "z%03d" i

let skew_cfg ~heat ~seed =
  {
    Config.default with
    Config.seed;
    Config.n_gatekeepers = 2;
    Config.n_shards = 4;
    Config.enable_heat = heat;
    (* over-provision the sketch 2x vs the reported K, standard practice *)
    Config.heat_topk = 16;
  }

(* merged cluster-wide top-K: per-shard sketch tables ranked together by
   estimate, ties on the key — same deterministic order as Sketch.top *)
let skew_merged_top c ~k =
  match Cluster.heat c with
  | None -> []
  | Some h ->
      List.concat
        (List.init (Weaver_obs.Heat.shards h) (fun s ->
             Weaver_obs.Heat.top h ~shard:s))
      |> List.sort (fun (ka, ca, _) (kb, cb, _) ->
             if ca <> cb then compare cb ca else String.compare ka kb)
      |> List.filteri (fun i _ -> i < k)

(* spawn [writers] closed-loop writers, each committing [per_writer]
   single-key property writes with zipf(theta)-ranked key selection
   through [rank_to_key]; tallies ground truth into [true_counts] *)
let skew_writers c ~writers ~per_writer ~theta ~seed ~rank_to_key ~true_counts =
  closed_loop_writers c ~writers ~per_writer
    ~seed_of:(fun i -> seed + (1_000 * (i + 1)))
    ~pick:(fun rng -> rank_to_key (Xrand.zipf rng ~n:skew_keys ~theta))
    ~vid:skew_key
    ~on_commit:(fun k _ -> true_counts.(k) <- true_counts.(k) + 1)
    ()

(* tie-tolerant scoring: a pick is correct if its true tally reaches the
   K-th largest tally; recall is over the keys strictly above that bar
   (the picks no correct answer may omit) *)
let skew_score ~true_counts picks =
  let sorted = Array.copy true_counts in
  Array.sort (fun a b -> compare b a) sorted;
  let threshold = sorted.(skew_k - 1) in
  let true_of key = true_counts.(int_of_string (String.sub key 1 3)) in
  let correct = List.filter (fun (key, _, _) -> true_of key >= threshold) picks in
  let definite = ref [] in
  Array.iteri
    (fun i n -> if n > threshold then definite := skew_key i :: !definite)
    true_counts;
  let found =
    List.filter (fun key -> List.exists (fun (k, _, _) -> k = key) picks) !definite
  in
  let precision = float_of_int (List.length correct) /. float_of_int skew_k in
  let recall =
    if !definite = [] then 1.0 (* every key ties at the bar: nothing to miss *)
    else float_of_int (List.length found) /. float_of_int (List.length !definite)
  in
  (precision, recall)

let skew_arm ~heat ~theta ~seed =
  let cpu0 = Sys.time () in
  let c = cluster (skew_cfg ~heat ~seed) in
  (* one 128-key create fanning out to all 4 shards: the cross-shard touch
     path gets exercised before the single-shard writer phase *)
  create_vertices c ~what:"skew setup" (List.init skew_keys skew_key);
  Cluster.run_for c 5_000.0;
  let true_counts = Array.make skew_keys 1 (* the setup create *) in
  let t0 = Cluster.now c in
  let done_writers =
    skew_writers c ~writers:8 ~per_writer:60 ~theta ~seed ~rank_to_key:(fun r -> r)
      ~true_counts
  in
  drain c ~done_writers ~writers:8 ~label:"skew";
  let t1 = Cluster.now c in
  Cluster.run_for c 20_000.0;
  let ctr = Cluster.counters c in
  let rt = Cluster.runtime c in
  let precision, recall =
    if heat then skew_score ~true_counts (skew_merged_top c ~k:skew_k)
    else (0.0, 0.0)
  in
  let cross =
    match Cluster.heat c with
    | Some h ->
        let n = ref 0 in
        for s = 0 to Weaver_obs.Heat.shards h - 1 do
          n := !n + Weaver_obs.Heat.total h ~shard:s ~kind:Weaver_obs.Heat.Cross
        done;
        !n
    | None -> 0
  in
  {
    sk_committed = ctr.Runtime.tx_committed;
    sk_aborted = ctr.Runtime.tx_aborted;
    sk_precision = precision;
    sk_recall = recall;
    sk_throughput = float_of_int (8 * 60) /. (t1 -. t0) *. 1.0e6;
    sk_cpu_s = Sys.time () -. cpu0;
    sk_cross = cross;
    sk_fingerprint =
      ( ctr.Runtime.tx_committed,
        ctr.Runtime.tx_aborted,
        ctr.Runtime.oracle_consults,
        Weaver_sim.Net.messages_sent rt.Runtime.net,
        ctr.Runtime.nop_msgs );
    sk_heat_json =
      (match Cluster.heat c with
      | Some h -> Weaver_obs.Export.heat_json h ~now:(Cluster.now c)
      | None -> "");
  }

(* the induced hot-spot flip: phase A writes through the identity rank
   mapping (hottest key z000), then the mapping rotates by half the
   keyspace (hottest key z064) and phase B polls the merged top-K until
   the new hottest key appears *)
let skew_flip ~seed =
  let theta = 0.9 in
  let c = cluster (skew_cfg ~heat:true ~seed) in
  create_vertices c ~what:"skew flip setup" (List.init skew_keys skew_key);
  Cluster.run_for c 5_000.0;
  let true_counts = Array.make skew_keys 1 in
  let done_a =
    skew_writers c ~writers:8 ~per_writer:50 ~theta ~seed ~rank_to_key:(fun r -> r)
      ~true_counts
  in
  drain c ~done_writers:done_a ~writers:8 ~label:"skew flip phase A";
  let flip_at = Cluster.now c in
  let new_hot = skew_key (skew_keys / 2) in
  let done_b =
    skew_writers c ~writers:8 ~per_writer:50 ~theta ~seed:(seed + 77)
      ~rank_to_key:(fun r -> (r + (skew_keys / 2)) mod skew_keys)
      ~true_counts
  in
  let detected = ref None in
  let budget = ref 4_000 in
  while !done_b < 8 && !budget > 0 do
    decr budget;
    Cluster.run_for c 500.0;
    if
      !detected = None
      && List.exists (fun (k, _, _) -> k = new_hot) (skew_merged_top c ~k:skew_k)
    then detected := Some (Cluster.now c -. flip_at)
  done;
  if !done_b < 8 then failwith "skew flip: writers stalled";
  !detected

let skew () =
  header "Skew: heavy-hitter sketch accuracy, flip detection, and heat cost";
  let seed = 11 in
  let thetas = [ 0.0; 0.6; 0.9; 1.1 ] in
  let sweep = List.map (fun theta -> (theta, skew_arm ~heat:true ~theta ~seed)) thetas in
  line "%-6s %10s %10s %11s %12s %8s" "theta" "committed" "precision" "recall"
    "writes/s" "cross";
  List.iter
    (fun (theta, r) ->
      line "%-6.1f %10d %10.3f %11.3f %12.0f %8d" theta r.sk_committed
        r.sk_precision r.sk_recall r.sk_throughput r.sk_cross)
    sweep;
  let hot = List.assoc 0.9 sweep in
  if hot.sk_precision < 0.9 then
    failwith
      (Printf.sprintf "skew: precision@%d %.3f < 0.9 at theta 0.9" skew_k
         hot.sk_precision);
  (* the heat-off arm: virtual outcomes must be bit-identical (recording
     never schedules events), so the write-throughput overhead is exactly
     zero; wall-clock CPU time is reported for the real cost *)
  let off = skew_arm ~heat:false ~theta:0.9 ~seed in
  if off.sk_fingerprint <> hot.sk_fingerprint then
    failwith "skew: heat-on fingerprint diverged from heat-off";
  let tp_overhead =
    abs_float (hot.sk_throughput -. off.sk_throughput) /. off.sk_throughput
  in
  line "heat-off arm: %.0f writes/s, overhead %.2f%% (cpu %.3fs off / %.3fs on)"
    off.sk_throughput (100.0 *. tp_overhead) off.sk_cpu_s hot.sk_cpu_s;
  if tp_overhead > 0.02 then failwith "skew: write-throughput overhead above 2%";
  (* induced hot-spot flip at theta 0.9: budget 25 virtual ms *)
  let flip_budget = 25_000.0 in
  (match skew_flip ~seed with
  | Some lat ->
      line "hot-spot flip detected after %.0f us (budget %.0f us)" lat flip_budget;
      if lat > flip_budget then failwith "skew: flip detection over budget"
  | None -> failwith "skew: flip never detected");
  let again = skew_arm ~heat:true ~theta:0.9 ~seed in
  let deterministic =
    again.sk_fingerprint = hot.sk_fingerprint && again.sk_heat_json = hot.sk_heat_json
  in
  line "deterministic rerun (theta 0.9): %b" deterministic;
  if not deterministic then failwith "skew: rerun diverged";
  let flip_lat = match skew_flip ~seed with Some l -> l | None -> 0.0 in
  let run (theta, r) =
    Json.Obj
      [
        ("theta", Json.fixed 1 theta);
        ("committed", Json.int r.sk_committed);
        ("aborted", Json.int r.sk_aborted);
        ("precision_at_k", Json.fixed 4 r.sk_precision);
        ("recall_at_k", Json.fixed 4 r.sk_recall);
        ("writes_per_s", Json.fixed 0 r.sk_throughput);
        ("cross_touches", Json.int r.sk_cross);
      ]
  in
  write_bench "skew"
    [
      ("experiment", Json.Str "skew");
      ("seed", Json.int seed);
      ( "workload",
        Json.Obj
          [
            ("writers", Json.int 8);
            ("commits_per_writer", Json.int 60);
            ("keys", Json.int skew_keys);
            ("shards", Json.int 4);
            ("gatekeepers", Json.int 2);
            ("sketch_k", Json.int 16);
            ("reported_k", Json.int skew_k);
          ] );
      ("sweep", Json.List (List.map run sweep));
      ( "overhead",
        Json.Obj
          [
            ("heat_off_writes_per_s", Json.fixed 0 off.sk_throughput);
            ("heat_on_writes_per_s", Json.fixed 0 hot.sk_throughput);
            ("throughput_overhead", Json.fixed 4 tp_overhead);
            ("cpu_s_off", Json.fixed 4 off.sk_cpu_s);
            ("cpu_s_on", Json.fixed 4 hot.sk_cpu_s);
            ("fingerprint_identical", Json.Bool true);
          ] );
      ( "flip",
        Json.Obj
          [
            ("theta", Json.fixed 1 0.9);
            ("detection_latency_us", Json.fixed 0 flip_lat);
            ("budget_us", Json.fixed 0 flip_budget);
          ] );
      ("deterministic_rerun", Json.Bool deterministic);
    ]

(* -------------------------------------------------------------------- *)
(* Rebalance: elasticity under a migrating hot spot (§4.6). Closed-loop
   writers hammer a hot set of vertices that all live on shard 0; the
   live balancer senses the skew and spreads them. Mid-run the hot set
   flips to shard 1's residents: the on-arm's skew must return to within
   1.2× of its pre-flip (converged) value, while the rebalance-off arm
   stays pinned above the hysteresis bar. Goodput must stay within 10%
   of the off arm (migrations abort racing writers, not the reverse),
   and the whole run — move log included — reruns bit-identically.
   Emits BENCH_rebalance.json. *)

type reb_arm = {
  rb_committed : int;
  rb_aborted : int;
  rb_skew_pre : float;  (* end of phase A: planner converged (on arm) *)
  rb_skew_spike : float;  (* shortly after the hot-set flip *)
  rb_skew_post : float;  (* end of phase B *)
  rb_goodput : float;  (* commits per virtual second, both phases *)
  rb_rounds : int;
  rb_moves : int;
  rb_skipped : int;
  rb_move_log : Json.t;
  rb_fingerprint : int * int * int * int * int;
}

module Rebalance = struct
  type opts = {
    seed : int;
    gatekeepers : int;
    shards : int;  (** at least 2: the hot set moves from shard 0 to shard 1 *)
    tau : float;
    writers : int;
  }

  let defaults =
    { seed = 19; gatekeepers = 2; shards = 4; tau = Config.default.Config.tau; writers = 8 }

  let per_writer = 120  (* commits per writer in each phase *)
  let hot_set = 16
  let keys = 128
  let period = 10_000.0  (* µs between planner rounds *)

  let arm o ~rebalance =
    let cfg =
      {
        Config.default with
        Config.seed = o.seed;
        Config.n_gatekeepers = o.gatekeepers;
        Config.n_shards = o.shards;
        Config.tau = o.tau;
        Config.enable_heat = true;
        Config.enable_rebalance = rebalance;
        Config.rebalance_period = period;
      }
    in
    let c = cluster cfg in
    let key i = Printf.sprintf "e%03d" i in
    create_vertices c ~what:"rebalance setup" (List.init keys key);
    Cluster.run_for c 5_000.0;
    (* hot sets by *initial* residency: phase A hammers shard 0's vertices,
       phase B shard 1's (untouched by phase A's moves, so the flip really
       does land the load on one cold shard) *)
    let hot s =
      let residents =
        Array.of_list
          (List.filter (fun v -> Cluster.shard_of_vertex c v = s) (List.init keys key))
      in
      if Array.length residents = 0 then
        failwith (Printf.sprintf "rebalance: shard %d holds none of the keys" s);
      Array.sub residents 0 (min hot_set (Array.length residents))
    in
    let hot_a = hot 0 and hot_b = hot 1 in
    let h = Option.get (Cluster.heat c) in
    let t0 = Cluster.now c in
    (* closed-loop writers uniform over the hot set; aborted commits retry
       (they cost time, not commits — that is the goodput) *)
    let phase ~seed ~hot =
      closed_loop_writers c ~writers:o.writers ~per_writer
        ~seed_of:(fun i -> seed + (101 * (i + 1)))
        ~pick:(fun rng -> hot.(Xrand.int rng (Array.length hot)))
        ~vid:Fun.id
        ()
    in
    let done_a = phase ~seed:o.seed ~hot:hot_a in
    drain c ~done_writers:done_a ~writers:o.writers ~label:"rebalance phase A";
    let skew_pre = Weaver_obs.Heat.skew h ~now:(Cluster.now c) in
    let done_b = phase ~seed:(o.seed + 7) ~hot:hot_b in
    Cluster.run_for c 5_000.0;
    let skew_spike = Weaver_obs.Heat.skew h ~now:(Cluster.now c) in
    drain c ~done_writers:done_b ~writers:o.writers ~label:"rebalance phase B";
    let skew_post = Weaver_obs.Heat.skew h ~now:(Cluster.now c) in
    let t1 = Cluster.now c in
    let ctr = Cluster.counters c in
    let rt = Cluster.runtime c in
    let move m =
      Json.Obj
        [
          ("t_us", Json.fixed 0 m.Balancer.mv_time);
          ("vid", Json.Str m.Balancer.mv_vid);
          ("from", Json.int m.Balancer.mv_from);
          ("to", Json.int m.Balancer.mv_to);
        ]
    in
    {
      rb_committed = ctr.Runtime.tx_committed;
      rb_aborted = ctr.Runtime.tx_aborted;
      rb_skew_pre = skew_pre;
      rb_skew_spike = skew_spike;
      rb_skew_post = skew_post;
      rb_goodput = float_of_int (2 * o.writers * per_writer) /. (t1 -. t0) *. 1.0e6;
      rb_rounds = ctr.Runtime.rebal_rounds;
      rb_moves = ctr.Runtime.rebal_moves;
      rb_skipped = ctr.Runtime.rebal_skipped;
      rb_move_log =
        Json.List
          (match Cluster.balancer c with
          | None -> []
          | Some b -> List.map move (Balancer.move_log b));
      rb_fingerprint =
        ( ctr.Runtime.tx_committed,
          ctr.Runtime.tx_aborted,
          ctr.Runtime.oracle_consults,
          Weaver_sim.Net.messages_sent rt.Runtime.net,
          ctr.Runtime.nop_msgs );
    }

  (* [(off, on)]; the on arm runs first *)
  let run o =
    let on = arm o ~rebalance:true in
    (arm o ~rebalance:false, on)

  let goodput_delta (off, on) = abs_float (on.rb_goodput -. off.rb_goodput) /. off.rb_goodput

  let table ((off, on) as r) =
    line "%-4s %10s %9s %10s %10s %10s %7s %7s" "arm" "committed" "goodput" "skew pre"
      "spike" "post" "moves" "skips";
    let row tag (r : reb_arm) =
      line "%-4s %10d %9.0f %10.3f %10.3f %10.3f %7d %7d" tag r.rb_committed r.rb_goodput
        r.rb_skew_pre r.rb_skew_spike r.rb_skew_post r.rb_moves r.rb_skipped
    in
    row "off" off;
    row "on" on;
    line "goodput delta %.2f%% (migrations abort racing writers, bounded)"
      (100.0 *. goodput_delta r)

  let document o ((off, on) as r) =
    let arm (r : reb_arm) =
      Json.Obj
        [
          ("committed", Json.int r.rb_committed);
          ("aborted", Json.int r.rb_aborted);
          ("goodput_per_s", Json.fixed 0 r.rb_goodput);
          ("skew_pre_flip", Json.fixed 4 r.rb_skew_pre);
          ("skew_spike", Json.fixed 4 r.rb_skew_spike);
          ("skew_post_flip", Json.fixed 4 r.rb_skew_post);
          ("rounds", Json.int r.rb_rounds);
          ("moves", Json.int r.rb_moves);
          ("skipped", Json.int r.rb_skipped);
          ("move_log", r.rb_move_log);
        ]
    in
    [
      ("experiment", Json.Str "rebalance");
      ("seed", Json.int o.seed);
      ( "workload",
        Json.Obj
          [
            ("writers", Json.int o.writers);
            ("commits_per_writer_per_phase", Json.int per_writer);
            ("hot_set", Json.int hot_set);
            ("keys", Json.int keys);
            ("shards", Json.int o.shards);
            ("gatekeepers", Json.int o.gatekeepers);
            ("rebalance_period_us", Json.fixed 0 period);
          ] );
      ("off", arm off);
      ("on", arm on);
      ("goodput_delta", Json.fixed 4 (goodput_delta r));
    ]

  let bench () =
    header "Rebalance: closing the sense-plan-act loop on a hot-spot flip";
    let o = defaults in
    let ((off, on) as r) = run o in
    table r;
    (* the loop must close: post-flip skew back within 1.2x of pre-flip *)
    if on.rb_moves = 0 then failwith "rebalance: planner never moved anything";
    if on.rb_skew_post > 1.2 *. on.rb_skew_pre then
      failwith
        (Printf.sprintf "rebalance: skew %.3f did not recover (pre-flip %.3f)" on.rb_skew_post
           on.rb_skew_pre);
    (* without the planner the hot spot stays pinned above the hysteresis bar *)
    if off.rb_skew_post < Balancer.hysteresis then
      failwith
        (Printf.sprintf "rebalance: off arm unexpectedly balanced (skew %.3f)" off.rb_skew_post);
    if goodput_delta r > 0.10 then failwith "rebalance: goodput delta above 10%";
    let again = arm o ~rebalance:true in
    let deterministic =
      again.rb_fingerprint = on.rb_fingerprint && again.rb_move_log = on.rb_move_log
    in
    line "deterministic rerun: %b" deterministic;
    if not deterministic then failwith "rebalance: rerun diverged";
    write_bench "rebalance" (document o r @ [ ("deterministic_rerun", Json.Bool deterministic) ])
end

(* ------------------------------------------------------------------ *)
(* Replication: read scale-out from timestamp-consistent partial
   replication of hot ranges (ROADMAP item 3). A Zipf-skewed weak-read
   pool saturates the hot range's owner; raising the replication factor
   spreads those reads over follower copies without touching the write
   path. The chaos arm pins a read at a covered stamp and crashes the
   owner mid-flight. *)

type repl_run = {
  rp_goodput : float;
  rp_reads_err : int;
  rp_writes : float;
  rp_read_p50 : float;
  rp_read_p99 : float;
  rp_installs : int;
  rp_routed : int;
  rp_updates : int;
  rp_fingerprint : (int * int * int * int) * (int * int * int);
}

module Replication = struct
  type opts = {
    seed : int;
    gatekeepers : int;
    shards : int;
    readers : int;
    duration : float;  (** measured window, virtual µs *)
    thetas : float list;  (** reader skews *)
    factors : int list;  (** replication factors; 0 disables *)
  }

  let defaults =
    {
      seed = 29;
      gatekeepers = 4;
      shards = 4;
      readers = 48;
      duration = 250_000.0;
      thetas = [ 0.6; 0.9; 1.1 ];
      factors = [ 0; 1; 2; 3 ];
    }

  let vertices = 64
  let edges = 128
  let writers = 8
  let warmup = 50_000.0  (* virtual µs before the window *)

  (* µs; reads must be the scarce resource for scale-out to show: with the
     default 1 µs read the gatekeeper plane and the wire dominate and every
     arm measures the same thing *)
  let vertex_read_cost = 40.0

  let cfg o ~factor =
    {
      Config.default with
      Config.seed = o.seed;
      n_gatekeepers = o.gatekeepers;
      n_shards = o.shards;
      enable_heat = true;
      enable_replication = factor > 0;
      replication_factor = factor;
      gc_period = 2_000.0;
      vertex_read_cost;
    }

  let arm o ~factor ~theta =
    let c = cluster (cfg o ~factor) in
    let rng = Xrand.create ~seed:(o.seed * 31) () in
    let g = Graphgen.uniform ~rng ~vertices ~edges () in
    let vertices = install c g in
    let r =
      Readscale.run c ~vertices ~readers:o.readers ~writers ~duration:o.duration ~theta ~warmup
        ()
    in
    let ctr = Cluster.counters c in
    let rt = Cluster.runtime c in
    {
      rp_goodput = r.Readscale.read_goodput;
      rp_reads_err = r.Readscale.reads_err;
      rp_writes = r.Readscale.write_throughput;
      rp_read_p50 = Stats.percentile r.Readscale.read_latencies 50.0;
      rp_read_p99 = Stats.percentile r.Readscale.read_latencies 99.0;
      rp_installs = ctr.Runtime.repl_installs;
      rp_routed = ctr.Runtime.repl_routed;
      rp_updates = ctr.Runtime.repl_updates;
      rp_fingerprint =
        ( ( ctr.Runtime.tx_committed,
            ctr.Runtime.tx_aborted,
            ctr.Runtime.progs_completed,
            ctr.Runtime.vertices_read ),
          ( Weaver_sim.Net.messages_sent rt.Runtime.net,
            ctr.Runtime.oracle_consults,
            ctr.Runtime.nop_msgs ) );
    }

  (* [(theta, [(factor, run)])] over every skew and factor *)
  let run o =
    List.map
      (fun theta -> (theta, List.map (fun factor -> (factor, arm o ~factor ~theta)) o.factors))
      o.thetas

  let table runs =
    line "%-6s %-7s %9s %9s %9s %9s %9s %8s %8s" "theta" "factor" "reads/s" "writes/s" "p50us"
      "p99us" "errs" "installs" "routed";
    List.iter
      (fun (theta, arms) ->
        List.iter
          (fun (f, r) ->
            line "%-6.1f %-7d %9.0f %9.0f %9.0f %9.0f %9d %8d %8d" theta f r.rp_goodput
              r.rp_writes r.rp_read_p50 r.rp_read_p99 r.rp_reads_err r.rp_installs r.rp_routed)
          arms)
      runs

  let document o runs =
    let arm theta (f, r) =
      Json.Obj
        [
          ("theta", Json.fixed 1 theta);
          ("factor", Json.int f);
          ("read_goodput_per_s", Json.fixed 0 r.rp_goodput);
          ("write_throughput_per_s", Json.fixed 0 r.rp_writes);
          ("read_p50_us", Json.fixed 0 r.rp_read_p50);
          ("read_p99_us", Json.fixed 0 r.rp_read_p99);
          ("read_errors", Json.int r.rp_reads_err);
          ("installs", Json.int r.rp_installs);
          ("routed", Json.int r.rp_routed);
          ("updates", Json.int r.rp_updates);
        ]
    in
    [
      ("experiment", Json.Str "replication");
      ("seed", Json.int o.seed);
      ( "workload",
        Json.Obj
          [
            ("vertices", Json.int vertices);
            ("edges", Json.int edges);
            ("readers", Json.int o.readers);
            ("writers", Json.int writers);
            ("duration_us", Json.fixed 0 o.duration);
            ("warmup_us", Json.fixed 0 warmup);
            ("shards", Json.int o.shards);
            ("gatekeepers", Json.int o.gatekeepers);
            ("vertex_read_cost_us", Json.fixed 0 vertex_read_cost);
          ] );
      ("arms", Json.List (List.concat_map (fun (theta, arms) -> List.map (arm theta) arms) runs));
    ]

  (* owner crash under fire: warm a replicated range, pin a read at a
     follower-covered stamp, crash the owner, re-issue — same answer *)
  let chaos o =
    let cfg =
      {
        (cfg o ~factor:2) with
        Config.n_gatekeepers = 1;
        vertex_read_cost = Config.default.Config.vertex_read_cost;
      }
    in
    let c = cluster cfg in
    let client = Cluster.client c in
    let tx = Client.Tx.begin_ client in
    ignore (Client.Tx.create_vertex tx ~id:"hot" ());
    ok_exn "replication chaos setup" (Client.commit client tx);
    let owner = Cluster.shard_of_vertex c "hot" in
    let ctr = Cluster.counters c in
    let tries = ref 0 in
    while ctr.Runtime.repl_routed = 0 && !tries < 300 do
      incr tries;
      ignore
        (Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "hot" ]
           ~consistency:`Weak ());
      Cluster.run_for c 200.0
    done;
    if ctr.Runtime.repl_routed = 0 then
      failwith "replication chaos: range never became replicated";
    let tx = Client.Tx.begin_ client in
    Client.Tx.set_vertex_prop tx ~vid:"hot" ~key:"v" ~value:"final";
    ok_exn "replication chaos write" (Client.commit client tx);
    Cluster.run_for c 6_000.0;
    let ts = Cluster.gk_clock c 0 in
    Cluster.run_for c 6_000.0;
    let prop_v result =
      match result with
      | Progval.List [ s ] ->
          Option.map Progval.to_str (Progval.assoc_opt "v" (Progval.assoc "props" s))
      | _ -> failwith "replication chaos: unexpected get_node shape"
    in
    let read_at () =
      ok_exn "replication chaos pinned read"
        (Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "hot" ]
           ~at:ts ())
    in
    let baseline = prop_v (read_at ()) in
    if baseline <> Some "final" then failwith "replication chaos: pinned read missed the write";
    let crash_at = Cluster.now c +. 500.0 in
    ignore
      (Cluster.install_fault_plan c
         (Weaver_sim.Fault.scripted
            [ (crash_at, Weaver_sim.Fault.Crash (Weaver_sim.Fault.Shard owner)) ]));
    Cluster.run_for c 1_000.0;
    let after = prop_v (read_at ()) in
    if after <> baseline then
      failwith "replication chaos: covered read diverged after owner crash";
    (owner, !tries)

  let bench () =
    header "Replication: read scale-out from hot-range partial replication";
    let o = defaults in
    let runs = run o in
    table runs;
    let find ~theta ~factor = List.assoc factor (List.assoc theta runs) in
    let base = find ~theta:0.9 ~factor:0 and best = find ~theta:0.9 ~factor:3 in
    let speedup = best.rp_goodput /. base.rp_goodput in
    line "read goodput at theta 0.9: factor 0 -> 3 is %.2fx" speedup;
    if speedup < 1.5 then
      failwith (Printf.sprintf "replication: %.2fx read scale-out below the 1.5x bar" speedup);
    if best.rp_writes < 0.95 *. base.rp_writes then
      failwith
        (Printf.sprintf "replication: write throughput sagged %.0f -> %.0f (>5%%)"
           base.rp_writes best.rp_writes);
    let again = arm o ~factor:3 ~theta:0.9 in
    let deterministic = again.rp_fingerprint = best.rp_fingerprint in
    line "deterministic rerun: %b" deterministic;
    if not deterministic then failwith "replication: rerun diverged";
    let crashed_owner, warm_tries = chaos o in
    line "chaos: covered pinned read survived crash of owner shard %d" crashed_owner;
    write_bench "replication"
      (document o runs
      @ [
          ("read_scaleout_theta09_f3_vs_f0", Json.fixed 4 speedup);
          ("write_delta_theta09_f3_vs_f0", Json.fixed 4 (best.rp_writes /. base.rp_writes));
          ( "chaos",
            Json.Obj
              [
                ("crashed_owner", Json.int crashed_owner);
                ("warmup_reads", Json.int warm_tries);
                ("covered_read_survived", Json.Bool true);
              ] );
          ("deterministic_rerun", Json.Bool deterministic);
        ])
end

let all =
  [
    ("table1", table1);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9a", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", Fig14.bench);
    ("ablation_cache", ablation_cache);
    ("ablation_truetime", ablation_truetime);
    ("ablation_partition", ablation_partition);
    ("ablation_nop", ablation_nop);
    ("ablation_replicas", ablation_replicas);
    ("ablation_adaptive_tau", ablation_adaptive_tau);
    ("ablation_freshness", ablation_freshness);
    ("breakdown", Breakdown.bench);
    ("timeline", timeline);
    ("chaos", Chaos.bench);
    ("contention", contention);
    ("overload", Overload.bench);
    ("snapshot", Snapshot.bench);
    ("skew", skew);
    ("rebalance", Rebalance.bench);
    ("replication", Replication.bench);
  ]
