(* Bechamel microbenchmarks of the core data structures: one Test.make per
   hot path. These complement the experiment harness with per-operation
   costs of the building blocks. *)

open Bechamel
open Toolkit
module Vclock = Weaver_vclock.Vclock
module Oracle = Weaver_oracle.Oracle
module Heap = Weaver_util.Heap
module Store = Weaver_store.Store
module Mgraph = Weaver_graph.Mgraph
module Xrand = Weaver_util.Xrand

let vclock_compare =
  let a = Vclock.make ~epoch:0 ~origin:0 [| 5; 3; 9; 1 |] in
  let b = Vclock.make ~epoch:0 ~origin:1 [| 5; 4; 9; 2 |] in
  Test.make ~name:"vclock.compare_hb" (Staged.stage (fun () -> Vclock.compare_hb a b))

let vclock_tick_merge =
  let a = Vclock.make ~epoch:0 ~origin:0 [| 5; 3; 9; 1 |] in
  let b = Vclock.make ~epoch:0 ~origin:1 [| 5; 4; 9; 2 |] in
  Test.make ~name:"vclock.tick+merge"
    (Staged.stage (fun () -> Vclock.merge (Vclock.tick a ~origin:0) b))

let oracle_order =
  Test.make ~name:"oracle.order (fresh pair)"
    (Staged.stage (fun () ->
         let t = Oracle.create () in
         let a = Vclock.make ~epoch:0 ~origin:0 [| 1; 0 |] in
         let b = Vclock.make ~epoch:0 ~origin:1 [| 0; 1 |] in
         Oracle.order t ~first:a ~second:b))

let heap_churn =
  Test.make ~name:"heap.push+pop x64"
    (Staged.stage (fun () ->
         let h = Heap.create ~cmp:compare in
         for i = 0 to 63 do
           Heap.push h ((i * 37) mod 64)
         done;
         while not (Heap.is_empty h) do
           ignore (Heap.pop h)
         done))

let engine_step =
  Test.make ~name:"engine.schedule+step x64"
    (Staged.stage (fun () ->
         let e = Weaver_sim.Engine.create () in
         for i = 0 to 63 do
           Weaver_sim.Engine.schedule e
             ~delay:(float_of_int ((i * 37) mod 64))
             ignore
         done;
         Weaver_sim.Engine.run e))

let net_send =
  Test.make ~name:"net.send+deliver x64"
    (Staged.stage (fun () ->
         let e = Weaver_sim.Engine.create ~seed:7 () in
         let net =
           Weaver_sim.Net.create e ~latency:Weaver_sim.Net.local_latency
         in
         Weaver_sim.Net.register net 1 (fun ~src:_ _ -> ());
         for i = 0 to 63 do
           Weaver_sim.Net.send net ~src:0 ~dst:1 i
         done;
         Weaver_sim.Engine.run e))

let store_tx =
  let s = Store.create () in
  Test.make ~name:"store.tx (2 reads + 2 writes)"
    (Staged.stage (fun () ->
         let tx = Store.Tx.begin_ s in
         ignore (Store.Tx.get tx "a");
         ignore (Store.Tx.get tx "b");
         Store.Tx.put tx "a" 1;
         Store.Tx.put tx "b" 2;
         ignore (Store.Tx.commit tx)))

let mgraph_snapshot =
  let at i = Vclock.make ~epoch:0 ~origin:0 [| i |] in
  let v = ref (Mgraph.create_vertex ~vid:"v" ~at:(at 0)) in
  for i = 1 to 32 do
    v := Mgraph.add_edge !v ~eid:(string_of_int i) ~dst:"d" ~at:(at i)
  done;
  let v = !v in
  let before a b = Vclock.precedes a b in
  Test.make ~name:"mgraph.out_edges (32 versions)"
    (Staged.stage (fun () -> Mgraph.out_edges before v ~at:(at 16)))

let rng_zipf =
  let rng = Xrand.create ~seed:1 () in
  Test.make ~name:"xrand.zipf" (Staged.stage (fun () -> Xrand.zipf rng ~n:100_000 ~theta:0.9))

(* Demand paging under memory pressure: a capacity-bounded shard serving
   uniform point reads over a working set 8x its capacity, so most queries
   page a vertex in and evict another. Guards the O(1)-amortized eviction
   path (a whole-queue scan here is quadratic in touch volume). *)
let shard_paging =
  let open Weaver_core in
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = 1;
      Config.n_shards = 1;
      Config.shard_capacity = Some 64;
    }
  in
  let c = Weaver_bench.Experiments.cluster cfg in
  let rng = Xrand.create ~seed:5 () in
  let g =
    Weaver_workloads.Graphgen.uniform ~rng ~prefix:"pg" ~vertices:512 ~edges:1_024 ()
  in
  Weaver_workloads.Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  let vertices = Array.of_list (Weaver_workloads.Graphgen.vertex_ids g) in
  let client = Cluster.client c in
  Test.make ~name:"shard.paging (cap 64, set 512)"
    (Staged.stage (fun () ->
         ignore
           (Client.run_program client ~prog:"get_node" ~params:Progval.Null
              ~starts:[ Xrand.pick rng vertices ] ())))

let tests =
  Test.make_grouped ~name:"micro"
    [
      vclock_compare;
      vclock_tick_merge;
      oracle_order;
      heap_churn;
      engine_step;
      net_send;
      store_tx;
      mgraph_snapshot;
      rng_zipf;
      shard_paging;
    ]

let run () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) i raw) instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instances results in
  Printf.printf "\n==== Microbenchmarks (ns/op) ====\n";
  Hashtbl.iter
    (fun _meas tbl ->
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-36s %12.1f\n" name est
          | _ -> ())
        tbl)
    results
