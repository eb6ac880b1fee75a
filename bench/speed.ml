(* The raw-speed gate: deterministic workloads timed with the process
   clock, emitted as BENCH_micro.json.

   Two layers:
   - micro: fixed-iteration loops over the hot building blocks
     (engine scheduling, network send+deliver, heap churn, multi-version
     adjacency reads), reported as ns/op. The workload each loop performs
     is bit-deterministic; only the measured time varies by machine.
   - macro: a table1-style closed-loop TAO mix on a full cluster,
     reported as simulated operations per second of *wall CPU time* (not
     virtual time — this measures the simulator itself, which is what
     caps the 1M+-vertex sweeps in ROADMAP items 1-3).

   The "baseline" block below is the same workload measured on the tree
   as of the start of this PR (commit 4d70e71), so the JSON carries the
   before/after comparison the speed work is gated on. The macro
   fingerprint is asserted identical across an in-process rerun: any
   perturbation of simulated behaviour fails the gate loudly. *)

open Weaver_core
open Weaver_workloads
module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Heap = Weaver_util.Heap
module Xrand = Weaver_util.Xrand
module Vclock = Weaver_vclock.Vclock
module Mgraph = Weaver_graph.Mgraph
module Json = Weaver_util.Json

let line fmt = Printf.printf (fmt ^^ "\n%!")

(* -------------------------------------------------------------- *)
(* Baseline: measured at the seed of this PR on the reference
   machine. ns/op for the micro loops, ops per CPU-second for the
   macro run. *)

let baseline_micro : (string * float) list =
  [
    ("engine.schedule+step", 2908.0);
    ("net.send+deliver", 2048.7);
    ("heap.push+pop x64", 89.2);
    ("mgraph.out_edges (32 versions)", 932.6);
  ]

let baseline_macro_ops_per_cpu_s = 19_861.0

(* -------------------------------------------------------------- *)
(* micro: best-of-three fixed-count loops *)

let time_ns_per_op ~iters f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Sys.time () in
    f ();
    let dt = Sys.time () -. t0 in
    let ns = dt *. 1e9 /. float_of_int iters in
    if ns < !best then best := ns
  done;
  !best

let bench_engine_step () =
  let iters = 400_000 in
  time_ns_per_op ~iters (fun () ->
      let e = Engine.create ~seed:3 () in
      for i = 0 to iters - 1 do
        Engine.schedule e ~delay:(float_of_int ((i * 37) mod 100)) ignore
      done;
      Engine.run e)

let bench_net_send () =
  let iters = 200_000 in
  time_ns_per_op ~iters (fun () ->
      let e = Engine.create ~seed:4 () in
      let net = Net.create e ~latency:(Net.uniform_latency ~base:50.0 ~jitter:20.0) in
      let sink = ref 0 in
      Net.register net 1 (fun ~src:_ m -> sink := !sink + m);
      (* 8 source channels, interleaved, so the FIFO-floor path is hot *)
      for i = 0 to iters - 1 do
        Net.send net ~src:(2 + (i land 7)) ~dst:1 i
      done;
      Engine.run e;
      assert (Net.messages_delivered net = iters))

let bench_heap_churn () =
  let rounds = 6_000 in
  let iters = rounds * 64 in
  time_ns_per_op ~iters (fun () ->
      let h = Heap.create ~cmp:compare in
      for _ = 1 to rounds do
        for i = 0 to 63 do
          Heap.push h ((i * 37) mod 64)
        done;
        while not (Heap.is_empty h) do
          ignore (Heap.pop h)
        done
      done)

let bench_mgraph_out_edges () =
  let at i = Vclock.make ~epoch:0 ~origin:0 [| i |] in
  let v = ref (Mgraph.create_vertex ~vid:"v" ~at:(at 0)) in
  for i = 1 to 32 do
    v := Mgraph.add_edge !v ~eid:(string_of_int i) ~dst:"d" ~at:(at i)
  done;
  let v = !v in
  let before a b = Vclock.precedes a b in
  let iters = 400_000 in
  time_ns_per_op ~iters (fun () ->
      for _ = 1 to iters do
        ignore (Mgraph.out_edges before v ~at:(at 16))
      done)

let run_micro () =
  [
    ("engine.schedule+step", bench_engine_step ());
    ("net.send+deliver", bench_net_send ());
    ("heap.push+pop x64", bench_heap_churn ());
    ("mgraph.out_edges (32 versions)", bench_mgraph_out_edges ());
  ]

(* -------------------------------------------------------------- *)
(* macro: closed-loop TAO mix, fixed virtual window, timed in CPU s *)

type macro_run = {
  m_completed : int;
  m_aborted : int;
  m_cpu_s : float;
  m_ops_per_cpu_s : float;
  m_fingerprint : int * int * int * int * int * int;
}

let macro_arm () =
  let cfg =
    {
      Config.default with
      Config.seed = 11;
      Config.n_gatekeepers = 2;
      Config.n_shards = 4;
    }
  in
  let c = Weaver_bench.Experiments.cluster cfg in
  let rng = Xrand.create ~seed:23 () in
  let g = Graphgen.uniform ~rng ~prefix:"sp" ~vertices:2_000 ~edges:4_000 () in
  Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  let vertices = Array.of_list (Graphgen.vertex_ids g) in
  let t0 = Sys.time () in
  let r = Tao.Driver.run c ~vertices ~clients:32 ~duration:400_000.0 () in
  let cpu = Sys.time () -. t0 in
  let ctr = Cluster.counters c in
  let rt = Cluster.runtime c in
  {
    m_completed = r.Tao.Driver.completed;
    m_aborted = r.Tao.Driver.aborted;
    m_cpu_s = cpu;
    m_ops_per_cpu_s = float_of_int r.Tao.Driver.completed /. cpu;
    m_fingerprint =
      ( r.Tao.Driver.completed,
        r.Tao.Driver.aborted,
        ctr.Runtime.tx_committed,
        ctr.Runtime.progs_completed,
        Net.messages_sent rt.Runtime.net,
        ctr.Runtime.nop_msgs );
  }

let run () =
  line "\n==== Speed gate: micro ns/op and macro simulated-ops per CPU-second ====";
  let micro = run_micro () in
  line "%-34s %12s %12s %8s" "micro" "baseline" "now" "ratio";
  List.iter
    (fun (name, now) ->
      let base = List.assoc name baseline_micro in
      line "%-34s %12.1f %12.1f %8.2f" name base now (base /. Float.max now 1e-9))
    micro;
  let m = macro_arm () in
  (* determinism: the run must reproduce its counter fingerprint exactly *)
  let m2 = macro_arm () in
  let deterministic = m.m_fingerprint = m2.m_fingerprint in
  if not deterministic then failwith "speed: macro rerun fingerprint diverged";
  let c1, a1, tc, pc, ms, nm = m.m_fingerprint in
  line "macro: %d ops (%d aborts) in %.3f CPU s = %.0f ops/s (baseline %.0f, %.2fx)"
    m.m_completed m.m_aborted m.m_cpu_s m.m_ops_per_cpu_s
    baseline_macro_ops_per_cpu_s
    (m.m_ops_per_cpu_s /. baseline_macro_ops_per_cpu_s);
  line "deterministic rerun: %b" deterministic;
  let int k v = (k, Json.int v) in
  let micro_row (name, now) =
    let base = List.assoc name baseline_micro in
    Json.Obj
      [
        ("name", Json.Str name);
        ("before", Json.fixed 1 base);
        ("after", Json.fixed 1 now);
        ("speedup", Json.fixed 2 (base /. Float.max now 1e-9));
      ]
  in
  Weaver_bench.Experiments.write_bench "micro"
    [
      ("experiment", Json.Str "speed");
      ("micro_ns_per_op", Json.List (List.map micro_row micro));
      ( "macro",
        Json.Obj
          [
            ("workload", Json.Str "table1 TAO mix, 2 gk / 4 shards, 32 clients, 400 ms virtual");
            int "completed" m.m_completed;
            int "aborted" m.m_aborted;
            ("cpu_s", Json.fixed 4 m.m_cpu_s);
            ("ops_per_cpu_s_before", Json.fixed 0 baseline_macro_ops_per_cpu_s);
            ("ops_per_cpu_s_after", Json.fixed 0 m.m_ops_per_cpu_s);
            ("speedup", Json.fixed 2 (m.m_ops_per_cpu_s /. baseline_macro_ops_per_cpu_s));
          ] );
      ( "fingerprint",
        Json.Obj
          [
            int "completed" c1;
            int "aborted" a1;
            int "tx_committed" tc;
            int "progs_completed" pc;
            int "messages_sent" ms;
            int "nop_msgs" nm;
          ] );
      ("deterministic_rerun", Json.Bool deterministic);
    ]
