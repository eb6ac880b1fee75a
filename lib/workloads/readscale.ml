(* Read-scale workload: Zipf-skewed closed-loop weak readers versus
   uniform closed-loop property writers. The reader skew concentrates load
   on a few key ranges, so one owner saturates unless followers share its
   reads, while the writers keep the owners' follower streams carrying
   real updates instead of bare watermark heartbeats. *)

open Weaver_core
module Xrand = Weaver_util.Xrand
module Stats = Weaver_util.Stats

type result = {
  reads_ok : int;
  reads_err : int;
  writes_ok : int;
  writes_err : int;
  duration : float;
  read_goodput : float;
  write_throughput : float;
  read_latencies : Stats.t;
  write_latencies : Stats.t;
}

let spawn_reader cluster ~rng ~vertices ~theta ~state =
  let client = Cluster.client cluster in
  let reads_ok, reads_err, _, _, read_lat, _, window_start = state in
  let n = Array.length vertices in
  let rec next () =
    let t0 = Cluster.now cluster in
    let v = vertices.(Xrand.zipf rng ~n ~theta) in
    Client.run_program_async client ~prog:"get_node" ~params:Progval.Null
      ~starts:[ v ] ~consistency:`Weak
      ~on_result:(fun r ->
        (if Cluster.now cluster >= !window_start then
           match r with
           | Ok _ ->
               incr reads_ok;
               Stats.add read_lat (Cluster.now cluster -. t0)
           | Error _ -> incr reads_err);
        next ())
      ()
  in
  next ()

let spawn_writer cluster ~rng ~vertices ~state =
  let client = Cluster.client cluster in
  let _, _, writes_ok, writes_err, _, write_lat, window_start = state in
  let n = Array.length vertices in
  let k = ref 0 in
  let rec next () =
    let t0 = Cluster.now cluster in
    let v = vertices.(Xrand.int rng n) in
    incr k;
    let tx = Client.Tx.begin_ client in
    Client.Tx.set_vertex_prop tx ~vid:v ~key:"w" ~value:(string_of_int !k);
    Client.commit_async client tx ~on_result:(fun r ->
        (if Cluster.now cluster >= !window_start then
           match r with
           | Ok () ->
               incr writes_ok;
               Stats.add write_lat (Cluster.now cluster -. t0)
           | Error _ -> incr writes_err);
        next ())
  in
  next ()

let run cluster ~vertices ~readers ~writers ~duration ?(theta = 0.9)
    ?(warmup = 0.0) () =
  assert (readers > 0 && duration > 0.0);
  let rt = Cluster.runtime cluster in
  let master = Weaver_sim.Engine.rng rt.Runtime.engine in
  let reads_ok = ref 0 and reads_err = ref 0 in
  let writes_ok = ref 0 and writes_err = ref 0 in
  let read_lat = Stats.create () and write_lat = Stats.create () in
  let window_start = ref (Cluster.now cluster +. warmup) in
  let state =
    (reads_ok, reads_err, writes_ok, writes_err, read_lat, write_lat, window_start)
  in
  for _ = 1 to readers do
    let rng = Xrand.split master in
    spawn_reader cluster ~rng ~vertices ~theta ~state
  done;
  for _ = 1 to writers do
    let rng = Xrand.split master in
    spawn_writer cluster ~rng ~vertices ~state
  done;
  Cluster.run_for cluster (warmup +. duration);
  {
    reads_ok = !reads_ok;
    reads_err = !reads_err;
    writes_ok = !writes_ok;
    writes_err = !writes_err;
    duration;
    read_goodput = float_of_int !reads_ok /. (duration /. 1_000_000.0);
    write_throughput = float_of_int !writes_ok /. (duration /. 1_000_000.0);
    read_latencies = read_lat;
    write_latencies = write_lat;
  }
