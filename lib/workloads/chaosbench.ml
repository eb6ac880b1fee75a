open Weaver_core
module Xrand = Weaver_util.Xrand
module Stats = Weaver_util.Stats
module Json = Weaver_util.Json
module Fault = Weaver_sim.Fault

type opts = {
  co_seed : int;
  co_gatekeepers : int;
  co_shards : int;
  co_clients : int;
  co_duration : float;
  co_window : float;
  co_timeout : float;
  co_reliable : bool;
  co_read_fraction : float;
}

let default_opts =
  {
    co_seed = 42;
    co_gatekeepers = 3;
    co_shards = 4;
    co_clients = 12;
    co_duration = 1_000_000.0;
    co_window = 50_000.0;
    co_timeout = 60_000.0;
    co_reliable = true;
    co_read_fraction = 0.8;
  }

type window = { w_start : float; w_ok : int; w_err : int }

type result = {
  r_reliable : bool;
  r_seed : int;
  r_windows : window list;
  r_total_ok : int;
  r_total_err : int;
  r_availability : float;
  r_p50 : float;
  r_p99 : float;
  r_recovery_time : float option;
  r_retries : int;
  r_dedup_hits : int;
  r_late_replies : int;
  r_fault_events : int;
}

(* An early cluster-wide latency spike (slow servers: requests time out
   client-side but still commit, exercising duplicate suppression), then
   rolling single-failures: one gatekeeper, then another, then a shard —
   never two down at once, and gatekeeper 0 never crashes so the cluster
   always has a live coordinator. Timings leave a tail after the last
   restart to measure recovery. *)
let plan_of opts ~base =
  let spike =
    Fault.scripted
      [
        (base +. (opts.co_duration /. 25.0), Fault.Net_degrade 60.0);
        (base +. (opts.co_duration /. 9.0), Fault.Net_degrade 1.0);
      ]
  in
  let targets =
    List.init (max 0 (opts.co_gatekeepers - 1)) (fun i -> Fault.Gatekeeper (i + 1))
    @ [ Fault.Shard 0 ]
  in
  let gap = opts.co_duration /. 4.0 in
  spike
  @ Fault.rolling_crashes ~targets
      ~start:(base +. (opts.co_duration /. 5.0))
      ~gap
      ~downtime:(gap /. 2.0)

let last_restart plan =
  List.fold_left
    (fun acc (e : Fault.event) ->
      match e.Fault.action with Fault.Restart _ -> Float.max acc e.Fault.at | _ -> acc)
    0.0 plan

(* one closed-loop client: reads are get_node programs, writes create an
   edge between two zipf-picked vertices — a compressed TAO mix *)
let spawn_client c ~rng ~vertices ~opts ~record =
  let client = Cluster.client c in
  Client.set_timeout client opts.co_timeout;
  Client.set_retry_policy client
    (if opts.co_reliable then Client.reliable_policy else Client.no_retry_policy);
  let n = Array.length vertices in
  let pick () = vertices.(Xrand.zipf rng ~n ~theta:0.75) in
  let rec next () =
    let t0 = Cluster.now c in
    if Xrand.float rng 1.0 < opts.co_read_fraction then
      Client.run_program_async client ~prog:"get_node" ~params:Progval.Null
        ~starts:[ pick () ]
        ~on_result:(fun r ->
          record ~t0 ~ok:(Result.is_ok r);
          next ())
        ()
    else begin
      let tx = Client.Tx.begin_ client in
      ignore (Client.Tx.create_edge tx ~src:(pick ()) ~dst:(pick ()));
      Client.commit_async client tx ~on_result:(fun r ->
          record ~t0 ~ok:(Result.is_ok r);
          next ())
    end
  in
  next ()

let run opts =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = opts.co_gatekeepers;
      Config.n_shards = opts.co_shards;
      Config.seed = opts.co_seed;
      (* disable the failure detector: restarts come from the fault plan,
         so the measured difference is the client policy, not replacement
         servers (see .mli) *)
      Config.failure_timeout = 1e12;
    }
  in
  Config.validate cfg;
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  let graph_rng = Xrand.create ~seed:opts.co_seed () in
  let g =
    Graphgen.uniform ~rng:graph_rng ~prefix:"c" ~vertices:400 ~edges:1_600 ()
  in
  Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  let base = Cluster.now c in
  let plan = plan_of opts ~base in
  ignore (Cluster.install_fault_plan c plan);
  let n_windows = int_of_float (ceil (opts.co_duration /. opts.co_window)) in
  let ok = Array.make n_windows 0 and err = Array.make n_windows 0 in
  let latencies = Stats.create () in
  let record ~t0 ~ok:is_ok =
    let now = Cluster.now c in
    let idx = int_of_float ((now -. base) /. opts.co_window) in
    if idx >= 0 && idx < n_windows then
      if is_ok then begin
        ok.(idx) <- ok.(idx) + 1;
        Stats.add latencies (now -. t0)
      end
      else err.(idx) <- err.(idx) + 1
  in
  let vertices = Array.of_list (Graphgen.vertex_ids g) in
  let master = Xrand.create ~seed:(opts.co_seed + 1) () in
  for _ = 1 to opts.co_clients do
    let rng = Xrand.split master in
    spawn_client c ~rng ~vertices ~opts ~record
  done;
  Cluster.run_for c opts.co_duration;
  let windows =
    List.init n_windows (fun i ->
        { w_start = float_of_int i *. opts.co_window; w_ok = ok.(i); w_err = err.(i) })
  in
  let total_ok = Array.fold_left ( + ) 0 ok
  and total_err = Array.fold_left ( + ) 0 err in
  let availability =
    if total_ok + total_err = 0 then 0.0
    else float_of_int total_ok /. float_of_int (total_ok + total_err)
  in
  let restart_rel = last_restart plan -. base in
  let recovery_time =
    List.fold_left
      (fun acc w ->
        match acc with
        | Some _ -> acc
        | None ->
            let total = w.w_ok + w.w_err in
            if
              w.w_start >= restart_rel && total > 0
              && float_of_int w.w_ok /. float_of_int total >= 0.95
            then Some (w.w_start -. restart_rel)
            else None)
      None windows
  in
  let cnt = Cluster.counters c in
  {
    r_reliable = opts.co_reliable;
    r_seed = opts.co_seed;
    r_windows = windows;
    r_total_ok = total_ok;
    r_total_err = total_err;
    r_availability = availability;
    r_p50 = Stats.percentile latencies 50.0;
    r_p99 = Stats.percentile latencies 99.0;
    r_recovery_time = recovery_time;
    r_retries = cnt.Runtime.client_retries;
    r_dedup_hits = cnt.Runtime.dedup_hits;
    r_late_replies = cnt.Runtime.late_replies;
    r_fault_events = cnt.Runtime.fault_events;
  }

(* canonical field order: determinism of the rendered document is part of
   the contract (tests compare two runs' strings) *)
let to_json r =
  let window w =
    Json.Obj [ ("start_us", Json.fixed 0 w.w_start); ("ok", Json.int w.w_ok); ("err", Json.int w.w_err) ]
  in
  Json.Obj
    [
      ("reliable", Json.Bool r.r_reliable);
      ("seed", Json.int r.r_seed);
      ("total_ok", Json.int r.r_total_ok);
      ("total_err", Json.int r.r_total_err);
      ("availability", Json.fixed 4 r.r_availability);
      ("p50_us", Json.fixed 1 r.r_p50);
      ("p99_us", Json.fixed 1 r.r_p99);
      ("recovery_us", match r.r_recovery_time with Some t -> Json.fixed 0 t | None -> Json.Null);
      ("retries", Json.int r.r_retries);
      ("dedup_hits", Json.int r.r_dedup_hits);
      ("late_replies", Json.int r.r_late_replies);
      ("fault_events", Json.int r.r_fault_events);
      ("windows", Json.List (List.map window r.r_windows));
    ]
