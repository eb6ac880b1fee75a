(* Tests for the load-heat layer: the Space-Saving sketch (bounds,
   eviction, deterministic ordering), the decayed range accumulators, the
   cluster wiring (writes from apply, reads from program visits, cross
   from multi-shard commits), the counter-invisibility guarantee, the
   health watchdog (unit-level signal checks plus a scripted-fault
   watermark stall), and the Metrics re-registration regression. *)

open Weaver_core
module Heat = Weaver_obs.Heat
module Health = Weaver_obs.Health
module Metrics = Weaver_obs.Metrics
module Export = Weaver_obs.Export
module Json = Weaver_util.Json
module Xrand = Weaver_util.Xrand

(* ------------------------------------------------------------------ *)
(* Space-Saving sketch *)

let test_sketch_exact_under_capacity () =
  let s = Heat.Sketch.create ~k:4 in
  for _ = 1 to 3 do
    Heat.Sketch.touch s "a"
  done;
  Heat.Sketch.touch s "b";
  Alcotest.(check int) "size" 2 (Heat.Sketch.size s);
  Alcotest.(check int) "capacity" 4 (Heat.Sketch.capacity s);
  Alcotest.(check (option (pair int int))) "a exact" (Some (3, 0)) (Heat.Sketch.estimate s "a");
  Alcotest.(check (option (pair int int))) "b exact" (Some (1, 0)) (Heat.Sketch.estimate s "b");
  Alcotest.(check (option (pair int int))) "untracked" None (Heat.Sketch.estimate s "z");
  Alcotest.(check (list (triple string int int)))
    "top" [ ("a", 3, 0); ("b", 1, 0) ] (Heat.Sketch.top s)

let test_sketch_eviction_inherits_min () =
  let s = Heat.Sketch.create ~k:2 in
  Heat.Sketch.touch ~by:5 s "a";
  Heat.Sketch.touch ~by:3 s "b";
  Heat.Sketch.touch s "c";
  (* c replaced the minimum (b, 3) and inherited its count as error *)
  Alcotest.(check int) "still k entries" 2 (Heat.Sketch.size s);
  Alcotest.(check (option (pair int int))) "evicted" None (Heat.Sketch.estimate s "b");
  Alcotest.(check (option (pair int int))) "inherited" (Some (4, 3)) (Heat.Sketch.estimate s "c");
  Alcotest.(check (option (pair int int))) "survivor" (Some (5, 0)) (Heat.Sketch.estimate s "a")

let test_sketch_tie_breaks_deterministic () =
  let s = Heat.Sketch.create ~k:2 in
  Heat.Sketch.touch s "a";
  Heat.Sketch.touch s "b";
  Heat.Sketch.touch s "c";
  (* min count ties at 1 between a and b: the lexicographically larger key
     (b) is evicted, so the table is a pure function of the stream *)
  Alcotest.(check (option (pair int int))) "a kept" (Some (1, 0)) (Heat.Sketch.estimate s "a");
  Alcotest.(check (option (pair int int))) "b evicted" None (Heat.Sketch.estimate s "b");
  Alcotest.(check (list (triple string int int)))
    "top orders count desc, key asc"
    [ ("c", 2, 1); ("a", 1, 0) ]
    (Heat.Sketch.top s)

(* the Space-Saving guarantee: estimate never undercounts, and the true
   count lies within [estimate - error, estimate] for every tracked key *)
let test_sketch_error_bounds () =
  let s = Heat.Sketch.create ~k:8 in
  let truth = Hashtbl.create 64 in
  let rng = Xrand.create ~seed:17 () in
  for _ = 1 to 2_000 do
    (* zipf-ish without floats: quadratic rank collapse onto 40 keys *)
    let r = Xrand.int rng 1600 in
    let key = Printf.sprintf "k%02d" (r * r / 64_000) in
    Hashtbl.replace truth key (1 + Option.value ~default:0 (Hashtbl.find_opt truth key));
    Heat.Sketch.touch s key
  done;
  let top = Heat.Sketch.top s in
  Alcotest.(check int) "table full" 8 (List.length top);
  List.iter
    (fun (key, est, err) ->
      let true_count = Option.value ~default:0 (Hashtbl.find_opt truth key) in
      Alcotest.(check bool) "never undercounts" true (est >= true_count);
      Alcotest.(check bool) "lower bound holds" true (est - err <= true_count))
    top;
  (* counts weakly descending *)
  let counts = List.map (fun (_, c, _) -> c) top in
  Alcotest.(check bool) "descending" true
    (List.sort (fun a b -> compare b a) counts = counts)

(* Regression: [Heat.home_shard] is [range mod shards], which only equals
   hashed placement when [ranges] is a multiple of [shards] — with, say,
   3 shards and 64 ranges every range-heat row was attributed to the wrong
   home. [Heat.create] rejects non-nesting tables, and when they nest, home
   attribution must agree with [Partition.hash_vertex] exactly. *)
let test_ranges_nest_in_shards () =
  Alcotest.check_raises "Heat.create rejects non-nesting ranges"
    (Invalid_argument "Heat.create: ranges must be a multiple of shards")
    (fun () -> ignore (Heat.create ~shards:3 ~k:4 ~ranges:8 ~half_life:1_000.0));
  let h = Heat.create ~shards:3 ~k:4 ~ranges:9 ~half_life:1_000.0 in
  for i = 0 to 99 do
    let vid = "v" ^ string_of_int i in
    Alcotest.(check int) "home agrees with hashed placement"
      (Weaver_partition.Partition.hash_vertex ~shards:3 vid)
      (Heat.home_shard h (Heat.range_of h vid))
  done

(* The cluster derives its range count from the shard count, so a heat-on
   cluster with 3 shards builds with 66 ranges (the smallest multiple of 3
   at or above 64), and every range's home is where placement puts its
   vertices. *)
let test_cluster_ranges_follow_shards () =
  let c =
    Cluster.create { Config.default with Config.enable_heat = true; n_shards = 3 }
  in
  let h = Option.get (Cluster.heat c) in
  Alcotest.(check int) "66 ranges" 66 (Heat.ranges h);
  let seen = Array.make (Heat.ranges h) false in
  for i = 0 to 4_999 do
    let vid = "v" ^ string_of_int i in
    let range = Heat.range_of h vid in
    seen.(range) <- true;
    let placed = Weaver_partition.Partition.hash_vertex ~shards:3 vid in
    Alcotest.(check int) "cluster places by hash" placed
      (Runtime.shard_of_vertex (Cluster.runtime c) vid);
    Alcotest.(check int) "home agrees with hashed placement" placed
      (Heat.home_shard h range)
  done;
  Alcotest.(check bool) "every range sampled" true (Array.for_all Fun.id seen)

(* ------------------------------------------------------------------ *)
(* Decayed accumulators, kinds, skew *)

let test_decay_halves_per_half_life () =
  let h = Heat.create ~shards:2 ~k:4 ~ranges:8 ~half_life:1_000.0 in
  let vid = "v0" in
  let r = Heat.range_of h vid in
  for _ = 1 to 4 do
    Heat.touch h ~shard:0 ~kind:Heat.Write ~now:0.0 vid
  done;
  Alcotest.(check (float 0.001)) "fresh" 4.0 (Heat.range_load h ~range:r ~kind:Heat.Write ~now:0.0);
  Alcotest.(check (float 0.001)) "one half-life" 2.0
    (Heat.range_load h ~range:r ~kind:Heat.Write ~now:1_000.0);
  Alcotest.(check (float 0.001)) "two half-lives" 1.0
    (Heat.range_load h ~range:r ~kind:Heat.Write ~now:2_000.0);
  Alcotest.(check (float 0.001)) "kinds separate" 0.0
    (Heat.range_load h ~range:r ~kind:Heat.Read ~now:0.0)

let test_kinds_and_cross_skips_sketch () =
  let h = Heat.create ~shards:2 ~k:4 ~ranges:8 ~half_life:1_000.0 in
  Heat.touch h ~shard:0 ~kind:Heat.Read ~now:0.0 "a";
  Heat.touch h ~shard:0 ~kind:Heat.Write ~now:0.0 "a";
  Heat.touch h ~shard:0 ~kind:Heat.Write ~now:0.0 "b";
  Heat.touch h ~shard:1 ~kind:Heat.Cross ~now:0.0 "c";
  Heat.touch h ~shard:1 ~kind:Heat.Cross ~now:0.0 "c";
  Alcotest.(check (triple int int int)) "shard0 totals" (1, 2, 0) (Heat.totals h ~shard:0);
  Alcotest.(check (triple int int int)) "shard1 totals" (0, 0, 2) (Heat.totals h ~shard:1);
  (* cross touches re-count writes already sketched at the owner, so they
     feed only the accumulators *)
  Alcotest.(check int) "cross not sketched" 0 (Heat.Sketch.size (Heat.sketch h ~shard:1));
  Alcotest.(check (list (triple string int int)))
    "shard0 top" [ ("a", 2, 0); ("b", 1, 0) ] (Heat.top h ~shard:0)

let test_skew_ratio () =
  let h = Heat.create ~shards:2 ~k:4 ~ranges:8 ~half_life:1_000.0 in
  Alcotest.(check (float 0.001)) "idle" 0.0 (Heat.skew h ~now:0.0);
  for i = 0 to 7 do
    Heat.touch h ~shard:0 ~kind:Heat.Write ~now:0.0 (Printf.sprintf "s%d" i)
  done;
  Alcotest.(check (float 0.001)) "one shard carries all" 2.0 (Heat.skew h ~now:0.0);
  for i = 0 to 7 do
    Heat.touch h ~shard:1 ~kind:Heat.Read ~now:0.0 (Printf.sprintf "t%d" i)
  done;
  Alcotest.(check (float 0.001)) "balanced" 1.0 (Heat.skew h ~now:0.0);
  for r = 0 to Heat.ranges h - 1 do
    Alcotest.(check int) "home shard nests" (r mod 2) (Heat.home_shard h r)
  done

(* ------------------------------------------------------------------ *)
(* Cluster wiring and the invisibility guarantee *)

let mixed cfg =
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  let client = Cluster.client c in
  let rng = Xrand.create ~seed:41 () in
  let vids =
    List.init 24 (fun i ->
        let tx = Client.Tx.begin_ client in
        let v = Client.Tx.create_vertex tx ~id:(Printf.sprintf "hv%d" i) () in
        (match Client.commit client tx with Ok () -> () | Error e -> failwith e);
        v)
  in
  let vertices = Array.of_list vids in
  (* two-vertex property transactions: with the default 4 shards most of
     these fan out to two shards and exercise the cross path *)
  for i = 1 to 12 do
    let tx = Client.Tx.begin_ client in
    Client.Tx.set_vertex_prop tx ~vid:(Xrand.pick rng vertices) ~key:"k"
      ~value:(string_of_int i);
    Client.Tx.set_vertex_prop tx ~vid:(Xrand.pick rng vertices) ~key:"k2"
      ~value:(string_of_int i);
    ignore (Client.commit client tx)
  done;
  for _ = 1 to 6 do
    let tx = Client.Tx.begin_ client in
    ignore
      (Client.Tx.create_edge tx ~src:(Xrand.pick rng vertices)
         ~dst:(Xrand.pick rng vertices));
    ignore (Client.commit client tx)
  done;
  for _ = 1 to 6 do
    ignore
      (Client.run_program client ~prog:"get_edges" ~params:Progval.Null
         ~starts:[ Xrand.pick rng vertices ]
         ())
  done;
  Cluster.run_for c 30_000.0;
  c

let fingerprint c =
  let ctr = Cluster.counters c in
  let rt = Cluster.runtime c in
  ( ( ctr.Runtime.tx_committed,
      ctr.Runtime.tx_aborted,
      ctr.Runtime.tx_invalid,
      ctr.Runtime.progs_completed ),
    ( Weaver_sim.Net.messages_sent rt.Runtime.net,
      Weaver_sim.Net.messages_delivered rt.Runtime.net,
      ctr.Runtime.oracle_consults,
      ctr.Runtime.nop_msgs ) )

let heat_cfg seed =
  { Config.default with Config.enable_heat = true; seed }

let test_cluster_wiring () =
  let c = mixed (heat_cfg 5) in
  let h = Option.get (Cluster.heat c) in
  let sum kind =
    let acc = ref 0 in
    for s = 0 to Heat.shards h - 1 do
      acc := !acc + Heat.total h ~shard:s ~kind
    done;
    !acc
  in
  Alcotest.(check bool) "writes from apply" true (sum Heat.Write > 0);
  Alcotest.(check bool) "reads from program visits" true (sum Heat.Read > 0);
  Alcotest.(check bool) "cross from multi-shard commits" true (sum Heat.Cross > 0);
  (* the sketch surfaces real vertex handles *)
  let tops = List.concat_map (fun s -> Heat.top h ~shard:s)
      (List.init (Heat.shards h) Fun.id) in
  Alcotest.(check bool) "top nonempty" true (tops <> []);
  List.iter
    (fun (vid, count, _) ->
      Alcotest.(check bool) "counts positive" true (count > 0);
      Alcotest.(check bool) "handle prefix" true (String.length vid >= 2 && String.sub vid 0 2 = "hv"))
    tops;
  (* per-shard gauges surfaced in the registry *)
  let values = Metrics.int_values (Cluster.metrics c) in
  Alcotest.(check (option int)) "reads gauge"
    (Some (Heat.total h ~shard:0 ~kind:Heat.Read))
    (List.assoc_opt "heat.shard0.reads" values);
  Alcotest.(check (option int)) "writes gauge"
    (Some (Heat.total h ~shard:0 ~kind:Heat.Write))
    (List.assoc_opt "heat.shard0.writes" values)

let strip_obs values =
  let prefixed p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  List.filter (fun (name, _) -> not (prefixed "heat." name || prefixed "health." name)) values

(* the tentpole guarantee: heat and health observe, never perturb *)
let test_heat_is_invisible () =
  let base = { Config.default with Config.seed = 29 } in
  let off = mixed base in
  let voff = Metrics.int_values (Cluster.metrics off) in
  Alcotest.(check bool) "committed some" true ((Cluster.counters off).Runtime.tx_committed > 0);
  (* heat alone holds no timer: the ENTIRE registry — engine event counts
     included — matches once heat's own gauges are set aside *)
  let heat_on = mixed { base with Config.enable_heat = true } in
  Alcotest.(check bool) "heat: bit-identical counters" true
    (fingerprint off = fingerprint heat_on);
  Alcotest.(check bool) "heat: registry identical modulo own gauges" true
    (voff = strip_obs (Metrics.int_values (Cluster.metrics heat_on)));
  (* the watchdog runs off one periodic engine event, so the simulator's
     own event-count meta-gauges see that timer; every workload-visible
     instrument still matches bit-for-bit *)
  let both =
    mixed
      {
        base with
        Config.enable_heat = true;
        Config.enable_health = true;
        Config.health_period = 2_500.0;
      }
  in
  Alcotest.(check bool) "health: bit-identical counters" true
    (fingerprint off = fingerprint both);
  let engine_meta = [ "engine.events"; "engine.pending"; "engine.pending_hwm" ] in
  let drop_meta = List.filter (fun (name, _) -> not (List.mem name engine_meta)) in
  Alcotest.(check bool) "health: registry identical modulo own timer" true
    (drop_meta voff = drop_meta (strip_obs (Metrics.int_values (Cluster.metrics both))));
  Alcotest.(check bool) "watchdog actually ran" true
    (Health.checks (Option.get (Cluster.health both)) > 5)

let test_heat_deterministic () =
  let run () =
    let c = mixed (heat_cfg 31) in
    Export.heat_json (Option.get (Cluster.heat c)) ~now:(Cluster.now c)
  in
  Alcotest.(check string) "same seed, same heat map" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Health watchdog: unit-level signal checks *)

let sig_alerts h name =
  List.filter_map
    (fun a -> if a.Health.a_signal = name then Some a.Health.a_severity else None)
    (Health.alerts h)

let test_health_watermark_signal () =
  let config = { Health.default_config with Health.stall_checks = 3 } in
  let h = Health.create ~config () in
  (* no gossip yet: never a stall *)
  for i = 1 to 6 do
    Health.observe h ~now:(float_of_int i) ~watermark:None ~values:[]
  done;
  Alcotest.(check (list string)) "no data, no alerts" []
    (List.map (fun a -> a.Health.a_signal) (Health.alerts h));
  (* frozen watermark: Warn at 3 stalled checks, Crit at 6, one alert each *)
  for i = 7 to 14 do
    Health.observe h ~now:(float_of_int i) ~watermark:(Some "w1") ~values:[]
  done;
  (* recovery fires a single Info *)
  Health.observe h ~now:15.0 ~watermark:(Some "w2") ~values:[];
  Health.observe h ~now:16.0 ~watermark:(Some "w2") ~values:[];
  Alcotest.(check int) "checks counted" 16 (Health.checks h);
  let sevs = List.map Health.severity_name (sig_alerts h "watermark") in
  Alcotest.(check (list string)) "edge-triggered warn/crit/recovery"
    [ "warn"; "crit"; "info" ] sevs

let test_health_queue_trend () =
  let config =
    { Health.default_config with Health.queue_trend_checks = 3; queue_floor = 4 }
  in
  let h = Health.create ~config () in
  let obs i depth =
    Health.observe h ~now:(float_of_int i) ~watermark:None
      ~values:[ ("shard0.queue_depth", depth) ]
  in
  List.iteri obs [ 1; 2; 3; 5 ];
  Alcotest.(check (list string)) "rising above floor warns" [ "warn" ]
    (List.map Health.severity_name (sig_alerts h "queue"));
  obs 4 20;
  Alcotest.(check (list string)) "4x floor escalates" [ "warn"; "crit" ]
    (List.map Health.severity_name (sig_alerts h "queue"));
  obs 5 20;
  (* plateau: no longer strictly rising *)
  Alcotest.(check (list string)) "plateau recovers" [ "warn"; "crit"; "info" ]
    (List.map Health.severity_name (sig_alerts h "queue"))

let test_health_shed_and_late () =
  let h = Health.create () in
  let obs i ~shed ~committed ~late =
    Health.observe h ~now:(float_of_int i) ~watermark:None
      ~values:
        [
          ("flow.shed_deadline", shed);
          ("tx.committed", committed);
          ("client.late_replies", late);
        ]
  in
  obs 1 ~shed:0 ~committed:0 ~late:0;
  obs 2 ~shed:1 ~committed:12 ~late:0;
  (* 1 shed / 13 resolved = 7.7% >= 5% *)
  Alcotest.(check (list string)) "shed warns" [ "warn" ]
    (List.map Health.severity_name (sig_alerts h "shed"));
  obs 3 ~shed:10 ~committed:13 ~late:0;
  (* 9 / 10 resolved this window: far past 2x *)
  Alcotest.(check (list string)) "shed escalates" [ "warn"; "crit" ]
    (List.map Health.severity_name (sig_alerts h "shed"));
  obs 4 ~shed:10 ~committed:30 ~late:1;
  (* sheds stopped; 1 late / 17 commits = 5.9% warns *)
  Alcotest.(check (list string)) "shed recovers" [ "warn"; "crit"; "info" ]
    (List.map Health.severity_name (sig_alerts h "shed"));
  Alcotest.(check (list string)) "late warns" [ "warn" ]
    (List.map Health.severity_name (sig_alerts h "late"))

let test_health_skew_signal () =
  let h = Health.create () in
  let obs i busy =
    Health.observe h ~now:(float_of_int i) ~watermark:None
      ~values:(List.mapi (fun s b -> (Printf.sprintf "util.shard%d.busy_us" s, b)) busy)
  in
  obs 1 [ 0; 0; 0; 0 ];
  obs 2 [ 400; 0; 0; 0 ];
  (* max/mean = 4.0 >= 3.0 *)
  Alcotest.(check (list string)) "one hot shard warns" [ "warn" ]
    (List.map Health.severity_name (sig_alerts h "skew"));
  obs 3 [ 500; 100; 100; 100 ];
  Alcotest.(check (list string)) "balanced window recovers" [ "warn"; "info" ]
    (List.map Health.severity_name (sig_alerts h "skew"));
  let json = Json.parse_exn (Health.to_json h) in
  Alcotest.(check (option (float 0.01))) "json checks"
    (Some 3.0)
    (Option.bind (Json.member "checks" json) Json.to_number)

(* ------------------------------------------------------------------ *)
(* Watchdog against a scripted fault: a crashed gatekeeper (with failure
   detection suppressed) freezes the GC watermark, and the stall alert
   fires — then escalates — strictly after the crash *)

let test_watchdog_detects_watermark_stall () =
  let cfg =
    {
      Config.default with
      Config.enable_health = true;
      Config.health_period = 5_000.0;
      Config.gc_period = 20_000.0;
      Config.failure_timeout = 1.0e9;
      Config.seed = 7;
    }
  in
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  Cluster.run_for c 80_000.0;
  let h = Option.get (Cluster.health c) in
  Alcotest.(check (list string)) "healthy: no stall alerts" []
    (List.map Health.severity_name (sig_alerts h "watermark"));
  let crash_at = Cluster.now c +. 10_000.0 in
  let installed =
    Cluster.install_fault_plan c
      [
        {
          Weaver_sim.Fault.at = crash_at;
          action = Weaver_sim.Fault.Crash (Weaver_sim.Fault.Gatekeeper 0);
        };
      ]
  in
  Alcotest.(check int) "plan installed" 1 installed;
  Cluster.run_for c 400_000.0;
  let wm = List.filter (fun a -> a.Health.a_signal = "watermark") (Health.alerts h) in
  Alcotest.(check (list string)) "warn then crit, edge-triggered"
    [ "warn"; "crit" ]
    (List.map (fun a -> Health.severity_name a.Health.a_severity) wm);
  List.iter
    (fun a ->
      Alcotest.(check bool) "fires after the crash" true (a.Health.a_time > crash_at))
    wm;
  (* the summary report carries the watchdog line *)
  let report = Cluster.report c in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report mentions health" true (contains ~sub:"health:" report)

(* ------------------------------------------------------------------ *)
(* Metrics re-registration regression (satellite): replacing a gauge with
   a gauge is the actor-respawn path and must keep working; shadowing a
   counter or reservoir must raise instead of corrupting fingerprints *)

let test_metrics_reregistration () =
  let m = Metrics.create () in
  Metrics.gauge m "g" (fun () -> 1);
  Metrics.gauge m "g" (fun () -> 2);
  Alcotest.(check (option int)) "gauge over gauge: latest wins" (Some 2)
    (List.assoc_opt "g" (Metrics.int_values m));
  let ctr = Metrics.counter m "c" in
  Metrics.incr ctr;
  Alcotest.check_raises "gauge over counter raises"
    (Invalid_argument "Metrics.gauge: c is already a counter") (fun () ->
      Metrics.gauge m "c" (fun () -> 0));
  ignore (Metrics.reservoir m "r");
  Alcotest.check_raises "gauge over reservoir raises"
    (Invalid_argument "Metrics.gauge: r is already a reservoir") (fun () ->
      Metrics.gauge m "r" (fun () -> 0));
  Alcotest.(check (option int)) "counter untouched" (Some 1)
    (List.assoc_opt "c" (Metrics.int_values m))

let suites =
  [
    ( "heat",
      [
        Alcotest.test_case "sketch exact under capacity" `Quick
          test_sketch_exact_under_capacity;
        Alcotest.test_case "sketch eviction inherits min" `Quick
          test_sketch_eviction_inherits_min;
        Alcotest.test_case "sketch deterministic tie-breaks" `Quick
          test_sketch_tie_breaks_deterministic;
        Alcotest.test_case "sketch error bounds" `Quick test_sketch_error_bounds;
        Alcotest.test_case "heat ranges nest in shards" `Quick
          test_ranges_nest_in_shards;
        Alcotest.test_case "cluster ranges follow shards" `Quick
          test_cluster_ranges_follow_shards;
        Alcotest.test_case "decay halves per half-life" `Quick
          test_decay_halves_per_half_life;
        Alcotest.test_case "kinds tracked separately" `Quick
          test_kinds_and_cross_skips_sketch;
        Alcotest.test_case "skew ratio" `Quick test_skew_ratio;
        Alcotest.test_case "cluster wiring" `Quick test_cluster_wiring;
        Alcotest.test_case "heat never perturbs (determinism)" `Quick
          test_heat_is_invisible;
        Alcotest.test_case "heat map is deterministic" `Quick test_heat_deterministic;
      ] );
    ( "health",
      [
        Alcotest.test_case "watermark stall signal" `Quick test_health_watermark_signal;
        Alcotest.test_case "queue growth trend" `Quick test_health_queue_trend;
        Alcotest.test_case "shed and late rates" `Quick test_health_shed_and_late;
        Alcotest.test_case "shard skew signal" `Quick test_health_skew_signal;
        Alcotest.test_case "watchdog catches scripted stall" `Slow
          test_watchdog_detects_watermark_stall;
        Alcotest.test_case "metrics re-registration" `Quick test_metrics_reregistration;
      ] );
  ]
