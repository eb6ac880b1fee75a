(* Tests for the time-dimension observability layer: timeline sampling
   (including the determinism guarantee), utilization/queue-depth gauges,
   the Chrome trace export parsed back with the minimal JSON reader, and
   the slow-request log. *)

open Weaver_core
module Timeline = Weaver_obs.Timeline
module Export = Weaver_obs.Export
module Slowlog = Weaver_obs.Slowlog
module Trace = Weaver_obs.Trace
module Metrics = Weaver_obs.Metrics
module Json = Weaver_util.Json
module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net

(* ------------------------------------------------------------------ *)
(* Timeline ring buffer *)

let test_timeline_basic () =
  let tl = Timeline.create ~capacity:8 in
  for i = 1 to 5 do
    Timeline.record tl ~now:(float_of_int (i * 100)) [ ("a", i); ("b", i * 10) ]
  done;
  Alcotest.(check int) "length" 5 (Timeline.length tl);
  Alcotest.(check (list string)) "names" [ "a"; "b" ] (Timeline.names tl);
  Alcotest.(check (list (pair (float 0.0) int)))
    "series a"
    [ (100.0, 1); (200.0, 2); (300.0, 3); (400.0, 4); (500.0, 5) ]
    (Timeline.series tl "a");
  Alcotest.(check (list (pair (float 0.0) int))) "missing" [] (Timeline.series tl "zz")

let test_timeline_wraps () =
  let tl = Timeline.create ~capacity:3 in
  for i = 1 to 10 do
    Timeline.record tl ~now:(float_of_int i) [ ("x", i) ]
  done;
  Alcotest.(check int) "capped" 3 (Timeline.length tl);
  Alcotest.(check (list (pair (float 0.0) int)))
    "keeps newest, oldest first"
    [ (8.0, 8); (9.0, 9); (10.0, 10) ]
    (Timeline.series tl "x")

let test_timeline_rates () =
  let tl = Timeline.create ~capacity:8 in
  (* 1000 µs apart; counter climbs 5 per sample -> 5000/s *)
  List.iter
    (fun (t, v) -> Timeline.record tl ~now:t [ ("c", v) ])
    [ (1_000.0, 0); (2_000.0, 5); (3_000.0, 10) ];
  Alcotest.(check (list (pair (float 0.01) (float 0.01))))
    "per-second rates"
    [ (2_000.0, 5_000.0); (3_000.0, 5_000.0) ]
    (Timeline.rates tl "c")

let test_timeline_rates_edges () =
  let tl = Timeline.create ~capacity:4 in
  let rates_of t = Timeline.rates t "c" in
  Alcotest.(check (list (pair (float 0.01) (float 0.01)))) "empty" [] (rates_of tl);
  Timeline.record tl ~now:1_000.0 [ ("c", 5) ];
  Alcotest.(check (list (pair (float 0.01) (float 0.01))))
    "single sample has no window" [] (rates_of tl);
  (* a coincident sample makes a zero-width window: skipped, not divided *)
  Timeline.record tl ~now:1_000.0 [ ("c", 7) ];
  Alcotest.(check (list (pair (float 0.01) (float 0.01))))
    "zero-width window skipped" [] (rates_of tl);
  (* a gauge can fall: signed delta, not clamped *)
  Timeline.record tl ~now:2_000.0 [ ("c", 2) ];
  Alcotest.(check (list (pair (float 0.01) (float 0.01))))
    "falling gauge is signed"
    [ (2_000.0, -5_000.0) ]
    (rates_of tl);
  (* history longer than the ring: only the surviving windows remain *)
  let tl2 = Timeline.create ~capacity:2 in
  for i = 1 to 6 do
    Timeline.record tl2 ~now:(float_of_int i *. 1_000.0) [ ("c", i * 10) ]
  done;
  Alcotest.(check (list (pair (float 0.01) (float 0.01))))
    "window wider than ring"
    [ (6_000.0, 10_000.0) ]
    (rates_of tl2)

(* ------------------------------------------------------------------ *)
(* Sampling in a live cluster, and the determinism guarantee *)

let mixed_workload cfg =
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  let client = Cluster.client c in
  let rng = Weaver_util.Xrand.create ~seed:99 () in
  let vids =
    List.init 20 (fun i ->
        let tx = Client.Tx.begin_ client in
        let v = Client.Tx.create_vertex tx ~id:(Printf.sprintf "d%d" i) () in
        (match Client.commit client tx with Ok () -> () | Error e -> failwith e);
        v)
  in
  let vertices = Array.of_list vids in
  for _ = 1 to 10 do
    let tx = Client.Tx.begin_ client in
    let src = Weaver_util.Xrand.pick rng vertices in
    ignore (Client.Tx.create_edge tx ~src ~dst:(Weaver_util.Xrand.pick rng vertices));
    ignore (Client.commit client tx)
  done;
  for _ = 1 to 5 do
    ignore
      (Client.run_program client ~prog:"get_edges" ~params:Progval.Null
         ~starts:[ Weaver_util.Xrand.pick rng vertices ]
         ())
  done;
  Cluster.run_for c 20_000.0;
  c

let fingerprint c =
  let ctr = Cluster.counters c in
  let rt = Cluster.runtime c in
  ( ( ctr.Runtime.tx_committed,
      ctr.Runtime.tx_aborted,
      ctr.Runtime.tx_invalid,
      ctr.Runtime.progs_completed ),
    ( Net.messages_sent rt.Runtime.net,
      Net.messages_delivered rt.Runtime.net,
      ctr.Runtime.oracle_consults,
      ctr.Runtime.nop_msgs ) )

(* the tentpole guarantee: sampling observes, never perturbs — identical
   seed with and without the timeline produces bit-identical counters *)
let test_sampling_is_invisible () =
  let base = { Config.default with Config.seed = 21 } in
  let off = mixed_workload base in
  let on =
    mixed_workload
      {
        base with
        Config.enable_timeline = true;
        Config.timeline_period = 500.0;
      }
  in
  Alcotest.(check bool) "committed some" true ((Cluster.counters off).Runtime.tx_committed > 0);
  Alcotest.(check bool)
    "bit-identical counters" true
    (fingerprint off = fingerprint on);
  let tl = Option.get (Cluster.timeline on) in
  Alcotest.(check bool) "sampler actually ran" true (Timeline.length tl > 10);
  Alcotest.(check bool)
    "tx series is monotone" true
    (let s = List.map snd (Timeline.series tl "tx.committed") in
     List.sort compare s = s)

let test_utilization_gauges () =
  let c =
    mixed_workload
      { Config.default with Config.enable_timeline = true; Config.timeline_period = 1_000.0 }
  in
  let values = Metrics.int_values (Cluster.metrics c) in
  let v name =
    match List.assoc_opt name values with
    | Some v -> v
    | None -> Alcotest.failf "gauge %s missing" name
  in
  Alcotest.(check bool) "gk0 accumulated busy time" true (v "util.gk0.busy_us" > 0);
  Alcotest.(check bool) "shard busy gauge present" true (v "util.shard0.busy_us" >= 0);
  Alcotest.(check bool) "queue depth gauge present" true (v "util.shard0.queue_depth" >= 0);
  Alcotest.(check bool) "engine hwm positive" true (v "engine.pending_hwm" > 0);
  Alcotest.(check bool) "net hwm positive" true (v "net.in_flight_hwm" > 0);
  Alcotest.(check bool) "channel hwm bounded by net hwm" true
    (v "net.channel_hwm" <= v "net.in_flight_hwm");
  Alcotest.(check bool) "in-flight bounded by hwm" true
    (v "net.in_flight" <= v "net.in_flight_hwm")

let test_net_in_flight_drains () =
  let engine = Engine.create ~seed:3 () in
  let net = Net.create engine ~latency:(Net.uniform_latency ~base:50.0 ~jitter:0.0) in
  Net.register net 1 (fun ~src:_ _ -> ());
  for _ = 1 to 5 do
    Net.send net ~src:0 ~dst:1 "m"
  done;
  Alcotest.(check int) "five in flight" 5 (Net.in_flight net);
  Alcotest.(check int) "channel load" 5 (Net.channel_in_flight net ~src:0 ~dst:1);
  Engine.run engine;
  Alcotest.(check int) "drained" 0 (Net.in_flight net);
  Alcotest.(check int) "channel drained" 0 (Net.channel_in_flight net ~src:0 ~dst:1);
  Alcotest.(check int) "hwm kept" 5 (Net.in_flight_high_water net);
  Alcotest.(check int) "channel hwm kept" 5 (Net.channel_high_water net)

(* ------------------------------------------------------------------ *)
(* Chrome trace export, parsed back with the minimal JSON reader *)

let traced_cluster () =
  let cfg = { Config.default with Config.enable_tracing = true } in
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  let client = Cluster.client c in
  let traces = ref [] in
  let tx = Client.Tx.begin_ client in
  let a = Client.Tx.create_vertex tx ~id:"xa" () in
  let b = Client.Tx.create_vertex tx ~id:"xb" () in
  ignore (Client.Tx.create_edge tx ~src:a ~dst:b);
  (match Client.commit client tx with Ok () -> () | Error e -> failwith e);
  traces := Client.last_request_id client :: !traces;
  (match
     Client.run_program client ~prog:"get_edges" ~params:Progval.Null ~starts:[ a ] ()
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  traces := Client.last_request_id client :: !traces;
  Cluster.run_for c 10_000.0;
  (c, List.rev !traces)

let test_chrome_export_parses_back () =
  let c, traces = traced_cluster () in
  let tr = Option.get (Cluster.request_tracer c) in
  let doc =
    Export.chrome_trace tr ~traces ~actor_of_addr:(Cluster.actor_of_addr c) ()
  in
  let json =
    match Json.parse doc with
    | Ok v -> v
    | Error e -> Alcotest.failf "export is not valid JSON: %s" e
  in
  let events = Option.get (Option.bind (Json.member "traceEvents" json) Json.to_list) in
  let ph e = Option.value ~default:"" (Json.string_member "ph" e) in
  let metas = List.filter (fun e -> ph e = "M") events in
  let spans = List.filter (fun e -> ph e = "X") events in
  let flows_s = List.filter (fun e -> ph e = "s") events in
  let flows_f = List.filter (fun e -> ph e = "f") events in
  (* pid -> actor name from the process_name metadata events *)
  let actor_of_pid =
    List.filter_map
      (fun e ->
        match
          ( Json.number_member "pid" e,
            Option.bind (Json.member "args" e) (Json.string_member "name") )
        with
        | Some pid, Some name -> Some (int_of_float pid, name)
        | _ -> None)
      metas
  in
  (* at least one span per instrumented actor kind on the request path *)
  let span_actors =
    List.filter_map
      (fun e ->
        Option.bind (Json.number_member "pid" e) (fun pid ->
            List.assoc_opt (int_of_float pid) actor_of_pid))
      spans
  in
  let has prefix =
    List.exists (fun a -> String.length a >= String.length prefix
                          && String.sub a 0 (String.length prefix) = prefix)
      span_actors
  in
  Alcotest.(check bool) "gatekeeper spans" true (has "gk");
  Alcotest.(check bool) "store spans" true (has "store");
  Alcotest.(check bool) "shard spans" true (has "shard");
  (* every span's pid resolves to a named process *)
  List.iter
    (fun e ->
      let pid = int_of_float (Option.get (Json.number_member "pid" e)) in
      Alcotest.(check bool) "span pid named" true
        (List.mem_assoc pid actor_of_pid))
    spans;
  (* flow events mirror the message ledger: one s/f pair per message *)
  let ledger = List.fold_left (fun acc id -> acc + Trace.message_count tr id) 0 traces in
  Alcotest.(check bool) "ledger nonempty" true (ledger > 0);
  Alcotest.(check int) "one flow start per message" ledger (List.length flows_s);
  Alcotest.(check int) "one flow finish per message" ledger (List.length flows_f);
  let ids l =
    List.sort compare
      (List.filter_map (fun e -> Option.map int_of_float (Json.number_member "id" e)) l)
  in
  Alcotest.(check (list int)) "flow ids pair up" (ids flows_s) (ids flows_f);
  (* spans carry positive-or-zero durations and their trace id as tid *)
  List.iter
    (fun e ->
      let dur = Option.get (Json.number_member "dur" e) in
      Alcotest.(check bool) "dur >= 0" true (dur >= 0.0);
      let tid = int_of_float (Option.get (Json.number_member "tid" e)) in
      Alcotest.(check bool) "tid is a requested trace" true (List.mem tid traces))
    spans

let test_timeline_export_round_trip () =
  let tl = Timeline.create ~capacity:4 in
  Timeline.record tl ~now:100.0 [ ("a", 1); ("b", 2) ];
  Timeline.record tl ~now:200.0 [ ("a", 3) ];
  let json = Json.parse_exn (Export.timeline_json tl) in
  let times = Option.get (Option.bind (Json.member "times_us" json) Json.to_list) in
  Alcotest.(check int) "two samples" 2 (List.length times);
  let series = Option.get (Json.member "series" json) in
  let a = Option.get (Option.bind (Json.member "a" series) Json.to_list) in
  Alcotest.(check (list (float 0.01))) "series a"
    [ 1.0; 3.0 ]
    (List.map (fun v -> Option.get (Json.to_number v)) a);
  (match Option.get (Option.bind (Json.member "b" series) Json.to_list) with
  | [ Json.Num 2.0; Json.Null ] -> ()
  | _ -> Alcotest.fail "series b should be [2, null]");
  let csv = Export.timeline_csv tl in
  Alcotest.(check string) "csv" "time_us,a,b\n100.0,1,2\n200.0,3,\n" csv

(* hostile instrument names — quotes, commas, backslashes (heat gauges can
   embed vertex handles) — must survive every exporter *)
let test_export_escapes_hostile_names () =
  let evil = "evil\"name,with\\stuff" in
  let tl = Timeline.create ~capacity:4 in
  Timeline.record tl ~now:100.0 [ (evil, 7); ("ok", 1) ];
  let json = Json.parse_exn (Export.timeline_json tl) in
  let series = Option.get (Json.member "series" json) in
  (match Option.get (Option.bind (Json.member evil series) Json.to_list) with
  | [ Json.Num 7.0 ] -> ()
  | _ -> Alcotest.fail "hostile series lost in JSON");
  (* CSV: RFC 4180 quoting, embedded quotes doubled *)
  Alcotest.(check string) "benign cell untouched" "a.b_c" (Export.csv_cell "a.b_c");
  Alcotest.(check string) "hostile cell quoted" "\"evil\"\"name,with\\stuff\""
    (Export.csv_cell evil);
  Alcotest.(check string) "csv header + row"
    ("time_us," ^ Export.csv_cell evil ^ ",ok\n100.0,7,1\n")
    (Export.timeline_csv tl);
  (* counter tracks parse back; unknown names are ignored *)
  Timeline.record tl ~now:200.0 [ (evil, 9); ("ok", 2) ];
  let doc = Json.parse_exn (Export.counter_tracks tl ~names:[ evil; "absent" ]) in
  let events = Option.get (Option.bind (Json.member "traceEvents" doc) Json.to_list) in
  let counters =
    List.filter (fun e -> Json.string_member "ph" e = Some "C") events
  in
  Alcotest.(check int) "one C event per sample" 2 (List.length counters);
  List.iter
    (fun e ->
      Alcotest.(check (option string)) "track name" (Some evil) (Json.string_member "name" e))
    counters;
  Alcotest.(check (list (float 0.01))) "track values" [ 7.0; 9.0 ]
    (List.map
       (fun e ->
         Option.get
           (Option.bind (Json.member "args" e) (Json.number_member "value")))
       counters)

let test_heat_export_escapes () =
  let h = Weaver_obs.Heat.create ~shards:1 ~k:4 ~ranges:4 ~half_life:1_000.0 in
  Weaver_obs.Heat.touch h ~shard:0 ~kind:Weaver_obs.Heat.Write ~now:0.0 "v\"1\\x";
  let json = Json.parse_exn (Export.heat_json h ~now:0.0) in
  let per_shard = Option.get (Option.bind (Json.member "per_shard" json) Json.to_list) in
  let top = Option.get (Option.bind (Json.member "top" (List.hd per_shard)) Json.to_list) in
  Alcotest.(check (option string)) "hostile vid round-trips"
    (Some "v\"1\\x")
    (Json.string_member "vid" (List.hd top));
  let csv = Export.heat_csv h ~now:0.0 in
  Alcotest.(check bool) "heat csv has header+ranges" true
    (List.length (String.split_on_char '\n' (String.trim csv)) = 5)

(* ------------------------------------------------------------------ *)
(* Slow-request log *)

let entry ?(phases = []) trace kind start stop =
  {
    Slowlog.e_trace = trace;
    e_kind = kind;
    e_start = start;
    e_stop = stop;
    e_result = "ok";
    e_phases = phases;
  }

let test_slowlog_ranks_and_caps () =
  let log = Slowlog.create ~capacity:3 in
  List.iter
    (fun (id, d) -> Slowlog.record log (entry id "tx" 0.0 d))
    [ (1, 50.0); (2, 200.0); (3, 10.0); (4, 120.0); (5, 80.0) ];
  Alcotest.(check int) "recorded all" 5 (Slowlog.recorded log);
  Alcotest.(check (list int)) "keeps the 3 slowest, slowest first"
    [ 2; 4; 5 ]
    (List.map (fun e -> e.Slowlog.e_trace) (Slowlog.entries log));
  Alcotest.(check (float 0.01)) "entry threshold" 80.0 (Slowlog.threshold log);
  let json = Json.parse_exn (Slowlog.to_json log) in
  let entries = Option.get (Option.bind (Json.member "entries" json) Json.to_list) in
  Alcotest.(check int) "json entries" 3 (List.length entries);
  Alcotest.(check (option (float 0.01))) "json duration"
    (Some 200.0)
    (Json.number_member "duration_us" (List.hd entries))

(* The list-rebuilding log [Slowlog] replaced: insert, then truncate to
   capacity on every record. The O(1)-reject version must retain the same
   entries in the same order, ties included. *)
module Reference_slowlog = struct
  type t = { capacity : int; mutable entries : Slowlog.entry list }

  let rec insert e = function
    | [] -> [ e ]
    | e' :: _ as rest when Slowlog.duration e >= Slowlog.duration e' -> e :: rest
    | e' :: rest -> e' :: insert e rest

  let record t e =
    let merged = insert e t.entries in
    t.entries <-
      (if List.length merged > t.capacity then
         List.filteri (fun i _ -> i < t.capacity) merged
       else merged)

  let threshold t =
    if List.length t.entries < t.capacity then 0.0
    else match List.rev t.entries with e :: _ -> Slowlog.duration e | [] -> 0.0
end

let prop_slowlog_matches_reference =
  QCheck.Test.make ~name:"slowlog retains what the list rebuild retained" ~count:500
    QCheck.(
      pair
        (make Gen.(oneof [ return 1; int_range 2 6 ]))
        (* few distinct durations, so ties are common *)
        (list_of_size (Gen.int_range 0 40) (int_range 0 6)))
    (fun (capacity, durations) ->
      let log = Slowlog.create ~capacity in
      let reference = { Reference_slowlog.capacity; entries = [] } in
      let ids es = List.map (fun e -> e.Slowlog.e_trace) es in
      List.for_all
        (fun (i, d) ->
          let e = entry i "tx" 10.0 (10.0 +. float_of_int d) in
          Slowlog.record log e;
          Reference_slowlog.record reference e;
          ids (Slowlog.entries log) = ids reference.Reference_slowlog.entries
          && Slowlog.threshold log = Reference_slowlog.threshold reference)
        (List.mapi (fun i d -> (i, d)) durations)
      && Slowlog.recorded log = List.length durations)

let test_slowlog_tie_displaces_fastest () =
  (* an entry as slow as the fastest retained one ranks ahead of it, so
     it displaces it from a full log *)
  let log = Slowlog.create ~capacity:1 in
  Slowlog.record log (entry 1 "tx" 0.0 50.0);
  Slowlog.record log (entry 2 "tx" 0.0 50.0);
  Slowlog.record log (entry 3 "tx" 0.0 40.0);
  Alcotest.(check (list int)) "newest of the tie kept" [ 2 ]
    (List.map (fun e -> e.Slowlog.e_trace) (Slowlog.entries log))

let test_slowlog_integration () =
  let c, traces = traced_cluster () in
  let log = Cluster.slow_log c in
  Alcotest.(check bool) "requests recorded" true (Slowlog.recorded log >= 2);
  let es = Slowlog.entries log in
  List.iter
    (fun e ->
      Alcotest.(check bool) "positive duration" true (Slowlog.duration e > 0.0);
      Alcotest.(check bool) "result ok" true (e.Slowlog.e_result = "ok"))
    es;
  (* with tracing on, entries carry per-phase breakdowns *)
  let traced_entries =
    List.filter (fun e -> List.mem e.Slowlog.e_trace traces) es
  in
  Alcotest.(check bool) "traced entries present" true (traced_entries <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "phases present" true (e.Slowlog.e_phases <> []);
      (* phases are sorted by total duration, descending *)
      let ds = List.map snd e.Slowlog.e_phases in
      Alcotest.(check bool) "phases descending" true
        (List.sort (fun a b -> Float.compare b a) ds = ds))
    traced_entries

(* ------------------------------------------------------------------ *)
(* Crash-induced dip and recovery, in miniature (the bench experiment's
   acceptance shape, cheap enough for the suite) *)

let test_crash_dip_and_recovery () =
  let cfg =
    {
      Config.default with
      Config.enable_timeline = true;
      Config.timeline_period = 20_000.0;
      Config.n_shards = 2;
      Config.seed = 13;
    }
  in
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  let rng = Weaver_util.Xrand.create ~seed:13 () in
  let g =
    Weaver_workloads.Graphgen.uniform ~rng ~prefix:"cd" ~vertices:300 ~edges:1_200 ()
  in
  Weaver_workloads.Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  let vertices = Array.of_list (Weaver_workloads.Graphgen.vertex_ids g) in
  let crash_at = 250_000.0 in
  let rt = Cluster.runtime c in
  Weaver_sim.Engine.schedule rt.Runtime.engine
    ~delay:(crash_at -. Cluster.now c)
    (fun () -> Cluster.kill_shard c 0);
  ignore
    (Weaver_workloads.Tao.Driver.run c ~vertices ~clients:10 ~duration:800_000.0 ());
  let tl = Option.get (Cluster.timeline c) in
  let ops =
    let progs = Timeline.rates tl "prog.completed" in
    List.map
      (fun (t, v) ->
        (t, v +. Option.value ~default:0.0 (List.assoc_opt t progs)))
      (Timeline.rates tl "tx.committed")
  in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  let pre =
    mean (List.filter_map (fun (t, v) -> if t < crash_at then Some v else None) ops)
  in
  let dip =
    List.fold_left Float.min Float.infinity
      (List.filter_map
         (fun (t, v) ->
           if t >= crash_at && t <= crash_at +. 250_000.0 then Some v else None)
         ops)
  in
  let post =
    mean
      (List.filter_map
         (fun (t, v) -> if t > crash_at +. 400_000.0 then Some v else None)
         ops)
  in
  Alcotest.(check bool) "recovered" true ((Cluster.counters c).Runtime.recoveries >= 1);
  Alcotest.(check bool) "throughput dips after the crash" true (dip < pre /. 2.0);
  Alcotest.(check bool) "throughput recovers" true (post > dip +. (pre /. 4.0))

let suites =
  [
    ( "timeline",
      [
        Alcotest.test_case "ring basics" `Quick test_timeline_basic;
        Alcotest.test_case "ring wraps" `Quick test_timeline_wraps;
        Alcotest.test_case "windowed rates" `Quick test_timeline_rates;
        Alcotest.test_case "rate edge cases" `Quick test_timeline_rates_edges;
        Alcotest.test_case "sampling never perturbs (determinism)" `Quick
          test_sampling_is_invisible;
        Alcotest.test_case "utilization gauges" `Quick test_utilization_gauges;
        Alcotest.test_case "net in-flight accounting" `Quick test_net_in_flight_drains;
        Alcotest.test_case "crash dip and recovery" `Slow test_crash_dip_and_recovery;
      ] );
    ( "export",
      [
        Alcotest.test_case "chrome trace parses back" `Quick
          test_chrome_export_parses_back;
        Alcotest.test_case "timeline json/csv round trip" `Quick
          test_timeline_export_round_trip;
        Alcotest.test_case "hostile names escape everywhere" `Quick
          test_export_escapes_hostile_names;
        Alcotest.test_case "heat export escapes" `Quick test_heat_export_escapes;
      ] );
    ( "slowlog",
      [
        Alcotest.test_case "ranks and caps" `Quick test_slowlog_ranks_and_caps;
        Alcotest.test_case "tie displaces fastest" `Quick test_slowlog_tie_displaces_fastest;
        QCheck_alcotest.to_alcotest prop_slowlog_matches_reference;
        Alcotest.test_case "cluster integration" `Quick test_slowlog_integration;
      ] );
  ]
