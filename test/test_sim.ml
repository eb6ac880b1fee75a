(* Tests for the discrete-event engine and the FIFO network. *)

open Weaver_sim

let test_engine_time_advances () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:10.0 (fun () -> fired := (Engine.now e, 'a') :: !fired);
  Engine.schedule e ~delay:5.0 (fun () -> fired := (Engine.now e, 'b') :: !fired);
  Engine.run e;
  Alcotest.(check (list (pair (float 1e-9) char)))
    "order and times"
    [ (10.0, 'a'); (5.0, 'b') ]
    !fired

let test_engine_fifo_ties () =
  (* events at the same instant fire in scheduling order *)
  let e = Engine.create () in
  let fired = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> fired := i :: !fired)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "tie order" [ 1; 2; 3; 4; 5 ] (List.rev !fired)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "outer" :: !log;
      Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "final time" 2.0 (Engine.now e)

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count)
  done;
  Engine.run ~until:5.0 e;
  Alcotest.(check int) "only first five" 5 !count;
  Alcotest.(check (float 1e-9)) "clock at limit" 5.0 (Engine.now e);
  Alcotest.(check int) "rest pending" 5 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "all fired" 10 !count

let test_engine_every () =
  let e = Engine.create () in
  let ticks = ref 0 in
  Engine.every e ~period:10.0 (fun () ->
      incr ticks;
      !ticks < 4);
  Engine.run e;
  Alcotest.(check int) "stopped by predicate" 4 !ticks;
  Alcotest.(check (float 1e-9)) "time of last tick" 40.0 (Engine.now e)

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~delay:(-5.0) (fun () -> fired := true);
  Engine.run e;
  Alcotest.(check bool) "fired at t=0" true !fired;
  Alcotest.(check (float 1e-9)) "clock" 0.0 (Engine.now e)

let test_engine_schedule_at_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:10.0 (fun () ->
      Engine.schedule_at e ~time:3.0 (fun () ->
          Alcotest.(check (float 1e-9)) "clamped to now" 10.0 (Engine.now e)));
  Engine.run e

let test_engine_every_nonpositive () =
  (* regression: this used to be an [assert], which both compiles away
     under -noassert and reports a source location instead of the actual
     contract — a zero period would spin a zero-delay event loop forever *)
  let e = Engine.create () in
  Alcotest.check_raises "zero period"
    (Invalid_argument "Engine.every: period must be > 0") (fun () ->
      Engine.every e ~period:0.0 (fun () -> true));
  Alcotest.check_raises "negative period"
    (Invalid_argument "Engine.every: period must be > 0") (fun () ->
      Engine.every e ~period:(-3.0) (fun () -> true));
  Alcotest.(check int) "nothing scheduled" 0 (Engine.pending e)

let test_engine_counters () =
  let e = Engine.create () in
  for _ = 1 to 3 do
    Engine.schedule e ~delay:1.0 (fun () -> ())
  done;
  Alcotest.(check int) "pending" 3 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "processed" 3 (Engine.events_processed e);
  Alcotest.(check int) "pending zero" 0 (Engine.pending e)

let test_net_delivery () =
  let e = Engine.create () in
  let net = Net.create e ~latency:(Net.uniform_latency ~base:100.0 ~jitter:0.0) in
  let got = ref [] in
  Net.register net 1 (fun ~src msg -> got := (src, msg, Engine.now e) :: !got);
  Net.send net ~src:0 ~dst:1 "hello";
  Engine.run e;
  Alcotest.(check int) "one message" 1 (List.length !got);
  let src, msg, time = List.hd !got in
  Alcotest.(check int) "src" 0 src;
  Alcotest.(check string) "payload" "hello" msg;
  Alcotest.(check (float 1e-9)) "latency applied" 100.0 time

let test_net_fifo_per_channel () =
  (* with jittered latency, per-channel FIFO must still hold *)
  let e = Engine.create ~seed:99 () in
  let net = Net.create e ~latency:(Net.uniform_latency ~base:10.0 ~jitter:500.0) in
  let got = ref [] in
  Net.register net 1 (fun ~src:_ msg -> got := msg :: !got);
  for i = 1 to 100 do
    Net.send net ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO order" (List.init 100 (fun i -> i + 1)) (List.rev !got)

let test_net_fifo_independent_channels () =
  let e = Engine.create ~seed:5 () in
  let net = Net.create e ~latency:(Net.uniform_latency ~base:10.0 ~jitter:300.0) in
  let per_src = Hashtbl.create 4 in
  Net.register net 9 (fun ~src msg ->
      let prev = try Hashtbl.find per_src src with Not_found -> [] in
      Hashtbl.replace per_src src (msg :: prev));
  for i = 1 to 50 do
    Net.send net ~src:0 ~dst:9 i;
    Net.send net ~src:1 ~dst:9 i
  done;
  Engine.run e;
  let expect = List.init 50 (fun i -> i + 1) in
  Alcotest.(check (list int)) "src 0 FIFO" expect (List.rev (Hashtbl.find per_src 0));
  Alcotest.(check (list int)) "src 1 FIFO" expect (List.rev (Hashtbl.find per_src 1))

let test_net_dead_endpoint_drops () =
  let e = Engine.create () in
  let net = Net.create e ~latency:Net.local_latency in
  let got = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr got);
  Net.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Net.set_alive net 1 false;
  Net.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "dead endpoint drops" 1 !got;
  Net.set_alive net 1 true;
  Net.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "revived endpoint receives" 2 !got

let test_net_inflight_to_crashed_dropped () =
  let e = Engine.create () in
  let net = Net.create e ~latency:(Net.uniform_latency ~base:100.0 ~jitter:0.0) in
  let got = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr got);
  Net.send net ~src:0 ~dst:1 ();
  (* crash before delivery time *)
  Engine.schedule e ~delay:50.0 (fun () -> Net.set_alive net 1 false);
  Engine.run e;
  Alcotest.(check int) "in-flight dropped" 0 !got

let test_net_dead_sender_drops () =
  let e = Engine.create () in
  let net = Net.create e ~latency:Net.local_latency in
  let got = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr got);
  Net.register net 0 (fun ~src:_ _ -> ());
  Net.set_alive net 0 false;
  Net.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "dead sender drops" 0 !got

let test_net_counters () =
  let e = Engine.create () in
  let net = Net.create e ~latency:Net.local_latency in
  Net.register net 1 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:1 ();
  Net.send net ~src:0 ~dst:2 ();
  (* dst 2 unregistered *)
  Engine.run e;
  Alcotest.(check int) "sent" 2 (Net.messages_sent net);
  Alcotest.(check int) "delivered" 1 (Net.messages_delivered net)

let test_net_channels_released_after_drain () =
  (* regression: channel records (FIFO floor + mailbox) used to accumulate
     forever, one per (src, dst) pair ever used — unbounded growth on
     workloads with many transient clients *)
  let e = Engine.create ~seed:3 () in
  let net = Net.create e ~latency:(Net.uniform_latency ~base:50.0 ~jitter:100.0) in
  Net.register net 1 (fun ~src:_ _ -> ());
  Net.register net 2 (fun ~src:_ _ -> ());
  for i = 1 to 20 do
    Net.send net ~src:0 ~dst:1 i;
    Net.send net ~src:1 ~dst:2 i;
    Net.send net ~src:2 ~dst:1 i
  done;
  Alcotest.(check bool) "channels tracked while in flight" true
    (Net.channels_tracked net > 0);
  Engine.run e;
  Alcotest.(check int) "all delivered" 60 (Net.messages_delivered net);
  Alcotest.(check int) "no channel state after drain" 0 (Net.channels_tracked net);
  (* the drop path at a dead destination must release channel state too *)
  Net.set_alive net 2 false;
  Net.send net ~src:0 ~dst:2 99;
  Engine.run e;
  Alcotest.(check int) "drop path releases channel" 0 (Net.channels_tracked net)

(* Minor words one send+deliver allocates, over [n] messages sent in
   bursts of [burst] from 0 to 1 (each burst drained before the next), on
   a network warmed up the same way first. *)
let words_per_message ~burst ~n =
  let e = Engine.create ~seed:1 () in
  let net = Net.create e ~latency:Net.local_latency in
  Net.register net 1 (fun ~src:_ _ -> ());
  let rounds k =
    for _ = 1 to k / burst do
      for i = 1 to burst do
        Net.send net ~src:0 ~dst:1 i
      done;
      Engine.run e
    done
  in
  (* warm-up: grow the engine arrays and the channel tables *)
  rounds (max burst 1_000);
  let before = Gc.minor_words () in
  rounds n;
  (Gc.minor_words () -. before) /. float_of_int n

let test_net_send_allocation_budget () =
  (* pin the per-send transient allocation so it cannot silently creep
     back: a channel record, its mailbox and its delivery closure are
     pooled, so neither a busy channel nor one that drains after every
     message (a client's single request in flight, a gatekeeper->shard
     channel between NOPs) allocates more than the mailbox cell, the
     latency draw and the delivery time *)
  List.iter
    (fun (case, burst, budget) ->
      let words = words_per_message ~burst ~n:10_000 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f minor words per send+deliver within %.0f" case words budget)
        true (words <= budget))
    [ ("burst of 10000", 10_000, 14.0); ("one in flight", 1, 14.0) ]

let test_net_negative_address () =
  let e = Engine.create () in
  let net = Net.create e ~latency:Net.local_latency in
  let got = ref [] in
  Net.register net 1 (fun ~src m -> got := (src, m) :: !got);
  Alcotest.check_raises "register" (Invalid_argument "Net.register: negative address")
    (fun () -> Net.register net (-1) (fun ~src:_ _ -> ()));
  Alcotest.check_raises "send from" (Invalid_argument "Net.send: negative address")
    (fun () -> Net.send net ~src:(-2) ~dst:1 "x");
  Alcotest.check_raises "send to" (Invalid_argument "Net.send: negative address")
    (fun () -> Net.send net ~src:0 ~dst:(-1) "x");
  Alcotest.(check bool) "negative address is not alive" false (Net.is_alive net (-1));
  Alcotest.(check int) "no channel" 0 (Net.channel_in_flight net ~src:(-1) ~dst:1);
  Alcotest.(check int) "rejected sends never counted" 0 (Net.messages_sent net);
  (* unregistered non-negative senders, however far beyond the tables,
     still reach live endpoints *)
  Net.send net ~src:0 ~dst:1 "near";
  Net.send net ~src:5_000 ~dst:1 "far";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "unregistered senders delivered"
    [ (0, "near"); (5_000, "far") ]
    (List.sort compare !got)

(* A seeded, randomized send program over many endpoints, summarized by a
   digest of everything it observed: each delivery's time bits, source,
   destination and payload, in order, then the counters. Its senders
   include unregistered addresses, its destinations ones that die and
   revive and ones never registered, latency and link factors change as it
   runs, handlers send from inside deliveries (back on the same channel
   too), and addresses reach well beyond any table's starting size. The
   expected digest was recorded on the hashtable-keyed network this one
   replaced, so a change to the net's data structures must leave it
   exactly as it is. *)
let net_program_digest ~seed =
  let e = Engine.create ~seed () in
  let latency rng ~src ~dst =
    (if (src + dst) mod 3 = 0 then 30.0 else 5.0)
    +. Weaver_util.Xrand.float rng 120.0
  in
  let net = Net.create e ~latency in
  let rng = Weaver_util.Xrand.create ~seed:(seed * 7919) () in
  let pick n = Weaver_util.Xrand.int rng n in
  let registered = [| 0; 1; 2; 3; 5; 8; 13; 40; 63; 64; 65; 200; 1_023; 1_500 |] in
  let unregistered = [| 4; 7; 100; 2_000 |] in
  let any () =
    if pick 6 = 0 then Weaver_util.Xrand.pick rng unregistered
    else Weaver_util.Xrand.pick rng registered
  in
  let log = Buffer.create 4096 in
  let next_payload = ref 0 in
  let payload () =
    incr next_payload;
    !next_payload
  in
  let handler dst ~src msg =
    Buffer.add_string log
      (Printf.sprintf "%Lx %d>%d:%d;" (Int64.bits_of_float (Engine.now e)) src dst msg);
    match msg mod 5 with
    | 0 -> Net.send net ~src:dst ~dst:src (payload ())
    | 1 -> Net.send net ~src ~dst (payload ())
    | 2 -> Net.send net ~src:dst ~dst:(any ()) (payload ())
    | _ -> ()
  in
  Array.iter (fun a -> Net.register net a (handler a)) registered;
  for _ = 1 to 400 do
    let at = Weaver_util.Xrand.float rng 5_000.0 in
    let action =
      match pick 20 with
      | 0 -> fun () -> Net.set_alive net (any ()) false
      | 1 -> fun () -> Net.set_alive net (any ()) true
      | 2 ->
          let a = any () in
          fun () -> Net.register net a (handler a)
      | 3 ->
          let f = Weaver_util.Xrand.pick rng [| 0.0; 0.25; 1.0; 3.0 |] in
          fun () -> Net.set_latency_factor net f
      | 4 ->
          let src = any () in
          let dst = any () in
          let f = Weaver_util.Xrand.pick rng [| 0.1; 1.0; 5.0 |] in
          fun () -> Net.set_link_factor net ~src ~dst f
      | _ ->
          let src = any () in
          let dst = any () in
          let burst = 1 + pick 4 in
          fun () ->
            for _ = 1 to burst do
              Net.send net ~src ~dst (payload ())
            done
    in
    Engine.schedule_at e ~time:at action
  done;
  Engine.run e;
  Buffer.add_string log
    (Printf.sprintf "sent=%d delivered=%d dropped=%d suppressed=%d hwm=%d ch_hwm=%d \
                     in_flight=%d tracked=%d drops=%s"
       (Net.messages_sent net) (Net.messages_delivered net) (Net.messages_dropped net)
       (Net.messages_suppressed net) (Net.in_flight_high_water net)
       (Net.channel_high_water net) (Net.in_flight net) (Net.channels_tracked net)
       (String.concat ","
          (List.map (fun (d, n) -> Printf.sprintf "%d:%d" d n) (Net.drops_by_dst net))));
  Digest.to_hex (Digest.string (Buffer.contents log))

let test_net_program_digest () =
  List.iter
    (fun (seed, expect) ->
      Alcotest.(check string) (Printf.sprintf "seed %d" seed) expect (net_program_digest ~seed))
    [
      (1, "962ea7f2822783e448d2b45db1800259");
      (2, "1320f126e26c1c9a496989302d63995e");
      (3, "74822301352eb597ce7164903b158ffd");
    ]

let prop_engine_executes_in_time_order =
  QCheck.Test.make ~name:"events execute in nondecreasing time order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_inclusive 1000.0))
    (fun delays ->
      let e = Engine.create () in
      let times = ref [] in
      List.iter
        (fun d -> Engine.schedule e ~delay:d (fun () -> times := Engine.now e :: !times))
        delays;
      Engine.run e;
      let ts = List.rev !times in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      nondecreasing ts && List.length ts = List.length delays)

(* An event program for the queue: each event is scheduled by delay or at
   an absolute offset from the current time (negative offsets are in the
   past), as a plain event or as a cancellable timer, and when it fires it
   cancels the timers its [cancels] name and schedules its children. A
   cancel names the [k]-th timer created so far (mod their number), so it
   may hit a timer that is queued, fired or already cancelled. *)
type when_ = Delay of float | At of float
type ev = { at : when_; timer : bool; cancels : int list; children : ev list }

let gen_when =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Delay d) (float_bound_inclusive 2_000.0)) (* near *);
        (2, map (fun d -> Delay (100_000.0 +. d)) (float_bound_inclusive 3_000_000.0))
        (* far, like client timeouts *);
        (2, map (fun d -> Delay d) (oneofl [ 0.0; 5.0; 99_999.0; 100_000.0; 100_001.0 ]))
        (* equal times *);
        (1, map (fun d -> At (-.d)) (float_bound_inclusive 500.0)) (* past *);
        (1, map (fun d -> At d) (float_bound_inclusive 300_000.0));
      ])

let gen_cancels = QCheck.Gen.(list_size (frequency [ (2, return 0); (1, 1 -- 3) ]) (0 -- 50))

let gen_events =
  QCheck.Gen.(
    sized_size (0 -- 3)
      (fix (fun self depth ->
           list_size (0 -- 6)
             (let* at = gen_when in
              let* timer = frequency [ (2, return true); (1, return false) ] in
              let* cancels = gen_cancels in
              let* children = if depth = 0 then return [] else self (depth - 1) in
              return { at; timer; cancels; children }))))

(* The reference queue: a list searched for its (time, seq) minimum, from
   which a cancel removes its event. *)
type ref_engine = {
  mutable clock : float;
  mutable seq : int;
  mutable queue : (float * int * (unit -> unit)) list;
  mutable hwm : int;
}

let ref_time r = function
  | Delay d -> Float.max (r.clock +. Float.max 0.0 d) r.clock
  | At o -> Float.max (r.clock +. o) r.clock

let ref_schedule r when_ action =
  r.seq <- r.seq + 1;
  r.queue <- (ref_time r when_, r.seq, action) :: r.queue;
  r.hwm <- max r.hwm (List.length r.queue);
  r.seq

let ref_cancel r seq = r.queue <- List.filter (fun (_, s, _) -> s <> seq) r.queue

let ref_min r =
  List.fold_left
    (fun best ((t, s, _) as e) ->
      match best with
      | Some (bt, bs, _) when bt < t || (bt = t && bs < s) -> best
      | _ -> Some e)
    None r.queue

let ref_run ?until r =
  let rec go () =
    match ref_min r with
    | Some ((t, s, action)) when (match until with None -> true | Some l -> t <= l) ->
        ref_cancel r s;
        r.clock <- t;
        action ();
        go ()
    | _ -> ( match until with Some l -> r.clock <- Float.max r.clock l | None -> ())
  in
  go ()

let prop_engine_matches_reference_sort =
  QCheck.Test.make ~name:"queue matches reference under cancels" ~count:300
    QCheck.(
      pair (make gen_events)
        (make Gen.(list_size (0 -- 4) (pair (float_bound_inclusive 400_000.0) gen_cancels))))
    (fun (events, pauses) ->
      (* run one event program on a scheduler; log (id, time) per firing and
         (pending, high-water, now) around the cancels made at every pause
         and after the final drain, which must leave [now] at the last live
         event's time *)
      let drive ~schedule ~timeout ~cancel ~now ~run ~pending ~hwm =
        let log = ref [] and next_id = ref 0 in
        let timers = ref [||] in
        let cancel_all ks =
          let n = Array.length !timers in
          if n > 0 then List.iter (fun k -> cancel !timers.(k mod n)) ks
        in
        let paused () = log := `Paused (pending (), hwm (), now ()) :: !log in
        let rec add ev =
          let id = !next_id in
          incr next_id;
          let action () =
            log := `Fired (id, now ()) :: !log;
            cancel_all ev.cancels;
            List.iter add ev.children
          in
          if ev.timer then timers := Array.append !timers [| timeout ev.at action |]
          else schedule ev.at action
        in
        List.iter add events;
        List.iter
          (fun (l, ks) ->
            run (Some l);
            paused ();
            cancel_all ks;
            paused ())
          (List.sort (fun (a, _) (b, _) -> Float.compare a b) pauses);
        run None;
        paused ();
        List.rev !log
      in
      let e = Engine.create () in
      let got =
        drive
          ~schedule:(fun w action ->
            match w with
            | Delay d -> Engine.schedule e ~delay:d action
            | At o -> Engine.schedule_at e ~time:(Engine.now e +. o) action)
          ~timeout:(fun w action ->
            let delay = match w with Delay d -> d | At o -> o in
            Engine.timeout e ~delay action)
          ~cancel:(Engine.cancel e)
          ~now:(fun () -> Engine.now e)
          ~run:(fun until -> Engine.run ?until e)
          ~pending:(fun () -> Engine.pending e)
          ~hwm:(fun () -> Engine.max_pending e)
      in
      let r = { clock = 0.0; seq = 0; queue = []; hwm = 0 } in
      let want =
        drive
          ~schedule:(fun w action -> ignore (ref_schedule r w action))
          ~timeout:(ref_schedule r) ~cancel:(ref_cancel r)
          ~now:(fun () -> r.clock)
          ~run:(fun until -> ref_run ?until r)
          ~pending:(fun () -> List.length r.queue)
          ~hwm:(fun () -> r.hwm)
      in
      got = want)

(* [pending] and [max_pending] count live events: a cancelled one leaves
   both counts at once, though it stays in the heap until dropped. *)
let test_engine_pending_counts_live () =
  let e = Engine.create () in
  Engine.schedule e ~delay:10.0 (fun () -> ());
  let t1 = Engine.timeout e ~delay:3_000_000.0 (fun () -> Alcotest.fail "cancelled t1 fired") in
  let _t2 = Engine.timeout e ~delay:5_000_000.0 (fun () -> ()) in
  Alcotest.(check int) "pending" 3 (Engine.pending e);
  Alcotest.(check int) "high-water" 3 (Engine.max_pending e);
  Engine.cancel e t1;
  Alcotest.(check int) "cancelled leaves pending" 2 (Engine.pending e);
  Engine.cancel e t1;
  Alcotest.(check int) "second cancel is a no-op" 2 (Engine.pending e);
  Engine.schedule e ~delay:20.0 (fun () -> ());
  Alcotest.(check int) "high-water counts live events" 3 (Engine.max_pending e);
  Engine.run ~until:4_000_000.0 e;
  Alcotest.(check int) "far event left" 1 (Engine.pending e);
  Alcotest.(check int) "processed" 2 (Engine.events_processed e);
  Alcotest.(check int) "high-water kept" 3 (Engine.max_pending e)

(* A drain stops at the last live event: the clock never moves to a
   cancelled event's time, and a cancelled event is not counted. *)
let test_engine_drain_stops_at_last_live () =
  let e = Engine.create () in
  let late = Engine.timeout e ~delay:3_000_000.0 (fun () -> Alcotest.fail "cancelled fired") in
  Engine.schedule e ~delay:10.0 (fun () -> Engine.cancel e late);
  Engine.schedule e ~delay:25.0 (fun () -> ());
  Engine.run e;
  Alcotest.(check (float 1e-9)) "now at the last live event" 25.0 (Engine.now e);
  Alcotest.(check int) "processed" 2 (Engine.events_processed e);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e);
  Alcotest.(check bool) "queue empty" false (Engine.step e)

(* A handle whose event fired or was cancelled must not touch the event
   that later takes its slot in the heap. *)
let test_engine_stale_handle_harmless () =
  let e = Engine.create () in
  let fired = ref [] in
  let note s () = fired := s :: !fired in
  let a = Engine.timeout e ~delay:1.0 (note "a") in
  Engine.run e;
  (* [a]'s slot is free again, and the next event takes it *)
  let _b = Engine.timeout e ~delay:1.0 (note "b") in
  Engine.cancel e a;
  let c = Engine.timeout e ~delay:5.0 (note "c") in
  Engine.cancel e c;
  let _d = Engine.timeout e ~delay:5.0 (note "d") in
  Engine.cancel e c;
  Engine.cancel e a;
  Alcotest.(check int) "b and d pending" 2 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list string)) "stale cancels touched nothing" [ "a"; "b"; "d" ]
    (List.rev !fired)

(* A fired event's closure, and whatever it captured, is garbage once it
   has run, while the events still queued keep theirs: the heaps' action
   slots must not hold on to it. *)
let test_engine_releases_fired_closures () =
  let e = Engine.create () in
  let fired = Weak.create 32 and queued = Weak.create 32 in
  let[@inline never] schedule_with w i ~delay =
    let payload = Array.make 8 i in
    Weak.set w i (Some payload);
    Engine.schedule e ~delay (fun () -> ignore (Sys.opaque_identity payload))
  in
  for i = 0 to 31 do
    schedule_with fired i ~delay:(float_of_int i);
    schedule_with queued i ~delay:(1_000.0 +. float_of_int i)
  done;
  Engine.run ~until:500.0 e;
  Gc.full_major ();
  let alive w = List.length (List.filter (fun i -> Weak.check w i) (List.init 32 Fun.id)) in
  Alcotest.(check int) "fired closures released" 0 (alive fired);
  Alcotest.(check int) "queued closures kept" 32 (alive queued);
  Engine.run e;
  Alcotest.(check int) "all ran" 64 (Engine.events_processed e)

let prop_net_fifo =
  QCheck.Test.make ~name:"network preserves per-channel FIFO under jitter" ~count:50
    QCheck.(pair small_nat (int_range 1 60))
    (fun (seed, n) ->
      let e = Engine.create ~seed () in
      let net = Net.create e ~latency:(Net.uniform_latency ~base:5.0 ~jitter:200.0) in
      let got = ref [] in
      Net.register net 1 (fun ~src:_ m -> got := m :: !got);
      for i = 1 to n do
        Net.send net ~src:0 ~dst:1 i
      done;
      Engine.run e;
      List.rev !got = List.init n (fun i -> i + 1))

let prop_net_fifo_mixed_factors =
  (* shrinking the link factor mid-stream makes later messages draw shorter
     wire times than ones already in flight — exactly the reordering hazard
     the per-channel delivery floor exists to absorb *)
  QCheck.Test.make ~name:"per-channel FIFO survives latency/link factor churn"
    ~count:50
    QCheck.(triple small_nat (int_range 1 40) (int_range 1 40))
    (fun (seed, n1, n2) ->
      let e = Engine.create ~seed () in
      let net = Net.create e ~latency:(Net.uniform_latency ~base:5.0 ~jitter:200.0) in
      let got = ref [] in
      Net.register net 1 (fun ~src:_ m -> got := m :: !got);
      Net.register net 2 (fun ~src:_ _ -> ());
      for i = 1 to n1 do
        Net.send net ~src:0 ~dst:1 i;
        (* unrelated channel traffic keeps the RNG draws interleaved *)
        Net.send net ~src:0 ~dst:2 (-i)
      done;
      Net.set_link_factor net ~src:0 ~dst:1 0.05;
      Net.set_latency_factor net 0.5;
      for i = n1 + 1 to n1 + n2 do
        Net.send net ~src:0 ~dst:1 i
      done;
      Engine.run e;
      List.rev !got = List.init (n1 + n2) (fun i -> i + 1)
      && Net.channels_tracked net = 0)

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "time advances" `Quick test_engine_time_advances;
        Alcotest.test_case "tie order" `Quick test_engine_fifo_ties;
        Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
        Alcotest.test_case "run until" `Quick test_engine_run_until;
        Alcotest.test_case "every" `Quick test_engine_every;
        Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_clamped;
        Alcotest.test_case "schedule_at past" `Quick test_engine_schedule_at_past;
        Alcotest.test_case "every rejects nonpositive period" `Quick
          test_engine_every_nonpositive;
        Alcotest.test_case "counters" `Quick test_engine_counters;
        QCheck_alcotest.to_alcotest prop_engine_executes_in_time_order;
        Alcotest.test_case "fired closures released" `Quick
          test_engine_releases_fired_closures;
        Alcotest.test_case "pending counts live events only" `Quick
          test_engine_pending_counts_live;
        Alcotest.test_case "drain stops at the last live event" `Quick
          test_engine_drain_stops_at_last_live;
        Alcotest.test_case "stale handle harmless after slot reuse" `Quick
          test_engine_stale_handle_harmless;
        QCheck_alcotest.to_alcotest prop_engine_matches_reference_sort;
      ] );
    ( "sim.net",
      [
        Alcotest.test_case "delivery" `Quick test_net_delivery;
        Alcotest.test_case "fifo per channel" `Quick test_net_fifo_per_channel;
        Alcotest.test_case "fifo independent channels" `Quick test_net_fifo_independent_channels;
        Alcotest.test_case "dead endpoint drops" `Quick test_net_dead_endpoint_drops;
        Alcotest.test_case "inflight to crashed dropped" `Quick test_net_inflight_to_crashed_dropped;
        Alcotest.test_case "dead sender drops" `Quick test_net_dead_sender_drops;
        Alcotest.test_case "counters" `Quick test_net_counters;
        Alcotest.test_case "channels released after drain" `Quick
          test_net_channels_released_after_drain;
        Alcotest.test_case "send allocation budget" `Quick
          test_net_send_allocation_budget;
        Alcotest.test_case "negative addresses rejected" `Quick test_net_negative_address;
        Alcotest.test_case "randomized program matches recorded digest" `Quick
          test_net_program_digest;
        QCheck_alcotest.to_alcotest prop_net_fifo;
        QCheck_alcotest.to_alcotest prop_net_fifo_mixed_factors;
      ] );
  ]
