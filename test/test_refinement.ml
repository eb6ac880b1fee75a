(* Regression tests for the non-blocking, coalesced refinement path on the
   shard ordering hot path.

   All of them drive one shard directly over the simulated network with
   hand-built timestamps, arranged into the "stuck configuration": gk0's
   head A and gk1's head B are concurrent, conflicting, and undecided,
   while gk3's head F is already ordered after both — so no queue head is
   globally minimal and the shard must consult the timeline oracle. What
   happens to the *other* queues during that round trip is what these pin:

   - the shard must keep draining gatekeeper queues whose heads are not in
     the undecided conflict set (NOPs and decided real transactions
     alike) while the consult is in flight;
   - conflicts discovered mid-flight must join the outstanding batch
     instead of issuing a second round trip (coalescing);
   - the simulated consult round trip must honour the network's active
     latency-degrade factor, like any real message would. *)

open Weaver_core
module Vclock = Weaver_vclock.Vclock
module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Fault = Weaver_sim.Fault
module Oracle = Weaver_oracle.Oracle

let base_cfg =
  {
    Config.default with
    Config.n_gatekeepers = 4;
    Config.n_shards = 1;
    Config.net_base_latency = 50.0;
    Config.net_jitter = 0.0;
    Config.gc_period = 0.0;
  }

let stamp ~origin clocks = Vclock.make ~epoch:0 ~origin clocks

let send_tx rt ~at ~gk ~seq ~ts ~ops =
  Engine.schedule_at rt.Runtime.engine ~time:at (fun () ->
      Net.send rt.Runtime.net ~src:(Runtime.gk_addr rt gk)
        ~dst:(Runtime.shard_addr rt 0)
        (Msg.Shard_tx { gk; seq; ts; ops; trace = 0 }))

(* Build the scenario. Timeline (base latency 50 µs, no jitter):
     t=0   gk0 sends A = ⟨1,0,0,0⟩ creating "a"      (arrives t=50)
           gk1 sends B = ⟨0,1,0,0⟩ creating "b"      (arrives t=50)
           gk2 sends N = ⟨0,0,1,0⟩, a NOP            (arrives t=50)
           gk3 sends F = ⟨0,0,0,1⟩ creating "f"      (arrives t=50)
     t=20  gk2 sends N2 = ⟨0,0,2,0⟩, a NOP           (arrives t=70)
     t=25  gk2 sends D = ⟨0,0,3,0⟩ creating "d"      (arrives t=75)
   Pre-established oracle edges: A≺F and B≺F always (F is stuck behind the
   A/B conflict), plus — unless [coalesce] — D≺A, D≺B, D≺F, which make D
   decidable without the oracle. With [coalesce], D carries no pre-edges:
   the (D, A) pair is undecided when D reaches the head at t=75, mid-flight,
   so it must join the outstanding consult instead of starting its own. *)
let launch ?(coalesce = false) () =
  let rt = Runtime.create base_cfg in
  let shard = Shard.spawn rt ~sid:0 ~epoch:0 in
  let a = stamp ~origin:0 [| 1; 0; 0; 0 |] in
  let b = stamp ~origin:1 [| 0; 1; 0; 0 |] in
  let n = stamp ~origin:2 [| 0; 0; 1; 0 |] in
  let n2 = stamp ~origin:2 [| 0; 0; 2; 0 |] in
  let d = stamp ~origin:2 [| 0; 0; 3; 0 |] in
  let f = stamp ~origin:3 [| 0; 0; 0; 1 |] in
  let ok = function Ok () -> () | Error `Cycle -> Alcotest.fail "pre-edge cycle" in
  ok (Oracle.assign rt.Runtime.oracle ~before:a ~after:f);
  ok (Oracle.assign rt.Runtime.oracle ~before:b ~after:f);
  if not coalesce then begin
    ok (Oracle.assign rt.Runtime.oracle ~before:d ~after:a);
    ok (Oracle.assign rt.Runtime.oracle ~before:d ~after:b);
    ok (Oracle.assign rt.Runtime.oracle ~before:d ~after:f)
  end;
  send_tx rt ~at:0.0 ~gk:0 ~seq:1 ~ts:a ~ops:[ Msg.S_create_vertex "a" ];
  send_tx rt ~at:0.0 ~gk:1 ~seq:1 ~ts:b ~ops:[ Msg.S_create_vertex "b" ];
  send_tx rt ~at:0.0 ~gk:2 ~seq:1 ~ts:n ~ops:[];
  send_tx rt ~at:0.0 ~gk:3 ~seq:1 ~ts:f ~ops:[ Msg.S_create_vertex "f" ];
  send_tx rt ~at:20.0 ~gk:2 ~seq:2 ~ts:n2 ~ops:[];
  send_tx rt ~at:25.0 ~gk:2 ~seq:3 ~ts:d ~ops:[ Msg.S_create_vertex "d" ];
  (rt, shard)

let depths shard = Array.to_list (Shard.queue_depths shard)
let has shard vid = Shard.vertex shard vid <> None

let test_nonconflicting_queue_drains () =
  (* the tentpole regression: while the A/B consult is in flight
     (t=50…150), gk2's queue — a NOP, another NOP, and a real transaction
     already ordered before everything — must drain completely. *)
  let rt, shard = launch () in
  Engine.run rt.Runtime.engine ~until:100.0;
  Alcotest.(check (list int)) "gk2 drained mid-consult" [ 1; 1; 0; 1 ]
    (depths shard);
  Alcotest.(check bool) "d applied mid-consult" true (has shard "d");
  Alcotest.(check bool) "a still held back" false (has shard "a");
  Alcotest.(check int) "one consult" 1
    rt.Runtime.counters.Runtime.shard_oracle_consults;
  Alcotest.(check int) "nothing coalesced" 0
    rt.Runtime.counters.Runtime.shard_oracle_batched;
  (* once the consult lands (t=150) the serialized order lets A through —
     as soon as gk2 shows a fresh head again (the event loop needs every
     queue non-empty), which is the liveness NOPs' job in a real cluster *)
  send_tx rt ~at:160.0 ~gk:2 ~seq:4 ~ts:(stamp ~origin:2 [| 0; 0; 4; 0 |])
    ~ops:[];
  Engine.run rt.Runtime.engine ~until:300.0;
  Alcotest.(check bool) "a applied after consult" true (has shard "a");
  Alcotest.(check (list int)) "a's queue advanced" [ 0; 1; 1; 1 ]
    (depths shard)

let test_midflight_conflict_coalesces () =
  (* without D's pre-edges, the (D, A) conflict surfaces at t=75 while the
     A/B consult is still out: D must join that batch — one round trip
     serializes A, B, and D together — instead of issuing its own *)
  let rt, shard = launch ~coalesce:true () in
  Engine.run rt.Runtime.engine ~until:100.0;
  Alcotest.(check int) "still one consult" 1
    rt.Runtime.counters.Runtime.shard_oracle_consults;
  Alcotest.(check int) "conflict joined the batch" 1
    rt.Runtime.counters.Runtime.shard_oracle_batched;
  (* D is now stalled (it is in the batch), but the NOPs ahead of it
     cleared; nothing new was applied *)
  Alcotest.(check (list int)) "nops cleared, d parked" [ 1; 1; 1; 1 ]
    (depths shard);
  Alcotest.(check bool) "d awaiting the batch" false (has shard "d");
  send_tx rt ~at:160.0 ~gk:2 ~seq:4 ~ts:(stamp ~origin:2 [| 0; 0; 4; 0 |])
    ~ops:[];
  Engine.run rt.Runtime.engine ~until:300.0;
  Alcotest.(check int) "no second round trip" 1
    rt.Runtime.counters.Runtime.shard_oracle_consults;
  (* the landed batch serialized A≺B≺D (join order); A executes as soon as
     gk2 shows a fresh head — D itself then waits for new gk0 traffic,
     which is the liveness NOPs' job, not a refinement stall *)
  Alcotest.(check bool) "a applied after the coalesced consult" true
    (has shard "a");
  Alcotest.(check (list int)) "gk0 drained" [ 0; 1; 2; 1 ] (depths shard)

let test_consult_honours_latency_degrade () =
  (* satellite bugfix: the consult round trip used to hard-code
     2 × net_base_latency, ignoring active latency-degrade factors. With a
     ×4 degrade installed (by a fault plan) before the conflict surfaces,
     the consult must take 400 µs, not 100: at t=300 the conflict is still
     unresolved, while the non-conflicting queue drained long ago. *)
  let rt, shard = launch () in
  let plan =
    Fault.scripted
      [ (30.0, Fault.Net_degrade 4.0); (500.0, Fault.Net_degrade 1.0) ]
  in
  ignore
    (Fault.install rt.Runtime.engine plan ~exec:(function
      | Fault.Net_degrade f -> Net.set_latency_factor rt.Runtime.net f
      | _ -> ()));
  Engine.run rt.Runtime.engine ~until:300.0;
  Alcotest.(check bool) "consult still in flight at t=300" false
    (has shard "a");
  Alcotest.(check (list int)) "non-conflicting queue drained anyway"
    [ 1; 1; 0; 1 ] (depths shard);
  (* the degraded round trip lands at t=450; a fresh gk2 head after the
     degrade lifts lets the serialized order execute *)
  send_tx rt ~at:510.0 ~gk:2 ~seq:4 ~ts:(stamp ~origin:2 [| 0; 0; 4; 0 |])
    ~ops:[];
  Engine.run rt.Runtime.engine ~until:600.0;
  Alcotest.(check bool) "resolved after the degraded round trip" true
    (has shard "a")

(* No server keeps a copy of the oracle's decisions: the oracle alone
   keeps a concurrent pair's order. Asked again, reversed, with either
   tie preference and through physically distinct copies of the stamps,
   it gives the first answer every time, and every ask is one consult. *)
let test_oracle_keeps_order () =
  let rt = Runtime.create base_cfg in
  let c = rt.Runtime.counters in
  let a = stamp ~origin:0 [| 1; 0; 0; 0 |] and b = stamp ~origin:1 [| 0; 1; 0; 0 |] in
  let d = Runtime.before rt a b ~prefer_first_on_tie:true in
  Alcotest.(check int) "first decision consults" 1 c.Runtime.oracle_consults;
  let copy s = Vclock.make ~epoch:s.Vclock.epoch ~origin:s.Vclock.origin s.Vclock.clocks in
  let a' = copy a and b' = copy b in
  Alcotest.(check bool) "copies are distinct" true (a' != a && b' != b);
  List.iteri
    (fun i (x, y, prefer, want) ->
      Alcotest.(check bool) "the same order" want (Runtime.before rt x y ~prefer_first_on_tie:prefer);
      Alcotest.(check int) "one consult per ask" (i + 2) c.Runtime.oracle_consults)
    [
      (a, b, true, d);
      (a, b, false, d);
      (b, a, true, not d);
      (b, a, false, not d);
      (a', b', false, d);
      (b', a', true, not d);
    ];
  let established = (Runtime.ordering rt).Gate.established in
  Alcotest.(check (option bool)) "established for the copies" (Some d) (established a' b');
  Alcotest.(check (option bool)) "and reversed" (Some (not d)) (established b' a');
  Alcotest.(check int) "each a consult" 9 c.Runtime.oracle_consults

let suites =
  [
    ( "refinement",
      [
        Alcotest.test_case "non-conflicting queue drains mid-consult" `Quick
          test_nonconflicting_queue_drains;
        Alcotest.test_case "mid-flight conflict coalesces" `Quick
          test_midflight_conflict_coalesces;
        Alcotest.test_case "consult honours latency degrade" `Quick
          test_consult_honours_latency_degrade;
        Alcotest.test_case "the oracle alone keeps a pair's order" `Quick
          test_oracle_keeps_order;
      ] );
  ]
