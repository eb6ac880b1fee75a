(* Tests for the memoized node-program gate and the decision-cache probes
   it skips: a differential test against the gate that re-checks every
   reference, and shadow lookups of every skipped probe over whole runs. *)

open Weaver_core
module Vclock = Weaver_vclock.Vclock
module Xrand = Weaver_util.Xrand
module Programs = Weaver_programs.Std_programs

(* ------------------------------------------------------------------ *)
(* The reference model: the program gate as it was before verdicts were
   kept. Every reference is checked afresh on every pass, and every check
   runs to the end even after one fails. *)

let ref_clears_stamp (o : Gate.order) ~ts ~overdue ~is_nop ref_ts =
  let decision =
    match o.Gate.clock ts ref_ts with
    | Some _ as d -> d
    | None -> (
        match o.Gate.probe ~skip:false ts ref_ts with
        | Some _ as d -> d
        | None -> if is_nop then None else o.Gate.established ts ref_ts)
  in
  match decision with
  | Some d -> d
  | None -> overdue && o.Gate.before ts ref_ts ~prefer_first_on_tie:is_nop

let ref_runnable o ~queues ~last_applied ~ts ~overdue =
  let ok = ref true in
  Array.iteri
    (fun gk q ->
      let cleared =
        match Queue.peek_opt q with
        | Some (head : Gate.queued_tx) ->
            ref_clears_stamp o ~ts ~overdue ~is_nop:(head.Gate.q_ops = []) head.Gate.q_ts
        | None -> (
            match last_applied.(gk) with
            | Some (last : Gate.queued_tx) ->
                ref_clears_stamp o ~ts ~overdue ~is_nop:true last.Gate.q_ts
            | None -> false)
      in
      if not cleared then ok := false)
    queues;
  !ok

(* ------------------------------------------------------------------ *)
(* Differential test. Two worlds, each with its own runtime (counters and
   oracle), decision cache and gate, see the same arrivals, stamps and
   clock, and run the same queue loop; one parks its batches in its gate,
   the other checks them with the reference model against a mirror of the
   queues. *)

let n_gk = 3
let patience = 100.0

type op =
  | Arrive of int * bool  (** gatekeeper, NOP? *)
  | Answer  (** the outstanding consult's answer arrives *)
  | Announce of int * int
  | Park of int
  | Park_hop of int  (** another batch of an earlier run *)
  | Park_alias  (** a run stamped like a queued entry (historical) *)
  | Cache_pair of int * int * bool
  | Oracle_pair of int * int
  | Advance of int
  | Pass

let pp_op = function
  | Arrive (g, nop) -> Printf.sprintf "arrive gk%d %s" g (if nop then "nop" else "tx")
  | Answer -> "answer"
  | Announce (a, b) -> Printf.sprintf "announce %d->%d" a b
  | Park g -> Printf.sprintf "park gk%d" g
  | Park_hop i -> Printf.sprintf "park hop %d" i
  | Park_alias -> "park alias"
  | Cache_pair (i, j, p) -> Printf.sprintf "cache %d %d %b" i j p
  | Oracle_pair (i, j) -> Printf.sprintf "oracle %d %d" i j
  | Advance d -> Printf.sprintf "advance %d" d
  | Pass -> "pass"

let op_gen =
  QCheck.Gen.(
    let gk = int_bound (n_gk - 1) in
    frequency
      [
        (8, map2 (fun g nop -> Arrive (g, nop)) gk (frequency [ (3, return true); (2, return false) ]));
        (2, return Answer);
        (2, map2 (fun a b -> Announce (a, b)) gk gk);
        (3, map (fun g -> Park g) gk);
        (2, map (fun i -> Park_hop i) small_nat);
        (1, return Park_alias);
        (2, map3 (fun i j p -> Cache_pair (i, j, p)) small_nat small_nat bool);
        (1, map2 (fun i j -> Oracle_pair (i, j)) small_nat small_nat);
        (2, map (fun d -> Advance d) (int_range 1 80));
        (6, return Pass);
      ])

type world = { rt : Runtime.t; cache : Runtime.decision_cache; gate : int Gate.t }

let world ~fresh_only =
  let rt = Runtime.create { Config.default with Config.n_gatekeepers = n_gk } in
  let cache = Runtime.create_cache () in
  { rt; cache; gate = Gate.create (Runtime.ordering cache rt) ~queues:n_gk ~fresh_only ~patience }

let counts w =
  ( w.rt.Runtime.counters.Runtime.oracle_cache_hits,
    w.rt.Runtime.counters.Runtime.oracle_consults,
    Runtime.oracle_queries_served w.rt )

type batch = { id : int; ts : Vclock.t; since : float }

let entry ts ~nop =
  {
    Gate.q_ts = ts;
    q_ops = (if nop then [] else [ Msg.S_create_vertex "x" ]);
    q_trace = 0;
    q_enq = 0.0;
    q_ordered = false;
  }

(* Runs [ops] in both worlds; a failure message on the first divergence.
   With [fresh_only] the gate skips probes, and the cache inserts keep to
   the pairs a shard writes (the invariant at [Gate.skips]): no NOP stamp
   is cached but through the gate's own overdue path. Without it any pair
   may be cached. *)
let differential ~fresh_only ops =
  let a = world ~fresh_only and b = world ~fresh_only in
  let clocks = Array.init n_gk (fun g -> Vclock.make ~epoch:0 ~origin:g (Array.make n_gk 0)) in
  let tick g =
    clocks.(g) <- Vclock.tick clocks.(g) ~origin:g;
    clocks.(g)
  in
  (* world [b]'s mirror of its gate's queues *)
  let queues = Array.init n_gk (fun _ -> Queue.create ()) in
  let last_applied = Array.make n_gk None in
  let stamps = ref [||] in
  let remember ?(nop = false) ts =
    if not (fresh_only && nop) then stamps := Array.append !stamps [| ts |]
  in
  let pick i = !stamps.(i mod Array.length !stamps) in
  let parked = ref [] (* newest first, as the gate keeps them *) in
  let runs = ref [||] in
  let next_id = ref 0 in
  let now = ref 0.0 in
  let failure = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !failure = None then failure := Some s) fmt in
  let check_counts step what =
    if counts a <> counts b then begin
      let h, c, q = counts a and h', c', q' = counts b in
      fail "step %d (%s): hits/consults/queries %d/%d/%d, reference %d/%d/%d" step what h c q h'
        c' q'
    end
  in
  let rec drain step =
    match (Gate.step a.gate, Gate.step b.gate) with
    | Gate.Idle, Gate.Idle -> ()
    | (Gate.Pop g as x), y ->
        if x <> y then fail "step %d: the queue loops diverge" step
        else begin
          last_applied.(g) <- Some (Queue.pop queues.(g));
          drain step
        end
    | x, y ->
        if x <> y then fail "step %d: the queue loops diverge" step else drain step
  in
  let pass step =
    let ran = List.map Gate.item (Gate.runnable a.gate ~now:!now) in
    let ready =
      List.filter
        (fun p ->
          let overdue = !now -. p.since > patience in
          ref_runnable (Runtime.ordering b.cache b.rt) ~queues ~last_applied ~ts:p.ts ~overdue)
        !parked
    in
    if ran <> List.map (fun p -> p.id) ready then
      fail "step %d: memoized gate runs [%s], reference [%s]" step
        (String.concat "," (List.map string_of_int ran))
        (String.concat "," (List.map (fun p -> string_of_int p.id) ready));
    parked := List.filter (fun p -> not (List.memq p ready)) !parked;
    check_counts step "pass"
  in
  let park ts =
    let p = { id = !next_id; ts; since = !now } in
    incr next_id;
    Gate.park a.gate ~ts ~since:!now ~gated:true p.id;
    parked := p :: !parked
  in
  List.iteri
    (fun step op ->
      if !failure = None then
        match op with
        | Arrive (g, nop) ->
            let ts = tick g in
            remember ~nop ts;
            ignore (Gate.arrive a.gate g (entry ts ~nop));
            let e = entry ts ~nop in
            ignore (Gate.arrive b.gate g e);
            Queue.push e queues.(g);
            drain step;
            check_counts step "arrive"
        | Answer ->
            if Gate.consulting a.gate then begin
              ignore (Runtime.oracle_serialize a.rt (Gate.end_consult a.gate));
              ignore (Runtime.oracle_serialize b.rt (Gate.end_consult b.gate));
              drain step;
              check_counts step "answer"
            end
        | Announce (src, dst) ->
            if src <> dst then clocks.(dst) <- Vclock.merge clocks.(dst) clocks.(src)
        | Park g ->
            let ts = tick g in
            remember ts;
            runs := Array.append !runs [| ts |];
            park ts
        | Park_hop i ->
            if Array.length !runs > 0 then park !runs.(i mod Array.length !runs)
        | Park_alias -> (
            let queued =
              Array.to_list queues |> List.concat_map (fun q -> List.of_seq (Queue.to_seq q))
            in
            match queued with
            | [] -> ()
            | e :: _ ->
                (* a fresh copy of a queued stamp, as a client's [at] may be *)
                let ts =
                  Vclock.make ~epoch:0 ~origin:e.Gate.q_ts.Vclock.origin e.Gate.q_ts.Vclock.clocks
                in
                Gate.stop_skipping a.gate;
                Gate.stop_skipping b.gate;
                park ts)
        | Cache_pair (i, j, prefer) ->
            if Array.length !stamps > 0 then begin
              let x = pick i and y = pick j in
              ignore (Runtime.before a.cache a.rt x y ~prefer_first_on_tie:prefer);
              ignore (Runtime.before b.cache b.rt x y ~prefer_first_on_tie:prefer)
            end
        | Oracle_pair (i, j) ->
            if Array.length !stamps > 0 then begin
              let x = pick i and y = pick j in
              ignore (Runtime.oracle_order a.rt ~first:x ~second:y);
              ignore (Runtime.oracle_order b.rt ~first:x ~second:y)
            end
        | Advance d -> now := !now +. float_of_int d
        | Pass -> pass step)
    ops;
  if !failure = None then pass (List.length ops);
  match !failure with None -> true | Some msg -> QCheck.Test.fail_report msg

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 250) op_gen)

let prop_gate_matches_reference =
  QCheck.Test.make ~count:300 ~name:"memoized gate matches the re-check-everything gate"
    ops_arb (differential ~fresh_only:true)

let prop_gate_matches_reference_any_cache =
  QCheck.Test.make ~count:200
    ~name:"memoized gate without skips matches it under any cache pairs" ops_arb
    (differential ~fresh_only:false)

(* ------------------------------------------------------------------ *)
(* Shadow probes: with the audit on, every skipped probe is looked up
   anyway. None may find an entry, and looking must not move the run. *)

let audit () = { Runtime.skipped = 0; would_hit = 0 }

let test_golden_shadow () =
  let au = audit () in
  Alcotest.(check string) "golden fingerprint with the audit on" Test_golden.expected
    (Test_golden.run ~audit:au ());
  Alcotest.(check bool) "probes were skipped" true (au.Runtime.skipped > 0);
  Alcotest.(check int) "no skipped probe would have hit" 0 au.Runtime.would_hit

(* A closed-loop mix on a Zipf-skewed graph: [clients] clients, each
   reading (a quarter of requests, [write_pct] of 100, write or delete an
   edge) until [window] µs have passed, then draining. *)
let drive ?prof ?audit cfg ~vertices ~clients ~window ~write_pct ~consistency =
  let c = Cluster.create cfg in
  (Cluster.runtime c).Runtime.profiler <- prof;
  (Cluster.runtime c).Runtime.probe_audit <- audit;
  Programs.Std.register_all (Cluster.registry c);
  let vid i = Printf.sprintf "z%d" i in
  let setup = Cluster.client c in
  let commit tx = match Client.commit setup tx with Ok () -> () | Error e -> Alcotest.failf "setup: %s" e in
  let tx = Client.Tx.begin_ setup in
  for i = 0 to vertices - 1 do
    ignore (Client.Tx.create_vertex tx ~id:(vid i) ())
  done;
  commit tx;
  let tx = Client.Tx.begin_ setup in
  for i = 0 to vertices - 1 do
    ignore (Client.Tx.create_edge tx ~src:(vid i) ~dst:(vid ((i * 7 + 1) mod vertices)))
  done;
  commit tx;
  let rng = Xrand.create ~seed:3 () in
  let stop = ref false and outstanding = ref 0 and failed = ref 0 in
  for _ = 1 to clients do
    let client = Cluster.client c in
    let r = Xrand.split rng in
    let mine = ref [] in
    let rec next () =
      if not !stop then begin
        incr outstanding;
        let finish ok =
          decr outstanding;
          if not ok then incr failed;
          next ()
        in
        let v = vid (Xrand.zipf r ~n:vertices ~theta:0.9) in
        if Xrand.int r 100 >= write_pct then
          Client.run_program_async client
            ~prog:(match Xrand.int r 3 with 0 -> "get_edges" | 1 -> "count_edges" | _ -> "get_node")
            ~params:Progval.Null ~starts:[ v ] ~consistency
            ~on_result:(fun res -> finish (Result.is_ok res))
            ()
        else
          match !mine with
          | (src, eid) :: rest when Xrand.bool r ->
              mine := rest;
              let tx = Client.Tx.begin_ client in
              Client.Tx.delete_edge tx ~src ~eid;
              Client.commit_async client tx ~on_result:(fun _ -> finish true)
          | _ ->
              let tx = Client.Tx.begin_ client in
              let eid = Client.Tx.create_edge tx ~src:v ~dst:(vid (Xrand.int r vertices)) in
              Client.commit_async client tx ~on_result:(fun res ->
                  if res = Ok () then mine := (v, eid) :: !mine;
                  finish true)
      end
    in
    next ()
  done;
  Cluster.run_for c window;
  stop := true;
  let budget = ref 200 in
  while !outstanding > 0 && !budget > 0 do
    decr budget;
    Cluster.run_for c 1_000.0
  done;
  Alcotest.(check int) "every request answered" 0 !outstanding;
  Alcotest.(check int) "every read answered" 0 !failed;
  c

(* the contended-write mix: 3 gatekeepers, 4 shards, 32 clients *)
let contended ?prof ?audit () =
  let cfg = { Config.default with Config.seed = 5; n_gatekeepers = 3; n_shards = 4 } in
  drive ?prof ?audit cfg ~vertices:300 ~clients:32 ~window:60_000.0 ~write_pct:25
    ~consistency:`Strong

let test_contended_shadow () =
  let au = audit () in
  let counters = Cluster.counters (contended ~audit:au ()) in
  Alcotest.(check bool) "the oracle was consulted" true (counters.Runtime.oracle_consults > 0);
  Alcotest.(check bool) "probes were skipped" true (au.Runtime.skipped > 0);
  Alcotest.(check int) "no skipped probe would have hit" 0 au.Runtime.would_hit

(* A cluster with read replicas re-stamps weak runs at follower
   watermarks, which can alias a queued stamp: its shards keep every
   probe. *)
let test_weak_replica_shadow () =
  let au = audit () in
  let cfg = { Config.default with Config.seed = 9; n_gatekeepers = 2; n_shards = 2; read_replicas = 1 } in
  let counters =
    Cluster.counters
      (drive ~audit:au cfg ~vertices:100 ~clients:12 ~window:150_000.0 ~write_pct:25
         ~consistency:`Weak)
  in
  Alcotest.(check bool) "weak reads were routed to replicas" true
    (counters.Runtime.repl_routed > 0);
  Alcotest.(check int) "no probe skipped" 0 au.Runtime.skipped;
  Alcotest.(check int) "no skipped probe would have hit" 0 au.Runtime.would_hit

let suites =
  [
    ( "gate",
      [
        QCheck_alcotest.to_alcotest prop_gate_matches_reference;
        QCheck_alcotest.to_alcotest prop_gate_matches_reference_any_cache;
        Alcotest.test_case "golden run: no skipped probe would hit" `Quick test_golden_shadow;
        Alcotest.test_case "contended writes: no skipped probe would hit" `Quick
          test_contended_shadow;
        Alcotest.test_case "weak reads on replicas keep every probe" `Quick
          test_weak_replica_shadow;
      ]
      @ Test_gate_check.cases );
  ]
