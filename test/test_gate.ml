(* Tests for the memoized node-program gate: a differential test against
   the gate that re-checks every reference, and the exhaustive small-scope
   checker of [Test_gate_check]. *)

open Weaver_core
module Vclock = Weaver_vclock.Vclock

(* ------------------------------------------------------------------ *)
(* The reference model: the program gate as it was before verdicts were
   kept. Every reference is checked afresh on every pass, and every check
   runs to the end even after one fails. *)

let ref_clears_stamp (o : Gate.order) ~ts ~overdue ~is_nop ref_ts =
  let decision =
    match o.Gate.clock ts ref_ts with
    | Some _ as d -> d
    | None -> if is_nop then None else o.Gate.established ts ref_ts
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
   oracle) and gate, see the same arrivals, stamps and clock, and run the
   same queue loop; one parks its batches in its gate, the other checks
   them with the reference model against a mirror of the queues. The
   memoized gate keeps a verdict the oracle established instead of asking
   again, so its consults and oracle queries may only fall behind the
   reference's. *)

let n_gk = 3
let patience = 100.0

type op =
  | Arrive of int * bool  (** gatekeeper, NOP? *)
  | Answer  (** the outstanding consult's answer arrives *)
  | Announce of int * int
  | Park of int
  | Park_hop of int  (** another batch of an earlier run *)
  | Park_alias  (** a run stamped like a queued entry (historical) *)
  | Decide_pair of int * int * bool
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
  | Decide_pair (i, j, p) -> Printf.sprintf "decide %d %d %b" i j p
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
        (2, map3 (fun i j p -> Decide_pair (i, j, p)) small_nat small_nat bool);
        (1, map2 (fun i j -> Oracle_pair (i, j)) small_nat small_nat);
        (2, map (fun d -> Advance d) (int_range 1 80));
        (6, return Pass);
      ])

type world = { rt : Runtime.t; gate : int Gate.t }

let world () =
  let rt = Runtime.create { Config.default with Config.n_gatekeepers = n_gk } in
  { rt; gate = Gate.create (Runtime.ordering rt) ~queues:n_gk ~patience }

let counts w = (w.rt.Runtime.counters.Runtime.oracle_consults, Runtime.oracle_queries_served w.rt)

type batch = { id : int; ts : Vclock.t; since : float }

let entry ts ~nop =
  {
    Gate.q_ts = ts;
    q_ops = (if nop then [] else [ Msg.S_create_vertex "x" ]);
    q_trace = 0;
    q_enq = 0.0;
  }

(* Runs [ops] in both worlds; a failure message on the first divergence.
   Without [any_pairs], the pairs decided outside the gate keep to those a
   shard decides (no NOP stamp, no run stamped like a queued entry); with
   it, any pair may be decided and runs may alias queued stamps. *)
let differential ~any_pairs ops =
  let a = world () and b = world () in
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
    if any_pairs || not nop then stamps := Array.append !stamps [| ts |]
  in
  let pick i = !stamps.(i mod Array.length !stamps) in
  let parked = ref [] (* newest first, as the gate keeps them *) in
  let runs = ref [||] in
  let next_id = ref 0 in
  let now = ref 0.0 in
  let failure = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !failure = None then failure := Some s) fmt in
  let check_counts step what =
    let c, q = counts a and c', q' = counts b in
    if c > c' || q > q' then
      fail "step %d (%s): consults/queries %d/%d, reference %d/%d" step what c q c' q'
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
          ref_runnable (Runtime.ordering b.rt) ~queues ~last_applied ~ts:p.ts ~overdue)
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
        | Park_alias when any_pairs -> (
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
                park ts)
        | Park_alias -> ()
        | Decide_pair (i, j, prefer) ->
            if Array.length !stamps > 0 then begin
              let x = pick i and y = pick j in
              ignore (Runtime.before a.rt x y ~prefer_first_on_tie:prefer);
              ignore (Runtime.before b.rt x y ~prefer_first_on_tie:prefer)
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
    ops_arb (differential ~any_pairs:false)

let prop_gate_matches_reference_any_pairs =
  QCheck.Test.make ~count:200
    ~name:"memoized gate without pair restrictions matches it when any pair is decided"
    ops_arb (differential ~any_pairs:true)

let suites =
  [
    ( "gate",
      [
        QCheck_alcotest.to_alcotest prop_gate_matches_reference;
        QCheck_alcotest.to_alcotest prop_gate_matches_reference_any_pairs;
      ]
      @ Test_gate_check.cases );
  ]
