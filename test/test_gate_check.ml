(* An exhaustive small-scope checker of the ordering gate ([Gate]), run
   against a model oracle instead of the runtime.

   The model oracle is a DAG over the scenario's stamps that agrees with
   vector clocks, orders concurrent transactions by their arrival at the
   shard, and puts programs after transactions. A pair is established
   only once something orders it: an overdue program check ([before]), a
   consult's answer, or a program's reads when it runs.

   Within the bound below, every scenario is run under every interleaving
   of arrivals, program parkings and consult answers, and three
   properties are checked:
   (a) the real transactions execute in a linear extension of the
       oracle's decisions;
   (b) a program runs after every real transaction ordered before it, and
       before every one ordered after it: it reads at its stamp, so one
       ordered after it may have been applied already but is not seen,
       and every applied one it overlaps is ordered before it as it reads;
   (c) progress: whenever every queue is non-empty, an action is enabled
       (a pop, or the outstanding consult's answer); and once the
       gatekeepers send only NOPs that happen after every stamp, as their
       timers eventually do, the gate drains every real transaction and
       runs every program.

   The bound: 2 gatekeepers × 2 queued items and 3 gatekeepers × 2 queued
   items, each item real or a NOP; each gatekeeper's FIFO order equal to
   or the reverse of its stamp order; stamps minted with no cross-
   gatekeeper knowledge, or in a total order that follows the arrival
   order, or its reverse; one program, minted at every position of the
   stamp order (with 3 gatekeepers: in the middle), parked at every
   arrival slot, within its patience or (with 2 gatekeepers) past it;
   every choice of when each consult is answered. That is about 6,000
   runs with 2 gatekeepers and 63,000 with 3. *)

open Weaver_core
module Vclock = Weaver_vclock.Vclock

type kind = Real | Nop
type mode = Concurrent | Arrival | Reverse

type scenario = {
  kinds : kind array array;  (* by gatekeeper, in FIFO order *)
  inverted : bool array;  (* FIFO order is the reverse of stamp order *)
  pattern : int array;  (* the gatekeeper of each arrival *)
  mode : mode;
  prog_at : int;  (* the program's position in the mint order *)
}

let pp_scenario s =
  let kinds =
    Array.to_list s.kinds
    |> List.mapi (fun g ks ->
           Printf.sprintf "gk%d[%s]%s" g
             (String.concat " " (Array.to_list (Array.map (function Real -> "tx" | Nop -> "nop") ks)))
             (if s.inverted.(g) then "inv" else ""))
  in
  Printf.sprintf "%s arrivals %s %s program minted %d" (String.concat " " kinds)
    (String.concat "" (Array.to_list (Array.map string_of_int s.pattern)))
    (match s.mode with Concurrent -> "concurrent" | Arrival -> "arrival-ordered" | Reverse -> "reverse-ordered")
    s.prog_at

(* ------------------------------------------------------------------ *)
(* The model oracle *)

type model = {
  stamps : Vclock.t array;  (* by event *)
  real : bool array;  (* a transaction with effects *)
  prog : bool array;
  arrival : int array;  (* arrival rank; max_int for programs and until arrival *)
  ord : bool array array;  (* [ord.(i).(j)]: i ≺ j is established; transitively closed *)
}

let idx m ts =
  let rec go i = if m.stamps.(i) == ts then i else go (i + 1) in
  go 0

let clock a b =
  match Vclock.compare_hb a b with
  | Vclock.Before -> Some true
  | Vclock.After -> Some false
  | Vclock.Equal when a.Vclock.origin = b.Vclock.origin -> Some false
  | Vclock.Equal | Vclock.Concurrent -> None

(* establish i ≺ j, closing transitively *)
let decide m i j =
  let n = Array.length m.stamps in
  for a = 0 to n - 1 do
    if a = i || m.ord.(a).(i) then
      for b = 0 to n - 1 do
        if b = j || m.ord.(j).(b) then m.ord.(a).(b) <- true
      done
  done

let decided m i j = if m.ord.(i).(j) then Some true else if m.ord.(j).(i) then Some false else None

(* the model's choice for an unordered pair: programs after transactions,
   transactions by arrival *)
let model_first m i j =
  if m.prog.(i) <> m.prog.(j) then m.prog.(j) else m.arrival.(i) <= m.arrival.(j)

let ordering m =
  {
    Gate.clock;
    established = (fun a b -> decided m (idx m a) (idx m b));
    before =
      (fun a b ~prefer_first_on_tie:_ ->
        match clock a b with
        | Some d -> d
        | None -> (
            let i = idx m a and j = idx m b in
            match decided m i j with
            | Some d -> d
            | None ->
                let d = model_first m i j in
                if d then decide m i j else decide m j i;
                d));
  }

(* a consult's answer: every undecided pair of the batch, by arrival *)
let serialize m stamps =
  let ids = List.map (idx m) stamps in
  List.iter
    (fun i ->
      List.iter
        (fun j -> if i <> j && decided m i j = None && model_first m i j then decide m i j)
        ids)
    ids

(* ------------------------------------------------------------------ *)
(* Stamps *)

(* Events: the items in FIFO order per gatekeeper, then the program. Also
   returns a minter of NOPs that happen after every stamp minted so far;
   those are ordered by clocks against everything, so the model never
   looks them up. *)
let build s =
  let n_gk = Array.length s.kinds in
  let first = Array.make n_gk 0 in
  let n_items = ref 0 in
  Array.iteri
    (fun g ks ->
      first.(g) <- !n_items;
      n_items := !n_items + Array.length ks)
    s.kinds;
  let n_items = !n_items in
  let prog = n_items in
  let n = n_items + 1 in
  let zero = Vclock.make ~epoch:0 ~origin:0 (Array.make n_gk 0) in
  let clocks = Array.init n_gk (fun g -> Vclock.make ~epoch:0 ~origin:g (Array.make n_gk 0)) in
  let all = ref zero in
  let stamps = Array.make n zero in
  let total = s.mode <> Concurrent in
  let mint g e =
    if total then clocks.(g) <- Vclock.merge clocks.(g) !all;
    clocks.(g) <- Vclock.tick clocks.(g) ~origin:g;
    stamps.(e) <- clocks.(g);
    all := Vclock.merge !all clocks.(g)
  in
  let minted = Array.make n_gk 0 in
  let mint_pattern =
    match s.mode with
    | Reverse -> Array.of_list (List.rev (Array.to_list s.pattern))
    | Concurrent | Arrival -> s.pattern
  in
  Array.iteri
    (fun pos g ->
      if pos = s.prog_at then mint 0 prog;
      let k = Array.length s.kinds.(g) in
      let j = if s.inverted.(g) then k - 1 - minted.(g) else minted.(g) in
      minted.(g) <- minted.(g) + 1;
      mint g (first.(g) + j))
    mint_pattern;
  if s.prog_at >= n_items then mint 0 prog;
  let closing g =
    clocks.(g) <- Vclock.tick (Vclock.merge clocks.(g) !all) ~origin:g;
    all := Vclock.merge !all clocks.(g);
    clocks.(g)
  in
  let real = Array.make n false in
  Array.iteri (fun g ks -> Array.iteri (fun j k -> real.(first.(g) + j) <- k = Real) ks) s.kinds;
  let ord =
    Array.init n (fun i -> Array.init n (fun j -> Vclock.compare_hb stamps.(i) stamps.(j) = Vclock.Before))
  in
  let m =
    {
      stamps;
      real;
      prog = Array.init n (fun e -> e = prog);
      arrival = Array.make n max_int;
      ord;
    }
  in
  (m, first, prog, closing)

(* ------------------------------------------------------------------ *)
(* One run *)

exception Violation of string


(* [q_trace] carries the event, -1 for a closing NOP *)
let entry ts ~real e =
  {
    Gate.q_ts = ts;
    q_ops = (if real then [ Msg.S_create_vertex "x" ] else []);
    q_trace = e;
    q_enq = 0.0;
  }

(* rounds of closing NOPs before the gate counts as stuck: each round
   without a stall pops a real transaction or runs the program *)
let closing_rounds n_events = 2 * n_events + 2

(* [choose] answers each choice point: true answers the outstanding
   consult now. Returns the choices made. *)
let run ?(patience = infinity) s ~choose =
  let m, first, prog, closing = build s in
  let n_gk = Array.length s.kinds in
  let n = Array.length m.stamps in
  let gate = Gate.create (ordering m) ~queues:n_gk ~patience in
  let applied = Array.make n (-1) in
  let n_applied = ref 0 in
  let runs = ref [] (* (copy, applied count when it ran) *) in
  let now = ref 0.0 in
  let fail fmt = Printf.ksprintf (fun msg -> raise (Violation msg)) fmt in
  let drain () =
    let continue = ref true in
    while !continue do
      match Gate.step gate with
      | Gate.Pop g ->
          let e = (Gate.applied gate g).Gate.q_trace in
          if e >= 0 then applied.(e) <- !n_applied;
          incr n_applied
      | Gate.Start_consult | Gate.Join_consult -> ()
      | Gate.Idle -> continue := false
      | exception Assert_failure _ -> fail "(c) every queue is non-empty and no action is enabled"
    done;
    if Gate.depths gate |> Array.for_all (fun d -> d > 0) && not (Gate.consulting gate) then
      fail "(c) every queue is non-empty and no action is enabled";
    List.iter
      (fun b ->
        (* the program's reads order every applied transaction it overlaps
           before it *)
        for x = 0 to n - 1 do
          if m.real.(x) && applied.(x) >= 0 && decided m x prog = None then decide m x prog
        done;
        runs := (Gate.item b, !n_applied) :: !runs)
      (Gate.runnable gate ~now:!now)
  in
  let choices = ref [] in
  let rec gap () =
    if Gate.consulting gate && choose (List.length !choices) then begin
      choices := true :: !choices;
      answer ();
      gap ()
    end
    else if Gate.consulting gate then choices := false :: !choices
  and answer () =
    serialize m (Gate.end_consult gate);
    drain ()
  in
  let park slot =
    Gate.park gate ~ts:m.stamps.(prog) ~since:!now ~gated:true slot;
    drain ()
  in
  let next = Array.copy first in
  Array.iteri
    (fun a g ->
      park a;
      gap ();
      now := !now +. 1.0;
      let e = next.(g) in
      next.(g) <- e + 1;
      m.arrival.(e) <- a;
      ignore (Gate.arrive gate g (entry m.stamps.(e) ~real:m.real.(e) e));
      drain ();
      gap ())
    s.pattern;
  park (Array.length s.pattern);
  gap ();
  (* the NOP timers: refill every empty queue with a NOP after every
     stamp, and let the outstanding consult be answered, round by round *)
  let pending () =
    Array.exists (fun x -> x) (Array.mapi (fun x r -> r && applied.(x) < 0) m.real)
    || List.length !runs <= Array.length s.pattern
  in
  let round = ref 0 in
  while pending () && !round < closing_rounds n do
    incr round;
    Array.iteri
      (fun g d -> if d = 0 then ignore (Gate.arrive gate g (entry (closing g) ~real:false (-1))))
      (Gate.depths gate);
    drain ();
    if Gate.consulting gate then answer ()
  done;
  for x = 0 to prog - 1 do
    if m.real.(x) && applied.(x) < 0 then fail "(c) a real transaction was never applied"
  done;
  if List.length !runs <> Array.length s.pattern + 1 then fail "(c) a program never ran";
  for x = 0 to prog - 1 do
    for y = 0 to prog - 1 do
      if m.real.(x) && m.real.(y) && applied.(x) >= 0 && applied.(x) < applied.(y) && m.ord.(y).(x)
      then fail "(a) item %d ran before item %d, which is ordered before it" x y
    done
  done;
  List.iter
    (fun (slot, ran) ->
      for x = 0 to prog - 1 do
        if m.real.(x) && m.ord.(x).(prog) && not (applied.(x) >= 0 && applied.(x) < ran) then
          fail "(b) the program parked at slot %d ran before item %d, ordered before it" slot x
      done)
    !runs;
  List.rev !choices

(* every choice sequence: answers default to "later"; each choice point
   met past the fixed prefix is also tried the other way *)
let explore ?patience s ~on_violation =
  let rec go prefix =
    let fixed = Array.of_list prefix in
    let choose i = i < Array.length fixed && fixed.(i) in
    match run ?patience s ~choose with
    | choices ->
        List.iteri
          (fun i c -> if i >= Array.length fixed && not c then go (List.filteri (fun j _ -> j < i) choices @ [ true ]))
          choices
    | exception Violation msg -> on_violation s msg
  in
  go []

(* ------------------------------------------------------------------ *)
(* Enumeration *)

let rec products = function
  | [] -> [ [] ]
  | xs :: rest -> List.concat_map (fun x -> List.map (fun tl -> x :: tl) (products rest)) xs

(* every sequence holding gatekeeper g exactly [counts.(g)] times *)
let interleavings counts =
  let counts = Array.copy counts in
  let total = Array.fold_left ( + ) 0 counts in
  let out = ref [] in
  let cur = Array.make total 0 in
  let rec go pos =
    if pos = total then out := Array.copy cur :: !out
    else
      Array.iteri
        (fun g c ->
          if c > 0 then begin
            counts.(g) <- c - 1;
            cur.(pos) <- g;
            go (pos + 1);
            counts.(g) <- c
          end)
        counts
  in
  go 0;
  List.rev !out

let scenarios ~n_gk ~items ~inversions ~prog_positions =
  let kind_seqs = products (List.init items (fun _ -> [ Real; Nop ])) |> List.map Array.of_list in
  let kinds = products (List.init n_gk (fun _ -> kind_seqs)) |> List.map Array.of_list in
  let invs =
    if inversions then products (List.init n_gk (fun _ -> [ false; true ])) |> List.map Array.of_list
    else [ Array.make n_gk false ]
  in
  let patterns = interleavings (Array.make n_gk items) in
  List.concat_map
    (fun kinds ->
      List.concat_map
        (fun inverted ->
          List.concat_map
            (fun pattern ->
              List.concat_map
                (fun mode ->
                  List.map (fun prog_at -> { kinds; inverted; pattern; mode; prog_at }) prog_positions)
                [ Concurrent; Arrival; Reverse ])
            patterns)
        invs)
    kinds

(* every scenario of the bound (2 gatekeepers only with [~small]); with
   2 gatekeepers, also with a program past its patience from the first
   pass *)
let check_all ?(small = false) ~inversions () =
  let violations = ref [] in
  let on_violation s msg = violations := (s, msg) :: !violations in
  List.iter
    (fun s ->
      explore s ~on_violation;
      explore ~patience:0.0 s ~on_violation)
    (scenarios ~n_gk:2 ~items:2 ~inversions ~prog_positions:[ 0; 1; 2; 3; 4 ]);
  if not small then
    List.iter
      (fun s -> explore s ~on_violation)
      (scenarios ~n_gk:3 ~items:2 ~inversions ~prog_positions:[ 3 ]);
  List.rev !violations

let test_stamp_ordered () =
  match check_all ~inversions:false () with
  | [] -> ()
  | (s, msg) :: _ as all ->
      Alcotest.failf "%d violations; first: %s: %s" (List.length all) (pp_scenario s) msg

(* Known finding (ROADMAP item 1): gatekeeper stamps are not monotone in
   FIFO order, and the gate then breaks (a). gk0 stamps a create, gk1 a
   delete after it, gk0 a NOP after that; the NOP arrives first, the
   delete passes it by clock and runs ahead of the create queued behind
   it. Item 1 restores stamp order on every channel at the gatekeeper:
   such inputs can no longer arise, and this expectation flips. *)
let lost_delete =
  {
    kinds = [| [| Nop; Real |]; [| Real; Nop |] |];
    inverted = [| true; false |];
    pattern = [| 0; 1; 0; 1 |];
    mode = Arrival;
    prog_at = 4;
  }

let test_inversions_found () =
  let found = ref None in
  explore lost_delete ~on_violation:(fun _ msg -> if !found = None then found := Some msg);
  (match !found with
  | Some msg when String.starts_with ~prefix:"(a)" msg -> ()
  | Some msg -> Alcotest.failf "the lost-delete case broke another property: %s" msg
  | None -> Alcotest.fail "the lost-delete case passed: has item 1 landed?");
  Alcotest.(check bool) "inverted scenarios report violations" true
    (check_all ~small:true ~inversions:true () <> [])

let cases =
  [
    Alcotest.test_case "small scope: stamp-ordered arrivals keep (a), (b), (c)" `Quick
      test_stamp_ordered;
    Alcotest.test_case "small scope: an inversion loses a delete (item 1)" `Quick
      test_inversions_found;
  ]
