module Vclock = Weaver_vclock.Vclock

type queued_tx = {
  q_ts : Vclock.t;
  q_ops : Msg.shard_op list;
  q_trace : int;
  q_enq : float;
}

(* "no reference": a queue that is empty and has applied nothing, which
   never clears a batch *)
let none = { q_ts = Vclock.zero ~n:1; q_ops = []; q_trace = 0; q_enq = 0.0 }

type order = {
  clock : Vclock.t -> Vclock.t -> bool option;
  established : Vclock.t -> Vclock.t -> bool option;
  before : Vclock.t -> Vclock.t -> prefer_first_on_tie:bool -> bool;
}

(* How a verdict was reached, which says what a fresh check would do:
   [Settled] by clocks and [Established] by the oracle (nothing more: its
   decisions are irrevocable); [Unsettled] with no established order (for
   a real transaction, the same oracle query). *)
type how = Settled | Established | Unsettled

type verdict = {
  mutable v_ts : Vclock.t;  (* the reference stamp, compared physically *)
  mutable v_nop : bool;  (* checked as effect-free *)
  mutable v_ok : bool;
  mutable v_how : how;
}

type memo = verdict array

let no_memo : memo = [||]

type 'a parked = {
  p_ts : Vclock.t;
  p_since : float;
  p_gated : bool;
  mutable p_memo : memo;  (* verdicts kept from the first failed check *)
  p_item : 'a;
}

type action = Pop of int | Start_consult | Join_consult | Idle

type 'a t = {
  order : order;
  queues : queued_tx Queue.t array;  (* one FIFO per gatekeeper *)
  last_applied : queued_tx array;  (* newest popped entry per gk ([none] before) *)
  last_arrived : Vclock.t option array;  (* for the inversion count only *)
  pops : action array;  (* [Pop g] for every g, built once *)
  refs : queued_tx array;  (* each gk's reference on the current pass *)
  ref_nop : bool array;
  scratch : memo;
  patience : float;
  mutable parked : 'a parked list;  (* newest first *)
  mutable consulting : bool;  (* a consult round trip is outstanding *)
  batch : (Vclock.t, unit) Hashtbl.t;  (* its stamps: heads in here stall *)
  mutable batch_list : Vclock.t list;  (* the batch in reverse join order *)
  mutable conflict : bool;  (* the last scan met an undecided real pair *)
  mutable fallback : bool;  (* a consult action was returned: the NOP fallback is next *)
}

let create order ~queues ~patience =
  {
    order;
    queues = Array.init queues (fun _ -> Queue.create ());
    last_applied = Array.make queues none;
    last_arrived = Array.make queues None;
    pops = Array.init queues (fun g -> Pop g);
    refs = Array.make queues none;
    ref_nop = Array.make queues false;
    scratch =
      Array.init queues (fun _ ->
          { v_ts = none.q_ts; v_nop = false; v_ok = false; v_how = Settled });
    patience;
    parked = [];
    consulting = false;
    batch = Hashtbl.create 8;
    batch_list = [];
    conflict = false;
    fallback = false;
  }

(* Gatekeeper stamps are not monotone in FIFO order. A gatekeeper stamps
   a transaction when its request arrives but ships it only after two
   store phases, and its NOP timer ships newer stamps in between, so a
   transaction stamped before a NOP can arrive behind it. [arrive] counts
   such arrivals. Three rules assume the order is monotone: a head that
   passes a NOP by the tie-break in [le] also runs ahead of whatever that
   gatekeeper queued behind the NOP; a program that clears a queue's head
   or last applied entry ([check]) does not thereby clear every later
   arrival from that gatekeeper; and the shard's replication watermark
   check reads only the heads. *)
let arrive g gk (e : queued_tx) =
  let inverted =
    match g.last_arrived.(gk) with
    | Some prev -> Vclock.compare_hb prev e.q_ts <> Vclock.Before
    | None -> false
  in
  g.last_arrived.(gk) <- Some e.q_ts;
  Queue.push e g.queues.(gk);
  inverted

let consulting g = g.consulting
let applied g gk = g.last_applied.(gk)
let depths g = Array.map Queue.length g.queues

let for_all_heads g p =
  Array.for_all (fun q -> match Queue.peek_opt q with None -> true | Some h -> p h) g.queues

let reset g =
  Array.iter Queue.clear g.queues;
  Array.fill g.last_applied 0 (Array.length g.last_applied) none;
  Array.fill g.last_arrived 0 (Array.length g.last_arrived) None;
  g.parked <- [];
  g.consulting <- false;
  Hashtbl.reset g.batch;
  g.batch_list <- [];
  g.conflict <- false;
  g.fallback <- false

(* ------------------------------------------------------------------ *)
(* The queue loop (§4.2, Fig. 6) *)

(* a ≺ b by clocks or the oracle's established orders; [None] while
   unordered *)
let established o a b = match o.clock a b with Some _ as d -> d | None -> o.established a b

let rec all_heads g q =
  q = Array.length g.queues || ((not (Queue.is_empty g.queues.(q))) && all_heads g (q + 1))

let stalled g (h : queued_tx) = g.consulting && Hashtbl.mem g.batch h.q_ts

(* May head [h] execute no later than head [h']? Two concurrent real
   transactions are the pairs the paper orders reactively (§3.4); an
   undecided pair of them sets [conflict]. *)
let le g (h : queued_tx) (h' : queued_tx) =
  let o = g.order in
  match o.clock h.q_ts h'.q_ts with
  | Some d -> d
  | None when h.q_ops = [] || h'.q_ops = [] -> Vclock.total_compare h.q_ts h'.q_ts < 0
  | None -> (
      match o.established h.q_ts h'.q_ts with
      | Some d -> d
      | None ->
          g.conflict <- true;
          false)

(* The first non-stalled head, in gatekeeper order, that is ≤ every other
   head by established decisions (which the consult must respect), or -1.
   Each scan stops at its first failure: every comparison may count a
   consult. Requires every queue non-empty. *)
let rec le_all g q h q' =
  q' = Array.length g.queues
  || (q = q' || le g h (Queue.peek g.queues.(q'))) && le_all g q h (q' + 1)

let rec minimal_head g q =
  if q = Array.length g.queues then -1
  else
    let h = Queue.peek g.queues.(q) in
    if (not (stalled g h)) && le_all g q h 0 then q else minimal_head g (q + 1)

let pop g q =
  g.last_applied.(q) <- Queue.pop g.queues.(q);
  g.pops.(q)

(* With every head real, one is stalled or in conflict, which is legal
   only while a consult is out *)
let nop_fallback g =
  let best = ref (-1) in
  for q = 0 to Array.length g.queues - 1 do
    let h = Queue.peek g.queues.(q) in
    if h.q_ops = []
       && (!best < 0 || Vclock.total_compare h.q_ts (Queue.peek g.queues.(!best)).q_ts < 0)
    then best := q
  done;
  if !best >= 0 then pop g !best
  else begin
    assert g.consulting;
    Idle
  end

(* Join every queued real transaction still undecided against another to
   the batch, in queue order; the number new to it. Every pair is
   compared, since each comparison may count a consult. *)
let join_undecided g =
  let reals = ref [] in
  Array.iter (Queue.iter (fun e -> if e.q_ops <> [] then reals := e.q_ts :: !reals)) g.queues;
  let arr = Array.of_list (List.rev !reals) in
  let n = Array.length arr in
  let undecided = Array.make n false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if established g.order arr.(i) arr.(j) = None then begin
        undecided.(i) <- true;
        undecided.(j) <- true
      end
    done
  done;
  let fresh = ref 0 in
  Array.iteri
    (fun i ts ->
      if undecided.(i) && not (Hashtbl.mem g.batch ts) then begin
        Hashtbl.replace g.batch ts ();
        g.batch_list <- ts :: g.batch_list;
        incr fresh
      end)
    arr;
  !fresh

let step g =
  if g.fallback then begin
    g.fallback <- false;
    nop_fallback g
  end
  else if all_heads g 0 then begin
    g.conflict <- false;
    let q = minimal_head g 0 in
    if q >= 0 then pop g q
    else if g.conflict then begin
      let fresh = join_undecided g in
      if not g.consulting then begin
        g.consulting <- true;
        g.fallback <- true;
        Start_consult
      end
      else if fresh > 0 then begin
        g.fallback <- true;
        Join_consult
      end
      else nop_fallback g
    end
    else nop_fallback g
  end
  else Idle

let end_consult g =
  let stamps = List.rev g.batch_list in
  g.consulting <- false;
  Hashtbl.reset g.batch;
  g.batch_list <- [];
  stamps

(* ------------------------------------------------------------------ *)
(* The program gate (§4.1). Waiting is always safe, so a check never
   establishes an order before the batch is overdue. Concurrent
   transactions the batch overlaps are ordered transaction-first by the
   visibility decisions at read time (§4.4). *)

let record v how ok =
  v.v_how <- how;
  v.v_ok <- ok;
  ok

(* no established order: wait for clock propagation, or past the patience
   window refine reactively — a NOP (or the last applied stamp) may be
   ordered after the run, since it carries no effects, while a real
   transaction is ordered before it (§4.4), which blocks until that
   transaction is applied *)
let unordered g v ~ts ~overdue (r : queued_tx) ~nop =
  if overdue then record v Established (g.order.before ts r.q_ts ~prefer_first_on_tie:nop)
  else record v Unsettled false

let decide g v ~ts ~overdue (r : queued_tx) ~nop =
  let o = g.order in
  v.v_ts <- r.q_ts;
  v.v_nop <- nop;
  match o.clock ts r.q_ts with
  | Some d -> record v Settled d
  | None when nop -> unordered g v ~ts ~overdue r ~nop
  | None -> (
      match o.established ts r.q_ts with
      | Some d -> record v Established d
      | None -> unordered g v ~ts ~overdue r ~nop)

(* The reference must be the same entry, and an unsettled verdict stands
   only while the batch is not overdue. *)
let valid v ~overdue (r : queued_tx) ~nop =
  v.v_ts == r.q_ts && v.v_nop = nop
  &&
  match v.v_how with
  | Settled | Established -> true
  | Unsettled -> not overdue

(* A repeat counts what a fresh check would: nothing for a settled or
   established verdict, the same oracle query for an unsettled real
   transaction. *)
let replay g v ~ts (r : queued_tx) ~nop =
  match v.v_how with
  | Settled | Established -> v.v_ok
  | Unsettled when nop -> false
  | Unsettled -> (
      match g.order.established ts r.q_ts with
      | Some d -> record v Established d
      | None -> false)

let check g ~ts ~overdue memo =
  let first = memo == no_memo in
  let cells = if first then g.scratch else memo in
  let ok = ref true in
  for gk = 0 to Array.length g.refs - 1 do
    let r = g.refs.(gk) and v = cells.(gk) in
    if r == none then begin
      (* nothing applied or queued yet: wait *)
      v.v_ts <- none.q_ts;
      ok := false
    end
    else begin
      let nop = g.ref_nop.(gk) in
      let cleared =
        if (not first) && valid v ~overdue r ~nop then replay g v ~ts r ~nop
        else decide g v ~ts ~overdue r ~nop
      in
      if not cleared then ok := false
    end
  done;
  !ok

let save g = Array.map (fun v -> { v with v_ts = v.v_ts }) g.scratch

let park g ~ts ~since ~gated item =
  g.parked <-
    { p_ts = ts; p_since = since; p_gated = gated; p_memo = no_memo; p_item = item } :: g.parked

let stamp p = p.p_ts
let since p = p.p_since
let item p = p.p_item

(* A batch that skips the gate ([gated] false) clears at once. *)
let clears g now p =
  (not p.p_gated)
  ||
  let overdue = now -. p.p_since > g.patience in
  let ok = check g ~ts:p.p_ts ~overdue p.p_memo in
  if (not ok) && p.p_memo == no_memo then p.p_memo <- save g;
  ok

(* the batches that clear, in reverse order *)
let rec check_each g now ready = function
  | [] -> ready
  | p :: rest -> check_each g now (if clears g now p then p :: ready else ready) rest

(* the list is rebuilt only when some batch can run *)
let runnable g ~now =
  match g.parked with
  | [] -> []
  | parked -> (
      for gk = 0 to Array.length g.queues - 1 do
        match Queue.peek_opt g.queues.(gk) with
        | Some head ->
            g.refs.(gk) <- head;
            g.ref_nop.(gk) <- head.q_ops = []
        | None ->
            g.refs.(gk) <- g.last_applied.(gk);
            g.ref_nop.(gk) <- true
      done;
      match check_each g now [] parked with
      | [] -> []
      | ready ->
          g.parked <- List.filter (fun p -> not (List.memq p ready)) parked;
          List.rev ready)
