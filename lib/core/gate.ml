module Vclock = Weaver_vclock.Vclock

type queued_tx = {
  q_ts : Vclock.t;
  q_ops : Msg.shard_op list;
  q_trace : int;
  q_enq : float;
  mutable q_ordered : bool;
}

let none =
  { q_ts = Vclock.zero ~n:1; q_ops = []; q_trace = 0; q_enq = 0.0; q_ordered = false }

(* How a verdict was reached, which says what a fresh check would do:
   [Settled] by vector clocks (nothing more, ever); [Cached] from a cache
   entry (count one hit; entries never change); [Unsettled] after a miss
   with no established order (the same miss while the cache keeps its
   size, then for a real transaction the same oracle query). *)
type how = Settled | Cached | Unsettled

type verdict = {
  mutable v_ts : Vclock.t;  (* the reference stamp, compared physically *)
  mutable v_nop : bool;  (* checked as effect-free *)
  mutable v_ok : bool;
  mutable v_how : how;
  mutable v_size : int;  (* cache size when an [Unsettled] verdict was reached *)
}

type memo = verdict array

type t = {
  rt : Runtime.t;
  cache : Runtime.decision_cache;
  refs : queued_tx array;
  ref_nop : bool array;
  scratch : memo;
  mutable fresh_only : bool;
}

let no_memo : memo = [||]

let blank () = { v_ts = none.q_ts; v_nop = false; v_ok = false; v_how = Settled; v_size = 0 }

let create rt cache ~queues ~fresh_only =
  {
    rt;
    cache;
    refs = Array.make queues none;
    ref_nop = Array.make queues false;
    scratch = Array.init queues (fun _ -> blank ());
    fresh_only;
  }

let set_ref g gk r ~nop =
  g.refs.(gk) <- r;
  g.ref_nop.(gk) <- nop

let fresh_only g = g.fresh_only
let stop_skipping g = g.fresh_only <- false

(* The cache-key invariant behind both skipped probes.

   (1) Every stamp a gatekeeper mints ([Gatekeeper.tick]: transactions,
       NOPs and fresh program runs) is unique under the cache's equality
       ([Vclock.identical]): a tick raises the minter's own component, two
       ticks from different gatekeepers cannot carry equal clocks, as each
       would have to have seen the other first, and stamps of different
       epochs differ in the epoch.
   (2) Only [Runtime.before] and [Runtime.before_established] write the
       cache. Their pairs are: a run against a queue head or last applied
       stamp (this gate); two queued real transactions ([le] and the
       consult closure); a run against vertex versions (program reads); a
       real transaction against vertex versions (property writes).
   (3) Version stamps are real transaction ticks or all-zero load stamps
       (a restored image's foreign stamps end [fresh_only],
       [Runtime.foreign_stamps]), and queued transactions are never
       queued twice: the shard's only replay, a crash-restart [resync],
       ends [fresh_only] too.

   So while every run here is fresh ([fresh_only]), a pair that holds a
   queued NOP's stamp enters the cache only through the overdue path
   below, as (run, NOP): [le]'s pairs of two queued stamps never hit, and
   a run's probe against a NOP hits only if that NOP was ordered against
   a run through the overdue path ([q_ordered]), since the run stamp is
   unique. A historical run's stamp is the client's, and a weak run
   re-stamped at its followers' watermark carries a [Runtime.stamp_min]
   of gatekeeper clocks, which can equal any tick: either may alias a
   queued stamp, so [fresh_only] ends when a historical run arrives and
   is off from the start when the cluster can re-stamp weak runs. *)
let skips g (r : queued_tx) = g.fresh_only && r.q_ops = [] && not r.q_ordered

let settle v ok =
  v.v_how <- Settled;
  v.v_ok <- ok;
  ok

let cached v ok =
  v.v_how <- Cached;
  v.v_ok <- ok;
  ok

(* no established order: wait for clock propagation, or past the patience
   window refine reactively — a NOP (or the last applied stamp) may be
   ordered after the run, since it carries no effects, while a real
   transaction is ordered before it (§4.4), which blocks until that
   transaction is applied *)
let unordered g v ~ts ~overdue (r : queued_tx) ~nop =
  if overdue then begin
    let d = Runtime.before g.cache g.rt ts r.q_ts ~prefer_first_on_tie:nop in
    if r.q_ops = [] then r.q_ordered <- true;
    cached v d
  end
  else begin
    v.v_how <- Unsettled;
    v.v_ok <- false;
    v.v_size <- Runtime.cache_size g.cache;
    false
  end

(* The check the gate has always made, recording how it was reached. An
   effect-free reference is checked against the local cache only; a real
   transaction may additionally consult pre-established oracle state. *)
let decide g v ~ts ~overdue (r : queued_tx) ~nop =
  v.v_ts <- r.q_ts;
  v.v_nop <- nop;
  match Runtime.before_by_clock ts r.q_ts with
  | Some d -> settle v d
  | None -> (
      let hit =
        if nop && skips g r then begin
          Runtime.skipped_probe g.cache g.rt ts r.q_ts;
          None
        end
        else Runtime.probe g.cache g.rt ts r.q_ts
      in
      match hit with
      | Some d -> cached v d
      | None when nop -> unordered g v ~ts ~overdue r ~nop
      | None -> (
          match Runtime.consult_established g.cache g.rt ts r.q_ts with
          | Some d -> cached v d
          | None -> unordered g v ~ts ~overdue r ~nop))

(* a fresh check would reach this verdict the same way *)
let valid g v ~overdue (r : queued_tx) ~nop =
  v.v_ts == r.q_ts && v.v_nop = nop
  &&
  match v.v_how with
  | Settled | Cached -> true
  | Unsettled -> (not overdue) && v.v_size = Runtime.cache_size g.cache

(* repeat a valid verdict's counted work: a cache hit is counted again,
   and an unsettled real transaction is put to the oracle again *)
let replay g v ~ts ~overdue (r : queued_tx) ~nop =
  match v.v_how with
  | Settled -> v.v_ok
  | Cached ->
      let c = g.rt.Runtime.counters in
      c.Runtime.oracle_cache_hits <- c.Runtime.oracle_cache_hits + 1;
      v.v_ok
  | Unsettled when nop -> false
  | Unsettled -> (
      match Runtime.consult_established g.cache g.rt ts r.q_ts with
      | Some d -> cached v d
      | None -> unordered g v ~ts ~overdue r ~nop)

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
        if (not first) && valid g v ~overdue r ~nop then replay g v ~ts ~overdue r ~nop
        else decide g v ~ts ~overdue r ~nop
      in
      if not cleared then ok := false
    end
  done;
  !ok

let save g = Array.map (fun v -> { v with v_ts = v.v_ts }) g.scratch
