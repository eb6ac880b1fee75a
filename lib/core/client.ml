module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Vclock = Weaver_vclock.Vclock
module Idgen = Weaver_util.Idgen
module Tbl = Weaver_util.Tbl

(* One retry policy governs all three request paths (transactions, node
   programs, migrations): attempts, exponential backoff with deterministic
   jitter, an optional per-request deadline, and failure-aware gatekeeper
   selection. *)
type retry_policy = {
  rp_attempts : int;
  rp_backoff : float;
  rp_backoff_cap : float;
  rp_deadline : float option;
  rp_retry_conflicts : bool;
  rp_route_around : bool;
}

let default_policy =
  {
    rp_attempts = 4;
    rp_backoff = 0.0;
    rp_backoff_cap = 0.0;
    rp_deadline = None;
    rp_retry_conflicts = false;
    rp_route_around = true;
  }

let reliable_policy =
  {
    rp_attempts = 8;
    rp_backoff = 2_000.0;
    rp_backoff_cap = 100_000.0;
    rp_deadline = None;
    rp_retry_conflicts = true;
    rp_route_around = true;
  }

let no_retry_policy =
  {
    rp_attempts = 1;
    rp_backoff = 0.0;
    rp_backoff_cap = 0.0;
    rp_deadline = None;
    rp_retry_conflicts = false;
    rp_route_around = false;
  }

(* an [Msg.Overloaded] rejection, surfaced as Error "shed:<reason>" *)
let is_shed e = String.length e >= 5 && String.equal (String.sub e 0 5) "shed:"

(* timeouts and epoch changes are transient by construction; a shed request
   was rejected before consuming anything, so retrying (after backing off —
   see [backoff_delay]) is always safe; conflicts only when the policy opts
   in (a conflicted transaction did not commit, but callers like
   read-modify-write loops need to re-read first) *)
let retryable policy = function
  | "timeout" | "epoch-change" -> true
  | "snapshot-gced" ->
      (* the requested historical timestamp was compacted away on some
         shard; the caller picks a fresher [at] and the retry succeeds *)
      true
  | "conflict" -> policy.rp_retry_conflicts
  | e -> is_shed e (* else "invalid: ...", "unknown program: ...", stalls *)

(* Retrying a shed request immediately would re-arrive at a gatekeeper
   still saturated (the admission queue drains at gk_op_cost per request):
   overload backoff needs a real floor even under policies configured with
   no backoff at all. 2 ms is two full admission queues at the default
   limit. *)
let overload_backoff_floor = 2_000.0

(* Exponential backoff with deterministic jitter: the spread comes from
   hashing (request id, attempt), not from the engine RNG — consuming
   engine randomness here would perturb every other random stream and
   break bit-reproducibility of runs that differ only in retry timing.
   [error] selects the overload floor for "shed:..." rejections. *)
let backoff_delay ?(error = "") policy ~id ~attempt =
  let base =
    if is_shed error then Float.max policy.rp_backoff overload_backoff_floor
    else policy.rp_backoff
  in
  if base <= 0.0 then 0.0
  else begin
    let d = base *. (2.0 ** float_of_int (attempt - 1)) in
    let cap =
      if policy.rp_backoff_cap > 0.0 then policy.rp_backoff_cap
      else if is_shed error then overload_backoff_floor *. 64.0
      else 0.0
    in
    let d = if cap > 0.0 then Float.min d cap else d in
    let h = Hashtbl.hash (id, attempt) land 0xffff in
    d *. (0.5 +. (float_of_int h /. 131072.0))
  end

(* replies that lost the race with the client-side timeout, kept (bounded)
   so the late reply can still be attributed when it eventually arrives *)
let timed_out_capacity = 512

type t = {
  rt : Runtime.t;
  addr : int;
  ids : Idgen.t;
  mutable next_req : int;
  mutable rr : int;
  mutable timeout : float;
  mutable policy : retry_policy;
  mutable pinned : int option; (* tests: force every request to one gk *)
  (* per-server suspicion expiry, indexed by fixed server address
     (gatekeepers, shards, replicas, manager). Only gatekeeper entries
     steer [next_gk]; the rest exist so suspicion bookkeeping stays
     address-safe when a timeout is attributed to a non-gatekeeper hop
     (e.g. a read routed through a crashed replica). *)
  suspect_until : float array;
  (* pending_tx values carry the attempt number that registered them, so a
     timeout event from a superseded attempt cannot fail a newer one
     registered under the same (reused) transaction id. Every entry holds
     its attempt's timeout, which whatever resolves the entry cancels.
     The three tables are keyed by request id and only ever probed, so
     they hash the id as itself. *)
  pending_tx :
    (int * Engine.timer * (((string * Progval.t) list, string) result -> unit)) Tbl.Probe.t;
  pending_prog : (Engine.timer * ((Progval.t, string) result -> unit)) Tbl.Probe.t;
  timed_out : (float * string) Tbl.Probe.t; (* id -> (issued, kind) *)
  timed_out_q : int Queue.t;
}

let counters t = t.rt.Runtime.counters

let note_timed_out t ~id ~issued ~kind =
  Tbl.Probe.replace t.timed_out id (issued, kind);
  Queue.push id t.timed_out_q;
  while Queue.length t.timed_out_q > timed_out_capacity do
    Tbl.Probe.remove t.timed_out (Queue.pop t.timed_out_q)
  done

(* A reply with no pending entry raced the timeout and lost: the server
   completed the request but the client already reported failure. Count the
   divergence and log it — silently dropping it is how server-side
   tx_committed and client-visible success quietly drift apart. *)
let note_late t ~id ~result =
  (counters t).Runtime.late_replies <- (counters t).Runtime.late_replies + 1;
  match Tbl.Probe.find_opt t.timed_out id with
  | Some (issued, kind) ->
      Tbl.Probe.remove t.timed_out id;
      Runtime.slow_record t.rt ~trace:id ~kind ~start:issued
        ~stop:(Engine.now t.rt.Runtime.engine)
        ~result:("late:" ^ result)
  | None -> ()

(* any fixed server (gatekeeper, shard, replica) that answered is not a
   black hole: clear its entry. Client-to-client messages don't exist, but
   the bounds check keeps this total over every [src] the net can carry. *)
let clear_suspicion t src =
  if src >= 0 && src < Array.length t.suspect_until then
    t.suspect_until.(src) <- 0.0

(* Resolve a pending request: drop its entry and withdraw its timeout, so
   an answered request leaves no event behind. *)
let take_tx t id =
  match Tbl.Probe.find_opt t.pending_tx id with
  | Some (_, timer, cb) ->
      Tbl.Probe.remove t.pending_tx id;
      Tbl.Probe.remove t.timed_out id;
      Engine.cancel t.rt.Runtime.engine timer;
      Some cb
  | None -> None

let take_prog t id =
  match Tbl.Probe.find_opt t.pending_prog id with
  | Some (timer, cb) ->
      Tbl.Probe.remove t.pending_prog id;
      Tbl.Probe.remove t.timed_out id;
      Engine.cancel t.rt.Runtime.engine timer;
      Some cb
  | None -> None

let handle t ~src msg =
  match (msg : Msg.t) with
  | Msg.Tx_reply { tx_id; result; reads } -> (
      clear_suspicion t src;
      match take_tx t tx_id with
      | Some cb -> cb (Result.map (fun () -> reads) result)
      | None ->
          note_late t ~id:tx_id
            ~result:(match result with Ok () -> "ok" | Error e -> e))
  | Msg.Prog_reply { prog_id; result } -> (
      clear_suspicion t src;
      match take_prog t prog_id with
      | Some cb -> cb result
      | None ->
          note_late t ~id:prog_id
            ~result:(match result with Ok _ -> "ok" | Error e -> e))
  | Msg.Overloaded { req_id; reason } -> (
      (* shed at admission (overload management): resolve whichever pending
         table holds the request. Deliberately NOT [clear_suspicion]: an
         Overloaded reply proves the gatekeeper is alive but says nothing
         good about sending it more traffic right now. *)
      let err = "shed:" ^ reason in
      match take_tx t req_id with
      | Some cb -> cb (Error err)
      | None -> (
          match take_prog t req_id with
          | Some cb -> cb (Error err)
          | None -> note_late t ~id:req_id ~result:err))
  | _ -> ()

let create rt =
  let t =
    {
      rt;
      addr = Runtime.fresh_client_addr rt;
      ids = Idgen.create ();
      next_req = 0;
      rr = 0;
      timeout = 3_000_000.0;
      policy = default_policy;
      pinned = None;
      suspect_until = Array.make (Runtime.manager_addr rt + 1) 0.0;
      pending_tx = Tbl.Probe.create 16;
      pending_prog = Tbl.Probe.create 16;
      timed_out = Tbl.Probe.create 16;
      timed_out_q = Queue.create ();
    }
  in
  Runtime.register rt t.addr (fun ~src msg -> handle t ~src msg);
  t

let addr t = t.addr
let set_timeout t d = t.timeout <- d
let set_retry_policy t p = t.policy <- p
let set_gatekeeper t g = t.pinned <- g

(* Failure-aware gatekeeper selection: round-robin, but skip gatekeepers
   under suspicion (a recent timeout). When every gatekeeper is suspected
   the plain round-robin choice stands — a black hole is still better than
   not sending, and the probe is what eventually clears the suspicion. *)
let next_gk t ~route =
  match t.pinned with
  | Some g -> g
  | None ->
      let n = t.rt.Runtime.cfg.Config.n_gatekeepers in
      let now = Engine.now t.rt.Runtime.engine in
      let rec pick tries =
        let g = t.rr mod n in
        t.rr <- t.rr + 1;
        if (not route) || tries >= n || t.suspect_until.(g) <= now then g
        else pick (tries + 1)
      in
      pick 0

let suspect t g =
  if g >= 0 && g < Array.length t.suspect_until then begin
    let until = Engine.now t.rt.Runtime.engine +. (2.0 *. t.timeout) in
    if until > t.suspect_until.(g) then t.suspect_until.(g) <- until
  end

let fresh_req t =
  t.next_req <- t.next_req + 1;
  (t.addr * 1_000_000) + t.next_req

(* request ids double as trace ids; expose the newest so callers can look
   up the request's span tree after the reply *)
let last_request_id t = (t.addr * 1_000_000) + t.next_req

module Tx = struct
  type tx = { client : t; mutable ops : Txop.t list (* newest first *) }

  let begin_ client = { client; ops = [] }
  let add tx op = tx.ops <- op :: tx.ops

  let create_vertex tx ?id () =
    let vid =
      match id with
      | Some id -> id
      | None -> Printf.sprintf "v%d_%d" tx.client.addr (Idgen.next tx.client.ids)
    in
    add tx (Txop.Create_vertex vid);
    vid

  let delete_vertex tx vid = add tx (Txop.Delete_vertex vid)

  let create_edge tx ~src ~dst =
    let eid = Printf.sprintf "e%d_%d" tx.client.addr (Idgen.next tx.client.ids) in
    add tx (Txop.Create_edge { eid; src; dst });
    eid

  let delete_edge tx ~src ~eid = add tx (Txop.Delete_edge { eid; src })

  let set_vertex_prop tx ~vid ~key ~value = add tx (Txop.Set_vertex_prop { vid; key; value })
  let del_vertex_prop tx ~vid ~key = add tx (Txop.Del_vertex_prop { vid; key })

  let set_edge_prop tx ~src ~eid ~key ~value =
    add tx (Txop.Set_edge_prop { src; eid; key; value })

  let del_edge_prop tx ~src ~eid ~key = add tx (Txop.Del_edge_prop { src; eid; key })
  let read_vertex tx vid = add tx (Txop.Read_vertex vid)
  let op_count tx = List.length tx.ops
end

let within_deadline policy ~engine ~first_issued =
  match policy.rp_deadline with
  | None -> true
  | Some d -> Engine.now engine -. first_issued < d

(* The transaction/migration submission loop. Every attempt reuses the SAME
   transaction id: the gatekeepers' duplicate-suppression window keys on
   (client, tx_id), so a retry of a timed-out-but-committed attempt is
   answered Ok instead of double-applied — and a late original reply simply
   resolves the current attempt (same pending-table key). Each resolved
   attempt (reply or timeout) lands in the slow-request log. *)
let submit_tx t ~kind ~policy ~mk_msg ~on_result =
  let engine = t.rt.Runtime.engine in
  let tx_id = fresh_req t in
  let first_issued = Engine.now engine in
  let rec attempt n =
    let issued = Engine.now engine in
    let gk = next_gk t ~route:policy.rp_route_around in
    let finish r =
      Runtime.slow_record t.rt ~trace:tx_id ~kind ~start:issued
        ~stop:(Engine.now engine)
        ~result:(match r with Ok _ -> "ok" | Error e -> e);
      match r with
      | Error e
        when retryable policy e
             && n < policy.rp_attempts
             && within_deadline policy ~engine ~first_issued ->
          (counters t).Runtime.client_retries <-
            (counters t).Runtime.client_retries + 1;
          Engine.schedule engine
            ~delay:(backoff_delay ~error:e policy ~id:tx_id ~attempt:n)
            (fun () -> attempt (n + 1))
      | r -> on_result r
    in
    Runtime.send t.rt ~src:t.addr ~dst:(Runtime.gk_addr t.rt gk) (mk_msg tx_id);
    let timer =
      Engine.timeout engine ~delay:t.timeout (fun () ->
          match Tbl.Probe.find_opt t.pending_tx tx_id with
          | Some (n', _, cb) when n' = n ->
              (* this timer has fired: there is nothing left to cancel *)
              Tbl.Probe.remove t.pending_tx tx_id;
              suspect t gk;
              note_timed_out t ~id:tx_id ~issued ~kind;
              cb (Error "timeout")
          | _ -> () (* resolved, or superseded by a newer attempt *))
    in
    Tbl.Probe.replace t.pending_tx tx_id (n, timer, finish)
  in
  attempt 1

let commit_with_reads_policy t ~policy (tx : Tx.tx) ~on_result =
  let ops = List.rev tx.Tx.ops in
  submit_tx t ~kind:"tx" ~policy
    ~mk_msg:(fun tx_id -> Msg.Tx_req { client = t.addr; tx_id; ops })
    ~on_result

let commit_with_reads_async t tx ~on_result =
  commit_with_reads_policy t ~policy:t.policy tx ~on_result

let commit_async t tx ~on_result =
  commit_with_reads_async t tx ~on_result:(fun r -> on_result (Result.map ignore r))

let run_program_async t ~prog ~params ~starts ?at ?(consistency = `Strong) ~on_result () =
  let engine = t.rt.Runtime.engine in
  let policy = t.policy in
  let first_issued = Engine.now engine in
  let rec attempt n =
    (* unlike transactions, each attempt is a fresh request id: programs
       are read-only, so there is nothing to deduplicate, and distinct ids
       keep every attempt's trace/slowlog entry separate *)
    let prog_id = fresh_req t in
    let issued = Engine.now engine in
    let gk = next_gk t ~route:policy.rp_route_around in
    let finish r =
      Runtime.slow_record t.rt ~trace:prog_id ~kind:"prog" ~start:issued
        ~stop:(Engine.now engine)
        ~result:(match r with Ok _ -> "ok" | Error e -> e);
      match r with
      | Error e
        when retryable policy e
             && n < policy.rp_attempts
             && within_deadline policy ~engine ~first_issued ->
          (counters t).Runtime.client_retries <-
            (counters t).Runtime.client_retries + 1;
          Engine.schedule engine
            ~delay:(backoff_delay ~error:e policy ~id:prog_id ~attempt:n)
            (fun () -> attempt (n + 1))
      | r -> on_result r
    in
    Runtime.send t.rt ~src:t.addr ~dst:(Runtime.gk_addr t.rt gk)
      (Msg.Prog_req
         { client = t.addr; prog_id; prog; params; starts; at; weak = consistency = `Weak });
    let timer =
      Engine.timeout engine ~delay:t.timeout (fun () ->
          match Tbl.Probe.find_opt t.pending_prog prog_id with
          | Some (_, cb) ->
              Tbl.Probe.remove t.pending_prog prog_id;
              suspect t gk;
              note_timed_out t ~id:prog_id ~issued ~kind:"prog";
              cb (Error "timeout")
          | None -> ())
    in
    Tbl.Probe.replace t.pending_prog prog_id (timer, finish)
  in
  attempt 1

let migrate_async t ~vid ~to_shard ~on_result =
  submit_tx t ~kind:"migrate" ~policy:t.policy
    ~mk_msg:(fun tx_id -> Msg.Migrate_req { client = t.addr; tx_id; vid; to_shard })
    ~on_result:(fun r -> on_result (Result.map ignore r))

(* Drive the simulation in bounded slices until the callback fires. The
   engine never idles (periodic server timers), so run in windows. *)
let sync_wait rt result =
  let budget = ref 120_000 in
  while Option.is_none !result && !budget > 0 do
    decr budget;
    let target = Engine.now rt.Runtime.engine +. 1_000.0 in
    Engine.run ~until:target rt.Runtime.engine
  done;
  match !result with Some r -> r | None -> Error "simulation stalled"

let commit t tx =
  let result = ref None in
  commit_async t tx ~on_result:(fun r -> result := Some r);
  sync_wait t.rt result

let commit_with_retry ?(attempts = 5) t tx =
  (* the session policy, widened to cover OCC conflicts too (a fresh
     submission gets a fresh, higher timestamp) and to honour [attempts] *)
  let policy =
    { t.policy with rp_attempts = max attempts t.policy.rp_attempts; rp_retry_conflicts = true }
  in
  let result = ref None in
  commit_with_reads_policy t ~policy tx ~on_result:(fun r ->
      result := Some (Result.map ignore r));
  sync_wait t.rt result

let commit_with_reads t tx =
  let result = ref None in
  commit_with_reads_async t tx ~on_result:(fun r -> result := Some r);
  sync_wait t.rt result

let migrate t ~vid ~to_shard =
  let result = ref None in
  migrate_async t ~vid ~to_shard ~on_result:(fun r -> result := Some r);
  sync_wait t.rt result

let run_program t ~prog ~params ~starts ?at ?consistency () =
  let result = ref None in
  run_program_async t ~prog ~params ~starts ?at ?consistency
    ~on_result:(fun r -> result := Some r)
    ();
  sync_wait t.rt result
