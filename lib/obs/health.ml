(* Cluster health watchdog: a periodic evaluation of derived signals over
   instruments that already exist in the metrics registry — no new probes
   on any hot path. Each check receives the registry snapshot
   ([Metrics.int_values]) plus the cluster's current GC watermark key, and
   compares against its own previous observations:

   - watermark   the watermark key unchanged for N consecutive checks
                 (GC cannot advance: a dead/partitioned gatekeeper, or
                 a wedged oldest-active transaction);
   - queue       total shard queue depth growing monotonically across the
                 trend window (arrival rate has outrun drain rate);
   - shed        queue/deadline sheds as a fraction of requests resolved
                 this window (admission control actively dropping load);
   - credit      credit-starvation sheds as a fraction of requests
                 resolved this window (a shard column drained);
   - skew        max/mean per-shard busy-time delta this window (one
                 shard carrying the cluster);
   - late        late replies as a fraction of commits this window
                 (servers answering after clients gave up).

   Alerts are edge-triggered: one alert when a signal crosses into Warn
   or escalates to Crit, one Info when it recovers — not one per check —
   and land in a bounded ring (slowlog-style) plus per-severity totals
   that surface as registry gauges and in [Cluster.report].

   Evaluation is pure bookkeeping over the passed snapshot: no events,
   no RNG, no messages. With the gate off nothing is even sampled, so
   counter fingerprints are bit-identical to baseline (test-enforced). *)

type severity = Info | Warn | Crit

let severity_name = function Info -> "info" | Warn -> "warn" | Crit -> "crit"
let severity_rank = function Info -> 0 | Warn -> 1 | Crit -> 2

type alert = {
  a_time : float;
  a_severity : severity;
  a_signal : string;
  a_detail : string;
}

type config = {
  stall_checks : int;  (* watermark frozen for N checks -> Warn, 2N -> Crit *)
  queue_trend_checks : int;  (* queue total rising across N checks -> Warn *)
  queue_floor : int;  (* ignore queue trends below this absolute depth *)
  shed_warn : float;  (* shed fraction of window resolutions -> Warn, 2x -> Crit *)
  skew_warn : float;  (* max/mean busy delta -> Warn, 2x -> Crit *)
  late_warn : float;  (* late replies / commits -> Warn *)
  capacity : int;  (* alert ring size *)
}

let default_config =
  {
    stall_checks = 5;
    queue_trend_checks = 4;
    queue_floor = 8;
    shed_warn = 0.05;
    skew_warn = 3.0;
    late_warn = 0.05;
    capacity = 128;
  }

type t = {
  cfg : config;
  ring : alert Queue.t;
  active : (string, severity) Hashtbl.t;  (* currently-firing signals *)
  mutable checks : int;
  mutable n_info : int;
  mutable n_warn : int;
  mutable n_crit : int;
  mutable prev_values : (string, int) Hashtbl.t;
  mutable prev_watermark : string option;
  mutable stall_count : int;
  mutable queue_history : int list;  (* newest first, bounded *)
}

let create ?(config = default_config) () =
  if config.capacity <= 0 then invalid_arg "Health.create: capacity must be positive";
  if config.stall_checks <= 0 then invalid_arg "Health.create: stall_checks must be positive";
  if config.queue_trend_checks <= 0 then
    invalid_arg "Health.create: queue_trend_checks must be positive";
  {
    cfg = config;
    ring = Queue.create ();
    active = Hashtbl.create 8;
    checks = 0;
    n_info = 0;
    n_warn = 0;
    n_crit = 0;
    prev_values = Hashtbl.create 64;
    prev_watermark = None;
    stall_count = 0;
    queue_history = [];
  }

let checks t = t.checks
let alert_counts t = (t.n_info, t.n_warn, t.n_crit)
let alerts t = List.rev (Queue.fold (fun acc a -> a :: acc) [] t.ring)

let push t a =
  (match a.a_severity with
  | Info -> t.n_info <- t.n_info + 1
  | Warn -> t.n_warn <- t.n_warn + 1
  | Crit -> t.n_crit <- t.n_crit + 1);
  Queue.push a t.ring;
  if Queue.length t.ring > t.cfg.capacity then ignore (Queue.pop t.ring)

(* edge-triggering: alert on entering Warn/Crit or escalating; Info once on
   recovery; de-escalation (Crit -> Warn) just lowers the armed level *)
let resolve t ~now ~signal ~desired ~detail =
  let current = Hashtbl.find_opt t.active signal in
  match (current, desired) with
  | None, None -> ()
  | None, Some sev ->
      Hashtbl.replace t.active signal sev;
      push t { a_time = now; a_severity = sev; a_signal = signal; a_detail = detail }
  | Some _, None ->
      Hashtbl.remove t.active signal;
      push t
        { a_time = now; a_severity = Info; a_signal = signal; a_detail = "recovered" }
  | Some cur, Some sev ->
      if severity_rank sev > severity_rank cur then
        push t { a_time = now; a_severity = sev; a_signal = signal; a_detail = detail };
      Hashtbl.replace t.active signal sev

let has_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let has_prefix ~prefix s =
  let ls = String.length s and lx = String.length prefix in
  ls >= lx && String.sub s 0 lx = prefix

let observe t ~now ~watermark ~values =
  t.checks <- t.checks + 1;
  let v name = match List.assoc_opt name values with Some x -> x | None -> 0 in
  let prev name =
    match Hashtbl.find_opt t.prev_values name with Some x -> x | None -> 0
  in
  let delta name = v name - prev name in
  (* --- watermark stall ------------------------------------------------ *)
  (match watermark with
  | None -> t.stall_count <- 0 (* no watermark gossip yet: no signal *)
  | Some wm ->
      if t.prev_watermark = Some wm then t.stall_count <- t.stall_count + 1
      else t.stall_count <- 0);
  t.prev_watermark <- watermark;
  let wm_desired =
    if t.stall_count >= 2 * t.cfg.stall_checks then Some Crit
    else if t.stall_count >= t.cfg.stall_checks then Some Warn
    else None
  in
  resolve t ~now ~signal:"watermark" ~desired:wm_desired
    ~detail:(Printf.sprintf "no advance for %d checks" t.stall_count);
  (* --- queue-depth growth trend --------------------------------------- *)
  let queue_total =
    List.fold_left
      (fun acc (name, x) ->
        if has_suffix ~suffix:".queue_depth" name then acc + x else acc)
      0 values
  in
  t.queue_history <-
    (let h = queue_total :: t.queue_history in
     List.filteri (fun i _ -> i <= t.cfg.queue_trend_checks) h);
  let rising =
    List.length t.queue_history > t.cfg.queue_trend_checks
    && (let rec strictly_desc = function
          (* newest first: rising in time = strictly descending here *)
          | a :: (b :: _ as rest) -> a > b && strictly_desc rest
          | _ -> true
        in
        strictly_desc t.queue_history)
  in
  let q_desired =
    if rising && queue_total >= 4 * t.cfg.queue_floor then Some Crit
    else if rising && queue_total >= t.cfg.queue_floor then Some Warn
    else None
  in
  resolve t ~now ~signal:"queue" ~desired:q_desired
    ~detail:
      (Printf.sprintf "depth %d rising for %d checks" queue_total
         t.cfg.queue_trend_checks);
  (* --- shed and credit-starvation rates (flow) ------------------------ *)
  let shed_qd = delta "flow.shed_queue_full" + delta "flow.shed_deadline" in
  let shed_credit = delta "flow.shed_credit" in
  let resolved =
    delta "tx.committed" + delta "tx.aborted" + delta "tx.invalid"
    + delta "prog.completed" + shed_qd + shed_credit
  in
  let fraction n = float_of_int n /. float_of_int (max 1 resolved) in
  let rate_desired frac =
    if frac >= 2.0 *. t.cfg.shed_warn then Some Crit
    else if frac >= t.cfg.shed_warn then Some Warn
    else None
  in
  resolve t ~now ~signal:"shed"
    ~desired:(rate_desired (fraction shed_qd))
    ~detail:(Printf.sprintf "%d of %d requests shed this window" shed_qd resolved);
  resolve t ~now ~signal:"credit"
    ~desired:(rate_desired (fraction shed_credit))
    ~detail:
      (Printf.sprintf "%d of %d requests credit-starved this window" shed_credit
         resolved);
  (* --- per-shard load skew (busy-time deltas this window) ------------- *)
  let busy =
    List.filter_map
      (fun (name, x) ->
        if has_prefix ~prefix:"util.shard" name && has_suffix ~suffix:".busy_us" name
        then Some (x - prev name)
        else None)
      values
  in
  let n_shards = List.length busy in
  let skew_desired, skew_ratio =
    if n_shards < 2 then (None, 0.0)
    else begin
      let sum = List.fold_left ( + ) 0 busy in
      let max_d = List.fold_left max 0 busy in
      let mean = float_of_int sum /. float_of_int n_shards in
      if mean <= 0.0 then (None, 0.0)
      else begin
        let ratio = float_of_int max_d /. mean in
        ( (if ratio >= 2.0 *. t.cfg.skew_warn then Some Crit
           else if ratio >= t.cfg.skew_warn then Some Warn
           else None),
          ratio )
      end
    end
  in
  resolve t ~now ~signal:"skew" ~desired:skew_desired
    ~detail:(Printf.sprintf "max/mean shard load %.2f this window" skew_ratio);
  (* --- late-reply rate ------------------------------------------------ *)
  let late = delta "client.late_replies" in
  let late_frac = float_of_int late /. float_of_int (max 1 (delta "tx.committed")) in
  resolve t ~now ~signal:"late"
    ~desired:
      (if late > 0 && late_frac >= 2.0 *. t.cfg.late_warn then Some Crit
       else if late > 0 && late_frac >= t.cfg.late_warn then Some Warn
       else None)
    ~detail:(Printf.sprintf "%d late replies this window" late);
  (* snapshot for next window's deltas *)
  let next = Hashtbl.create (List.length values) in
  List.iter (fun (name, x) -> Hashtbl.replace next name x) values;
  t.prev_values <- next

let render t =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "health: %d checks, alerts %d info / %d warn / %d crit\n" t.checks
       t.n_info t.n_warn t.n_crit);
  List.iteri
    (fun i a ->
      Buffer.add_string b
        (Printf.sprintf "%2d. @%-10.0f %-5s %-10s %s\n" (i + 1) a.a_time
           (severity_name a.a_severity) a.a_signal a.a_detail))
    (alerts t);
  Buffer.contents b

module Json = Weaver_util.Json

let to_json t =
  let alert a =
    Json.Obj
      [
        ("t_us", Json.fixed 1 a.a_time);
        ("severity", Json.Str (severity_name a.a_severity));
        ("signal", Json.Str a.a_signal);
        ("detail", Json.Str a.a_detail);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("checks", Json.int t.checks);
         ("info", Json.int t.n_info);
         ("warn", Json.int t.n_warn);
         ("crit", Json.int t.n_crit);
         ("alerts", Json.List (List.map alert (alerts t)));
       ])
