type addr = int
type latency = Weaver_util.Xrand.t -> src:addr -> dst:addr -> float

type 'm endpoint = {
  mutable handler : src:addr -> 'm -> unit;
  mutable alive : bool;
}

(* Per-(src,dst) mailbox. Messages queue here in send order and one
   preallocated [c_deliver] closure is scheduled per message, so the
   engine heap carries no per-message closure or record. Delivery events
   on one channel fire in send order (their times are non-decreasing by
   the FIFO floor and their engine sequence numbers increase), so popping
   the queue head at each firing delivers exactly the right message.

   The channel record is removed when its in-flight count drains to 0 —
   this is also what bounds the FIFO-floor state: the old implementation
   kept a [last_delivery] entry per (src,dst) pair forever. Dropping the
   floor at drain time is safe because the clock has then reached the
   floor, so any later send's arrival time already respects it. *)
type 'm channel = {
  c_src : addr;
  c_dst : addr;
  c_msgs : 'm Queue.t;
  mutable c_floor : float; (* last scheduled delivery time *)
  mutable c_load : int; (* in flight on this channel *)
  mutable c_deliver : unit -> unit;
}

(* Tables keyed by addresses and directed links hash the ints directly
   instead of walking the key through the runtime's generic hash; none of
   them is ever iterated, so the hash function decides nothing but
   speed. *)
module Addr_tbl = Hashtbl.Make (struct
  type t = addr

  let equal = Int.equal
  let hash a = a land max_int
end)

module Link_tbl = Hashtbl.Make (struct
  type t = addr * addr

  let equal ((s : int), (d : int)) (s', d') = s = s' && d = d'
  let hash (s, d) = ((s * 65599) + d) land max_int
end)

type 'm t = {
  engine : Engine.t;
  latency : latency;
  rng : Weaver_util.Xrand.t;
  endpoints : 'm endpoint Addr_tbl.t;
  channels : 'm channel Link_tbl.t;
  mutable sent : int;
  mutable delivered : int;
  mutable suppressed : int; (* sends attempted by dead endpoints *)
  (* messages whose delivery event found the destination dead (or never
     registered): genuine loss, as opposed to latency. Kept per destination
     so chaos runs can see which endpoint was black-holing traffic. *)
  mutable dropped : int;
  drops_by_dst : (addr, int) Hashtbl.t;
  (* queue-depth instrumentation: messages on the wire, globally and per
     (src,dst) channel, with high-water marks. Decremented when the
     delivery event fires, whether or not the destination is still alive. *)
  mutable in_flight : int;
  mutable in_flight_hwm : int;
  mutable channel_hwm : int;
  mutable tracer : (time:float -> src:addr -> dst:addr -> 'm -> unit) option;
  (* fault-injection latency degradation: a global multiplier plus optional
     per-directed-link multipliers, applied on top of the latency model.
     Factors scale a value the model already drew, so changing them never
     consumes extra randomness — runs with factors pinned at 1.0 are
     bit-identical to runs on a network without the feature. *)
  mutable latency_factor : float;
  link_factors : float Link_tbl.t;
}

let uniform_latency ~base ~jitter rng ~src:_ ~dst:_ =
  base +. if jitter > 0.0 then Weaver_util.Xrand.float rng jitter else 0.0

let local_latency : latency = fun rng -> uniform_latency ~base:50.0 ~jitter:20.0 rng

let create engine ~latency =
  {
    engine;
    latency;
    rng = Weaver_util.Xrand.split (Engine.rng engine);
    endpoints = Addr_tbl.create 64;
    channels = Link_tbl.create 256;
    sent = 0;
    delivered = 0;
    suppressed = 0;
    dropped = 0;
    drops_by_dst = Hashtbl.create 16;
    in_flight = 0;
    in_flight_hwm = 0;
    channel_hwm = 0;
    tracer = None;
    latency_factor = 1.0;
    link_factors = Link_tbl.create 16;
  }

let register t addr handler =
  match Addr_tbl.find_opt t.endpoints addr with
  | Some ep ->
      ep.handler <- handler;
      ep.alive <- true
  | None -> Addr_tbl.replace t.endpoints addr { handler; alive = true }

let set_alive t addr alive =
  match Addr_tbl.find_opt t.endpoints addr with
  | Some ep -> ep.alive <- alive
  | None -> ()

let is_alive t addr =
  match Addr_tbl.find_opt t.endpoints addr with
  | Some ep -> ep.alive
  | None -> false

let set_tracer t tracer = t.tracer <- tracer

let set_latency_factor t f = t.latency_factor <- Float.max 0.0 f
let latency_factor t = t.latency_factor

let set_link_factor t ~src ~dst f =
  if f = 1.0 then Link_tbl.remove t.link_factors (src, dst)
  else Link_tbl.replace t.link_factors (src, dst) (Float.max 0.0 f)

let link_factor t ~src ~dst =
  if Link_tbl.length t.link_factors = 0 then 1.0
  else match Link_tbl.find_opt t.link_factors (src, dst) with Some f -> f | None -> 1.0

(* one delivery event fired: hand the channel's head message to the
   destination (or count the drop), retiring the channel when drained *)
let deliver_one t ch =
  let msg = Queue.pop ch.c_msgs in
  t.in_flight <- t.in_flight - 1;
  ch.c_load <- ch.c_load - 1;
  if ch.c_load = 0 then Link_tbl.remove t.channels (ch.c_src, ch.c_dst);
  match Addr_tbl.find_opt t.endpoints ch.c_dst with
  | Some ep when ep.alive ->
      t.delivered <- t.delivered + 1;
      ep.handler ~src:ch.c_src msg
  | _ ->
      t.dropped <- t.dropped + 1;
      let n =
        match Hashtbl.find_opt t.drops_by_dst ch.c_dst with Some n -> n | None -> 0
      in
      Hashtbl.replace t.drops_by_dst ch.c_dst (n + 1)

let channel t key src dst =
  match Link_tbl.find_opt t.channels key with
  | Some ch -> ch
  | None ->
      let ch =
        {
          c_src = src;
          c_dst = dst;
          c_msgs = Queue.create ();
          c_floor = neg_infinity;
          c_load = 0;
          c_deliver = ignore;
        }
      in
      ch.c_deliver <- (fun () -> deliver_one t ch);
      Link_tbl.replace t.channels key ch;
      ch

let send t ~src ~dst msg =
  let src_alive =
    match Addr_tbl.find_opt t.endpoints src with
    | Some ep -> ep.alive
    | None -> true (* unregistered senders (e.g. external clients) are fine *)
  in
  (* a dead endpoint's send never reaches the wire: it must not count
     towards message overhead nor reach the tracer, or the experiments'
     messages-per-request numbers inflate under failure injection *)
  if not src_alive then t.suppressed <- t.suppressed + 1
  else begin
    t.sent <- t.sent + 1;
    (match t.tracer with
    | Some f -> f ~time:(Engine.now t.engine) ~src ~dst msg
    | None -> ());
    let lat =
      t.latency t.rng ~src ~dst *. t.latency_factor *. link_factor t ~src ~dst
    in
    let arrival = Engine.now t.engine +. Float.max 0.0 lat in
    let ch = channel t (src, dst) src dst in
    (* FIFO per channel: never deliver before the previous message *)
    let floor_time = Float.max arrival ch.c_floor in
    ch.c_floor <- floor_time;
    ch.c_load <- ch.c_load + 1;
    Queue.push msg ch.c_msgs;
    t.in_flight <- t.in_flight + 1;
    if t.in_flight > t.in_flight_hwm then t.in_flight_hwm <- t.in_flight;
    if ch.c_load > t.channel_hwm then t.channel_hwm <- ch.c_load;
    Engine.schedule_at t.engine ~time:floor_time ch.c_deliver
  end

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_suppressed t = t.suppressed
let messages_dropped t = t.dropped

let drops_by_dst t =
  Hashtbl.fold (fun dst n acc -> (dst, n) :: acc) t.drops_by_dst []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
let in_flight t = t.in_flight
let in_flight_high_water t = t.in_flight_hwm

let channel_in_flight t ~src ~dst =
  match Link_tbl.find_opt t.channels (src, dst) with
  | Some ch -> ch.c_load
  | None -> 0

let channel_high_water t = t.channel_hwm
let channels_tracked t = Link_tbl.length t.channels
