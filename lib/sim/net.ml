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

   A channel holds a record only while messages are in flight on it. When
   its count drains to 0 the record goes back to a pool of spare records,
   and the next channel to need one takes it from there, closure and
   mailbox included, so a send allocates no record. This is also what
   bounds the FIFO-floor state: the old implementation kept a
   [last_delivery] entry per (src,dst) pair forever. Dropping the floor at
   drain time is safe because the clock has then reached the floor, so any
   later send's arrival time already respects it. *)
type 'm channel = {
  c_index : int; (* in the network's [records] *)
  mutable c_src : addr;
  mutable c_dst : addr;
  c_msgs : 'm Queue.t;
  c_floor : floor; (* last scheduled delivery time *)
  mutable c_load : int; (* in flight on this channel *)
  mutable c_deliver : unit -> unit;
}

(* a record of floats alone is stored flat, so moving the floor boxes
   nothing and needs no write barrier *)
and floor = { mutable at : float }

(* Link factors are set only by fault injection and looked up only while
   one is set, so they stay in a hash table keyed by the directed link. *)
module Link_tbl = Hashtbl.Make (struct
  type t = addr * addr

  let equal ((s : int), (d : int)) (s', d') = s = s' && d = d'
  let hash (s, d) = ((s * 65599) + d) land max_int
end)

(* Addresses are small dense ints (gatekeepers, servers, the manager, then
   clients in creation order), so endpoints and channels live in arrays
   indexed by address: [endpoints.(a)] is [nobody] until [a] registers,
   and [links.(src).(dst)] is the index in [records] of the channel's
   record, or -1 while nothing is in flight from [src] to [dst]. Both
   grow on demand; an address beyond them is unregistered and has no
   channel. The channel tables hold indices rather than records, so
   opening and draining a channel writes no pointer. *)
type 'm t = {
  engine : Engine.t;
  latency : latency;
  rng : Weaver_util.Xrand.t;
  mutable endpoints : 'm endpoint array;
  nobody : 'm endpoint;
  mutable links : int array array;
  mutable records : 'm channel array; (* every record made, by [c_index] *)
  mutable n_records : int;
  mutable spare : int array; (* a stack of the drained records' indices *)
  mutable n_spare : int;
  mutable tracked : int; (* channels with messages in flight *)
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

(* a full application, so the model takes its three arguments at once:
   [fun rng -> uniform_latency ... rng] would build a closure per send *)
let local_latency : latency = uniform_latency ~base:50.0 ~jitter:20.0

let create engine ~latency =
  {
    engine;
    latency;
    rng = Weaver_util.Xrand.split (Engine.rng engine);
    endpoints = [||];
    nobody = { handler = (fun ~src:_ _ -> ()); alive = false };
    links = [||];
    records = [||];
    n_records = 0;
    spare = [||];
    n_spare = 0;
    tracked = 0;
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

(* [a], or a copy long enough to hold position [i] with room to grow, so
   a run of fresh addresses (one per new client) copies the array only a
   logarithmic number of times *)
let room a i ~fill =
  let len = Array.length a in
  if i < len then a
  else begin
    let a' = Array.make (max (2 * len) (max 16 (i + 1))) fill in
    Array.blit a 0 a' 0 len;
    a'
  end

let[@inline] endpoint t a =
  if a >= 0 && a < Array.length t.endpoints then t.endpoints.(a) else t.nobody

let register t addr handler =
  if addr < 0 then invalid_arg "Net.register: negative address";
  if addr >= Array.length t.endpoints then
    t.endpoints <- room t.endpoints addr ~fill:t.nobody;
  let ep = t.endpoints.(addr) in
  if ep == t.nobody then t.endpoints.(addr) <- { handler; alive = true }
  else begin
    ep.handler <- handler;
    ep.alive <- true
  end

let set_alive t addr alive =
  let ep = endpoint t addr in
  if ep != t.nobody then ep.alive <- alive

let is_alive t addr = (endpoint t addr).alive

let set_tracer t tracer = t.tracer <- tracer

let set_latency_factor t f = t.latency_factor <- Float.max 0.0 f
let latency_factor t = t.latency_factor

let set_link_factor t ~src ~dst f =
  if f = 1.0 then Link_tbl.remove t.link_factors (src, dst)
  else Link_tbl.replace t.link_factors (src, dst) (Float.max 0.0 f)

let[@inline] link_factor t ~src ~dst =
  if Link_tbl.length t.link_factors = 0 then 1.0
  else match Link_tbl.find_opt t.link_factors (src, dst) with Some f -> f | None -> 1.0

(* The index of channel [src] -> [dst]'s record, or -1. *)
let[@inline] channel t ~src ~dst =
  let row = if src < Array.length t.links then t.links.(src) else [||] in
  if dst < Array.length row then row.(dst) else -1

(* one delivery event fired: hand the channel's head message to the
   destination (or count the drop), returning the channel's record to the
   pool when drained *)
let deliver_one t ch =
  let msg = Queue.pop ch.c_msgs in
  let src = ch.c_src and dst = ch.c_dst in
  t.in_flight <- t.in_flight - 1;
  ch.c_load <- ch.c_load - 1;
  if ch.c_load = 0 then begin
    t.links.(src).(dst) <- -1;
    t.tracked <- t.tracked - 1;
    ch.c_floor.at <- neg_infinity;
    if t.n_spare = Array.length t.spare then t.spare <- room t.spare t.n_spare ~fill:0;
    t.spare.(t.n_spare) <- ch.c_index;
    t.n_spare <- t.n_spare + 1
  end;
  let ep = endpoint t dst in
  if ep.alive then begin
    t.delivered <- t.delivered + 1;
    ep.handler ~src msg
  end
  else begin
    t.dropped <- t.dropped + 1;
    let n = match Hashtbl.find_opt t.drops_by_dst dst with Some n -> n | None -> 0 in
    Hashtbl.replace t.drops_by_dst dst (n + 1)
  end

(* Give the idle channel [src] -> [dst] a record, a spare one if the
   pool has any, growing the tables to hold it. *)
let open_channel t ~src ~dst =
  if src >= Array.length t.links then t.links <- room t.links src ~fill:[||];
  if dst >= Array.length t.links.(src) then
    t.links.(src) <- room t.links.(src) dst ~fill:(-1);
  let ch =
    if t.n_spare > 0 then begin
      t.n_spare <- t.n_spare - 1;
      t.records.(t.spare.(t.n_spare))
    end
    else begin
      let n = t.n_records in
      let ch =
        {
          c_index = n;
          c_src = src;
          c_dst = dst;
          c_msgs = Queue.create ();
          c_floor = { at = neg_infinity };
          c_load = 0;
          c_deliver = ignore;
        }
      in
      ch.c_deliver <- (fun () -> deliver_one t ch);
      t.records <- room t.records n ~fill:ch;
      t.records.(n) <- ch;
      t.n_records <- n + 1;
      ch
    end
  in
  ch.c_src <- src;
  ch.c_dst <- dst;
  t.links.(src).(dst) <- ch.c_index;
  t.tracked <- t.tracked + 1;
  ch

let send t ~src ~dst msg =
  if src < 0 || dst < 0 then invalid_arg "Net.send: negative address";
  (* unregistered senders (e.g. external clients) are fine *)
  let sender = endpoint t src in
  (* a dead endpoint's send never reaches the wire: it must not count
     towards message overhead nor reach the tracer, or the experiments'
     messages-per-request numbers inflate under failure injection *)
  if sender != t.nobody && not sender.alive then t.suppressed <- t.suppressed + 1
  else begin
    t.sent <- t.sent + 1;
    (match t.tracer with
    | Some f -> f ~time:(Engine.now t.engine) ~src ~dst msg
    | None -> ());
    let lat =
      t.latency t.rng ~src ~dst *. t.latency_factor *. link_factor t ~src ~dst
    in
    let arrival = Engine.now t.engine +. Float.max 0.0 lat in
    let k = channel t ~src ~dst in
    let ch = if k >= 0 then t.records.(k) else open_channel t ~src ~dst in
    (* FIFO per channel: never deliver before the previous message (an
       arrival past the floor is [Float.max]'s answer without its
       sign-bit calls) *)
    let floor = ch.c_floor in
    let floor_time =
      if arrival > floor.at then arrival else Float.max arrival floor.at
    in
    floor.at <- floor_time;
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
  let k = if src < 0 || dst < 0 then -1 else channel t ~src ~dst in
  if k >= 0 then t.records.(k).c_load else 0
let channel_high_water t = t.channel_hwm
let channels_tracked t = t.tracked
