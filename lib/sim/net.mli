(** Simulated message-passing network with per-channel FIFO delivery.

    Weaver's correctness argument (§4.2 of the paper) relies on FIFO
    channels between each gatekeeper–shard pair; this module provides that
    guarantee for every (src, dst) pair: even when per-message latency
    jitters, a message is never delivered before an earlier message on the
    same channel.

    A network instance carries one message type ['m]; each protocol in the
    repository instantiates its own network. Endpoints are small
    non-negative integer addresses registered with a handler; the network
    keeps its endpoints and channels in arrays indexed by address, so the
    addresses in use should be dense. Endpoints can be marked dead
    (crash-stop): messages to a dead endpoint are silently dropped, as are
    messages sent by it. *)

type 'm t

type addr = int
(** Endpoint address, [>= 0]. *)

type latency = Weaver_util.Xrand.t -> src:addr -> dst:addr -> float
(** Latency model: virtual µs for one message on the given channel. *)

val uniform_latency : base:float -> jitter:float -> latency
(** [base + U(0, jitter)] µs, independent of the channel. *)

val local_latency : latency
(** Datacenter-like default: 50 µs base + 20 µs jitter. *)

val create : Engine.t -> latency:latency -> 'm t
(** New network on the given engine. *)

val register : 'm t -> addr -> (src:addr -> 'm -> unit) -> unit
(** Install the delivery handler for [addr]; replaces any previous one and
    (re)marks the endpoint alive.
    @raise Invalid_argument if [addr < 0]. *)

val send : 'm t -> src:addr -> dst:addr -> 'm -> unit
(** Enqueue a message. Delivered via [dst]'s handler after the modelled
    latency, in FIFO order per (src, dst). Dropped if either endpoint is
    dead, or if [dst] was never registered. A [src] that was never
    registered sends like a live endpoint.
    @raise Invalid_argument if [src < 0] or [dst < 0]; nothing is counted. *)

val set_alive : 'm t -> addr -> bool -> unit
(** Crash or revive an endpoint. Messages already in flight towards a
    crashed endpoint are dropped at delivery time. *)

val is_alive : 'm t -> addr -> bool

val messages_sent : 'm t -> int
(** Messages that actually entered the network: sends from live (or
    unregistered) endpoints, including ones later dropped at a dead
    destination. Sends attempted by dead endpoints are excluded — see
    {!messages_suppressed}. *)

val messages_delivered : 'm t -> int

val messages_suppressed : 'm t -> int
(** Sends attempted by a dead endpoint, suppressed before the wire (and
    before the tracer). Counted separately so failure injection does not
    inflate message-overhead measurements. *)

val messages_dropped : 'm t -> int
(** Messages whose delivery event found the destination dead or never
    registered — genuine loss at the receiving end, as opposed to latency.
    Disjoint from {!messages_suppressed} (which never reach the wire);
    [sent = delivered + dropped + in_flight] always holds. *)

val drops_by_dst : 'm t -> (addr * int) list
(** Per-destination breakdown of {!messages_dropped}, sorted by address —
    which endpoint was black-holing traffic during a chaos run. *)

(** {1 Queue-depth instrumentation}

    Messages in flight — sent but not yet delivered (or dropped at a dead
    destination). A message leaves the count when its delivery event
    fires, alive or not. *)

val in_flight : 'm t -> int
(** Messages currently on the wire, over all channels. *)

val in_flight_high_water : 'm t -> int
(** Most messages ever simultaneously in flight since creation. *)

val channel_in_flight : 'm t -> src:addr -> dst:addr -> int
(** In-flight count of one (src, dst) channel. *)

val channel_high_water : 'm t -> int
(** Deepest any single channel ever got — the congestion hot-spot gauge
    (a queue building on one gatekeeper→shard channel shows here while
    the global count stays modest). *)

val channels_tracked : 'm t -> int
(** Number of (src, dst) channels currently holding in-flight state. A
    channel's record (FIFO mailbox + delivery floor) is released to a pool
    of spare records as soon as its in-flight count drains to 0, so this
    must return to 0 on an idle network, and the records allocated never
    outnumber the channels once in flight at the same time — the
    regression guard against the old behaviour of keeping a FIFO-floor
    entry per channel ever used. *)

val set_tracer : 'm t -> (time:float -> src:addr -> dst:addr -> 'm -> unit) option -> unit
(** Install (or remove) a callback invoked on every non-suppressed {!send}
    with the current virtual time — the hook behind message tracing. *)

(** {1 Latency degradation}

    Fault-injection hooks: multiply modelled latencies globally or per
    directed link (latency spikes, degraded links). Factors scale a value
    the latency model already drew, so they never consume randomness —
    with all factors at 1.0 delivery times are bit-identical to a network
    without the feature. Messages already in flight keep their original
    delivery time; per-channel FIFO order is preserved regardless. *)

val set_latency_factor : 'm t -> float -> unit
(** Global latency multiplier (clamped to ≥ 0; default 1.0). *)

val latency_factor : 'm t -> float

val set_link_factor : 'm t -> src:addr -> dst:addr -> float -> unit
(** Multiplier for one directed (src, dst) link, composed with the global
    factor. Setting 1.0 removes the entry. *)

