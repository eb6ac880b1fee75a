(** Deterministic discrete-event simulation engine.

    The whole Weaver deployment — gatekeepers, shards, the timeline oracle,
    the backing store, the cluster manager, and clients — runs as callbacks
    scheduled on one of these engines. Virtual time is a [float] in
    microseconds. Events scheduled for the same instant fire in scheduling
    order (a global sequence number breaks ties), which together with the
    seeded RNG makes every run reproducible.

    All events wait in one 4-ary heap, ordered strictly by (time,
    scheduling order). An event scheduled with {!timeout} can be withdrawn
    with {!cancel}; withdrawing it changes no other event's time or order,
    the clock never advances to its time, and {!pending} stops counting it
    at once. Cancelled entries are dropped lazily, so the heap holds at
    most twice the live events. *)

type t

val create : ?seed:int -> unit -> t
(** Fresh engine at time 0 with an empty event queue. *)

val now : t -> float
(** Current virtual time in microseconds. *)

val rng : t -> Weaver_util.Xrand.t
(** The engine's master RNG; derive sub-streams with {!Weaver_util.Xrand.split}. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run the callback [delay] µs from now. Negative delays are clamped to 0. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Run the callback at absolute virtual [time] (clamped to [now] if past). *)

type timer
(** A handle on an event scheduled by {!timeout}. *)

val timeout : t -> delay:float -> (unit -> unit) -> timer
(** As {!schedule}, and returns a handle that {!cancel} accepts. The event
    takes its place in the (time, seq) order exactly as {!schedule} would
    give it. *)

val cancel : t -> timer -> unit
(** Withdraw the event: it never fires. A no-op on a handle whose event
    has fired or was cancelled already; a stale handle never touches an
    event scheduled later, whatever slot it occupies. *)

val every : t -> period:float -> (unit -> bool) -> unit
(** [every t ~period f] calls [f] each [period] µs for as long as [f]
    returns [true]. The first call happens one period from now.
    @raise Invalid_argument if [period <= 0] (a non-positive period would
    spin a zero-delay event loop forever). *)

val step : t -> bool
(** Execute the single earliest live event. [false] if none is queued. *)

val run : ?until:float -> t -> unit
(** Execute events until the queue drains, or until virtual time would
    exceed [until] (remaining events stay queued and [now] advances to
    [until]). *)

val pending : t -> int
(** Number of live queued events: cancelled ones are not counted. *)

val max_pending : t -> int
(** High-water mark of {!pending} since creation — how deep the
    simulation's backlog ever got (a utilization gauge). *)

val events_processed : t -> int
(** Total events executed since creation. *)
