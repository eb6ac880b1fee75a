(** Metrics registry: a uniform, named view over every measurement a
    deployment produces (paper §6 reports all of its figures from exactly
    these kinds of series).

    Three instrument kinds:
    - {e counters}: monotonically increasing integers owned by the registry
      ([counter] + [incr]);
    - {e gauges}: read-through thunks over state owned elsewhere — how the
      legacy [Runtime.counters] record fields and network totals surface
      here without rewriting their increment sites;
    - {e reservoirs}: latency/size samples backed by {!Weaver_util.Stats},
      supporting percentiles.

    All instruments live in one flat namespace, conventionally
    ["actor.measure"] (e.g. ["gk.admission_wait"], ["shard.queue_wait"]).
    Recording never schedules events or sends messages, so instrumented and
    uninstrumented runs execute identically. *)

type t

type counter

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create the named counter. *)

val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

val gauge : t -> string -> (unit -> int) -> unit
(** Register a read-through gauge. Replaces a previous {e gauge} of the
    same name (actor respawn after a fault re-registers over the dead
    incarnation's); raises [Invalid_argument] if the name is already a
    counter or reservoir — silent cross-kind shadowing would corrupt
    every fingerprint that reads the instrument. *)

val reservoir : t -> string -> Weaver_util.Stats.t
(** Find-or-create the named sample reservoir. *)

val observe : t -> string -> float -> unit
(** [observe t name v] adds one sample to reservoir [name]. *)

val int_values : t -> (string * int) list
(** Current value of every counter and gauge, sorted by name. *)

val reservoirs : t -> (string * Weaver_util.Stats.t) list
(** Every non-empty reservoir, sorted by name. *)

val render : t -> string
(** Human-readable table: counters/gauges first, then reservoirs with
    n/mean/p50/p99/max. *)

val to_json : t -> string
(** The same data as one JSON object:
    [{"counters": {...}, "reservoirs": {name: {n, mean, p50, p90, p99, max}}}]. *)
