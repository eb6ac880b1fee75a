(** Gatekeeper server — the proactive half of the timeline coordinator
    (paper §3.3, §4.2).

    A gatekeeper owns one component of the cluster vector clock. It assigns
    a refinable timestamp to every client request, executes read-write
    transactions against the backing store (validating them and checking
    per-vertex last-update stamps), forwards committed effects to shard
    servers over FIFO channels, coordinates node-program execution and
    termination detection, announces its clock to peers every τ µs, keeps
    shard queues fresh with NOP transactions, and gossips GC watermarks. *)

type t

val spawn : Runtime.t -> gid:int -> epoch:int -> t
(** Create a gatekeeper with index [gid], register its network handler at
    {!Runtime.gk_addr}, and start its periodic announce / NOP / heartbeat /
    watermark timers. [epoch] is the configuration epoch it starts in
    (0 at deployment; the current epoch for a replacement, §4.3). *)

val retire : t -> unit
(** Permanently stop this instance's timers and message processing; used
    when a replacement takes over its address. *)

val gid : t -> int
val epoch : t -> int
val clock : t -> Runtime.Vclock.t
(** Current vector clock (for tests and introspection). *)

val current_tau : t -> float
(** The announce period currently in effect (equals the configured τ
    unless [adaptive_tau] is on, §3.5). *)

val on_revive : t -> unit
(** Called when a crashed (network-dead) gatekeeper is revived in place by
    a fault plan, *without* having been replaced: drops the memo table,
    whose entries may have missed peers' [Commit_note] invalidations while
    the instance was unreachable. The duplicate-suppression window is
    kept — it records durable commits. *)

val credits_available : t -> int -> int
(** Flow-control credits currently available towards the given shard
    ([Config.shard_credits] when the mechanism is disabled); for tests
    and introspection. *)

val on_shard_restart : t -> int -> unit
(** Called when a shard is restarted in place by a fault plan: its queues
    (holding our un-applied [Shard_tx]s) were dropped, so the credits they
    carried can never come back — refill that shard's credit column. *)
