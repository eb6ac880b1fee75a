(** Transactional key-value backing store — the HyperDex Warp stand-in.

    Weaver relies on its backing store for exactly three things (paper §3.2,
    §4.2, §4.3): durable storage of the graph, a vertex → shard directory,
    and atomic multi-key ACID transactions that commit only if none of the
    data read was concurrently modified. This module provides those
    semantics with optimistic concurrency control: a transaction records the
    version of every key it reads; at commit, every recorded version must
    still be current, otherwise the transaction aborts ([`Conflict]) and the
    caller retries — the same abort-and-retry discipline Warp's acyclic
    transactions give the paper's gatekeepers.

    Values are polymorphic; the store never copies them. "Durability" in
    the simulation means the store survives shard-server crashes (shards are
    rebuilt from it), which is the property the paper's recovery protocol
    needs. *)

type 'v t

val create : unit -> 'v t

val length : 'v t -> int
(** Number of live (non-deleted) keys. *)

val version : 'v t -> string -> int
(** Current version of a key; 0 if never written. Deletions bump the
    version too. *)

val get_now : 'v t -> string -> 'v option
(** Non-transactional point read of the latest value. Used for recovery
    reads, where transactional isolation is unnecessary (the writer is
    gone). *)

val scan_prefix : 'v t -> prefix:string -> (string * 'v) list
(** All live bindings whose key starts with [prefix], sorted by key. The
    order is part of the contract: it feeds shard crash-recovery reload
    (which keeps the first [shard_capacity] records), which must be
    bit-identical across runs and OCaml hash-table layouts. *)

val on_apply : 'v t -> (string -> 'v option -> unit) -> unit
(** [on_apply t f] makes every committed or loaded write call
    [f key value] right after the cell changes ([None] = deleted), in
    application order.
    Aborted transactions call nothing. One hook per store; a later call
    replaces it. Derived indexes (the runtime's directory mirror) stay
    exact this way, whatever path the write took. The hook must not
    touch the store. {!replay}'s fresh store starts without one. *)

val load : 'v t -> (string * 'v) list -> unit
(** Bulk load: write the bindings straight into the cells, in list order,
    without a transaction. Each key is applied as a commit applies it (its
    cell changes, its version goes up by one, the {!on_apply} hook runs),
    and the whole load is one journal entry and counts as one commit.
    It records no read set and cannot conflict; offline preloads and
    restores use it. Keys should be distinct: a repeated key is applied
    (and its version bumped) once per occurrence. *)

val commits : 'v t -> int
(** Committed transactions plus bulk loads. *)

val aborts : 'v t -> int

(** {1 Write-ahead journal}

    Every committed transaction (and every {!load}) appends its write set
    to an in-order journal before the cells mutate — the durability
    boundary a disk-backed deployment would fsync. The journal is a
    checkpoint plus a tail: the checkpoint is an image of the latest value
    and version of every key, built only from journal entries, and the
    tail holds the write sets since it. Once the tail reaches a fixed
    number of entries (64) it is folded into the image, at a cost
    proportional to the entries folded, so the journal holds the store's
    live state plus a bounded tail, whatever the run length.
    {!replay} rebuilds an equivalent store from the journal alone, which
    the tests use to validate crash-consistency. *)

val journal_length : 'v t -> int
(** Committed transactions and loads journaled since creation, folded or
    not: entry indices run from 0 to [journal_length - 1]. *)

val journal_folded : 'v t -> int
(** Entries folded into the checkpoint image so far. Entries
    [journal_folded .. journal_length - 1] form the tail; the tail length
    is [journal_length - journal_folded], always below 64. *)

val journal_entry : 'v t -> int -> (string * 'v option) list
(** Write set of the [i]-th committed transaction or load ([None] =
    deletion), in application order, while it is in the tail.
    @raise Invalid_argument when [i] is folded ([i < journal_folded]) or
    out of range. *)

val replay : 'v t -> 'v t
(** A fresh store holding the checkpoint image with the tail replayed over
    it in order: every key's value and version equal the original's. Its
    own journal has the same image, tail and indices. *)

(** Transactions. A ['v tx] buffers writes and records read versions; no
    global state changes until {!commit}. *)
module Tx : sig
  type 'v tx

  val begin_ : 'v t -> 'v tx

  val get : 'v tx -> string -> 'v option
  (** Read-your-writes: sees this transaction's own buffered writes first,
      then the store. Records the read version for commit-time
      validation. *)

  val put : 'v tx -> string -> 'v -> unit
  val delete : 'v tx -> string -> unit

  val commit : 'v tx -> (unit, [ `Conflict of string ]) result
  (** Atomically apply all buffered writes iff every key read still has the
      version observed. [`Conflict k] names the first stale key. A
      transaction handle must not be reused after commit or abort. *)

  val abort : 'v tx -> unit
  (** Discard the transaction. *)

  val read_set : 'v tx -> string list
  val write_set : 'v tx -> string list
end
