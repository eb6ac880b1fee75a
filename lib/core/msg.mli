(** Wire protocol between clients, gatekeepers, shard servers, and the
    cluster manager. Every message in the deployment travels through the
    simulated FIFO network as one of these constructors. *)

type shard_op =
  | S_create_vertex of string
  | S_delete_vertex of string
  | S_add_edge of { src : string; eid : string; dst : string }
  | S_del_edge of { src : string; eid : string }
  | S_set_vprop of { vid : string; key : string; value : string }
  | S_del_vprop of { vid : string; key : string }
  | S_set_eprop of { src : string; eid : string; key : string; value : string }
  | S_del_eprop of { src : string; eid : string; key : string }
  | S_migrate_in of string
  | S_migrate_out of string
(** Post-validation write effects forwarded from a gatekeeper to the shard
    that owns the touched vertex (paper §4.2). [S_migrate_in]/[S_migrate_out]
    move a vertex between shards (dynamic colocation, §4.6): the new owner
    pulls the record from the backing store when the op is applied, the old
    owner drops its copy. *)

type t =
  | Tx_req of { client : int; tx_id : int; ops : Txop.t list }
      (** client → gatekeeper: commit this buffered transaction *)
  | Tx_reply of {
      tx_id : int;
      result : (unit, string) result;
      reads : (string * Progval.t) list;
    }
      (** gatekeeper → client: sent after the backing-store commit (§4.4);
          [reads] carries one summary per [Read_vertex] operation, taken
          inside the same atomic store transaction *)
  | Prog_req of {
      client : int;
      prog_id : int;
      prog : string;
      params : Progval.t;
      starts : string list;
      at : Weaver_vclock.Vclock.t option;
      weak : bool;
    }
      (** client → gatekeeper: run a node program; [weak] allows routing
          to follower copies at an older, consistent stamp (§6.4) *)
  | Prog_reply of { prog_id : int; result : (Progval.t, string) result }
  | Announce of { gk : int; clock : Weaver_vclock.Vclock.t }
      (** gatekeeper → gatekeeper: τ-periodic vector-clock exchange (§3.3) *)
  | Shard_tx of {
      gk : int;
      seq : int;
      ts : Weaver_vclock.Vclock.t;
      ops : shard_op list;
      trace : int;
    }
      (** gatekeeper → shard: committed transaction ([ops = []] is a NOP
          keeping the queue head fresh, §4.2); [seq] implements the FIFO
          channel check; [trace] carries the originating request's trace
          id through the envelope (0 = untraced, e.g. NOPs) *)
  | Prog_batch of {
      coord : int;  (** gatekeeper address coordinating the program *)
      prog_id : int;
      ts : Weaver_vclock.Vclock.t;
      prog : string;
      historical : bool;
      items : (string * int * Progval.t) list;
          (** (vertex, its handle in the cluster's numbering
              ([Runtime.t.names]), params) to visit *)
      sent_at : float;  (** send time, for the [shard.prog_hop] span *)
    }
      (** gatekeeper → shard (start) or shard → shard (hop propagation);
          [historical] marks a query pinned to a past snapshot: reads
          prefer ordering concurrent version stamps *after* the snapshot
          instead of before it (both are serializable; this matches the
          intuition that a time-travel query excludes later writes) *)
  | Prog_partial of {
      prog_id : int;
      sent : int;  (** further [Prog_batch] messages this batch spawned *)
      acc : Progval.t;
      visited : string list;
          (** the vertices the batch read, for the coordinator's memo
              entry; empty unless [Config.enable_memoization] is on *)
      error : string option;
          (** [Some reason] fails the whole program run (e.g.
              ["snapshot-gced"]: the run's timestamp fell below the
              shard's compaction floor with no pinned snapshot covering
              it); the gatekeeper replies [Error reason] and GCs the run,
              except that a weak run re-stamped at a follower watermark is
              re-run once at a fresh stamp on the owners *)
    }
      (** shard → coordinating gatekeeper: batch finished; drives
          termination detection by message counting *)
  | Prog_gc of { prog_id : int }
      (** gatekeeper → shards: program done, drop its per-vertex state
          (§4.5) *)
  | Migrate_req of { client : int; tx_id : int; vid : string; to_shard : int }
      (** client → gatekeeper: relocate a vertex (§4.6); acknowledged with
          a [Tx_reply] *)
  | Commit_note of {
      gk : int;
      client : int;
      tx_id : int;
      written : string list;
      reads : (string * Progval.t) list;
    }
      (** gatekeeper → peer gatekeepers, after a commit: invalidate memo
          entries that read any vertex in [written], and remember
          [(client, tx_id)] in the duplicate-suppression window so a retry
          of the same transaction routed to a peer replies [Ok] (with the
          original's [reads]) instead of re-executing *)
  | Heartbeat of { server : int }  (** any server → cluster manager *)
  | Epoch_change of { epoch : int }
      (** manager → all servers: move to a new configuration epoch (§4.3) *)
  | Epoch_ack of { server : int; epoch : int }
  | Watermark of { gk : int; ts : Weaver_vclock.Vclock.t }
      (** gatekeeper → shards and manager: oldest timestamp still in use,
          for multi-version GC (§4.5) *)
  | Overloaded of { req_id : int; reason : string }
      (** gatekeeper → client: the request was shed at admission (overload
          management, {!Weaver_flow.Flow}). [reason] is ["deadline"]
          (projected wait exceeds the deadline budget) or ["credit"] (a
          target shard's flow-control credits are exhausted). Clients
          surface it as
          [Error "shed:<reason>"], which retry policies treat as a backoff
          signal *)
  | Credit of { shard : int; gk : int; n : int }
      (** shard → gatekeeper, control-plane: [n] forwarded transactions
          were applied; return their flow-control credits. Also reused
          follower-shard → owner-shard on the replication stream
          (DESIGN §16): [shard] is then the follower id
          returning a replication-stream credit *)
  | Repl_update of {
      range : int;
      owner : int;
      ts : Weaver_vclock.Vclock.t;
      ops : shard_op list;
    }
      (** owner shard → follower shard, over the ordinary FIFO channel:
          [ops <> []] streams one applied transaction's writes to the range
          with its commit stamp; [ops = []] is a watermark heartbeat — the
          owner has applied everything at or below [ts], and FIFO order
          guarantees the follower received those updates first *)
  | Repl_seed of {
      range : int;
      owner : int;
      ts : Weaver_vclock.Vclock.t;
      vertices : (string * Weaver_graph.Mgraph.vertex) list;
    }
      (** owner shard → follower shard: full (re)seed of the range at
          watermark [ts] — the owner's multi-version records verbatim
          (immutable, so sharing is safe). Sent at the first watermark
          after install and whenever the stream was interrupted (credit
          exhaustion, the follower's restart); subsequent [Repl_update]s apply cleanly on top
          because FIFO order puts them after the seed *)
  | Repl_cover of { range : int; follower : int; ts : Weaver_vclock.Vclock.t }
      (** follower shard → all gatekeepers: this follower's copy of
          [range] now covers every stamp componentwise at or below [ts]
          ({!Weaver_repl.Repl.covers}) *)

val pp : Format.formatter -> t -> unit
(** One-line rendering for traces and test failures. *)

val trace_of : t -> int option
(** The trace (request) id this message travels on behalf of: the client
    request id for request/reply pairs, [prog_id] for program fan-out,
    the [trace] field for [Shard_tx]. [None] for control-plane traffic
    (announces, NOPs, heartbeats, epoch barriers, watermarks). *)

val kind : t -> string
(** Constructor name, for message ledgers and per-kind counting. *)
