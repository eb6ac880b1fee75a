module Vclock = Weaver_vclock.Vclock

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

type t =
  | Tx_req of { client : int; tx_id : int; ops : Txop.t list }
  | Tx_reply of {
      tx_id : int;
      result : (unit, string) result;
      reads : (string * Progval.t) list;
    }
  | Prog_req of {
      client : int;
      prog_id : int;
      prog : string;
      params : Progval.t;
      starts : string list;
      at : Weaver_vclock.Vclock.t option;
      weak : bool;
    }
  | Prog_reply of { prog_id : int; result : (Progval.t, string) result }
  | Announce of { gk : int; clock : Vclock.t }
  | Shard_tx of {
      gk : int;
      seq : int;
      ts : Vclock.t;
      ops : shard_op list;
      trace : int; (* originating request's trace id; 0 = untraced (NOPs) *)
    }
  | Prog_batch of {
      coord : int;
      prog_id : int;
      ts : Vclock.t;
      prog : string;
      historical : bool;
      items : (string * int * Progval.t) list;
      sent_at : float;
    }
  | Prog_partial of {
      prog_id : int;
      sent : int;
      acc : Progval.t;
      visited : string list;
      error : string option;
    }
  | Prog_gc of { prog_id : int }
  | Migrate_req of { client : int; tx_id : int; vid : string; to_shard : int }
  | Commit_note of {
      gk : int;
      client : int;
      tx_id : int;
      written : string list;
      reads : (string * Progval.t) list;
    }
  | Heartbeat of { server : int }
  | Epoch_change of { epoch : int }
  | Epoch_ack of { server : int; epoch : int }
  | Watermark of { gk : int; ts : Vclock.t }
  | Overloaded of { req_id : int; reason : string }
  | Credit of { shard : int; gk : int; n : int }
  | Repl_update of { range : int; owner : int; ts : Vclock.t; ops : shard_op list }
  | Repl_seed of {
      range : int;
      owner : int;
      ts : Vclock.t;
      vertices : (string * Weaver_graph.Mgraph.vertex) list;
    }
  | Repl_cover of { range : int; follower : int; ts : Vclock.t }

let pp fmt = function
  | Tx_req { client; tx_id; ops } ->
      Format.fprintf fmt "Tx_req(c%d,#%d,%d ops)" client tx_id (List.length ops)
  | Tx_reply { tx_id; result; reads } ->
      Format.fprintf fmt "Tx_reply(#%d,%s,%d reads)" tx_id
        (match result with Ok () -> "ok" | Error e -> e)
        (List.length reads)
  | Prog_req { prog_id; prog; starts; _ } ->
      Format.fprintf fmt "Prog_req(#%d,%s,%d starts)" prog_id prog (List.length starts)
  | Prog_reply { prog_id; result } ->
      Format.fprintf fmt "Prog_reply(#%d,%s)" prog_id
        (match result with Ok _ -> "ok" | Error e -> e)
  | Announce { gk; clock } -> Format.fprintf fmt "Announce(gk%d,%a)" gk Vclock.pp clock
  | Shard_tx { gk; seq; ts; ops; trace = _ } ->
      Format.fprintf fmt "Shard_tx(gk%d,seq%d,%a,%d ops)" gk seq Vclock.pp ts
        (List.length ops)
  | Prog_batch { prog_id; prog; items; ts; _ } ->
      Format.fprintf fmt "Prog_batch(#%d,%s,%a,%d items)" prog_id prog Vclock.pp ts
        (List.length items)
  | Prog_partial { prog_id; sent; error; _ } ->
      Format.fprintf fmt "Prog_partial(#%d,sent %d%s)" prog_id sent
        (match error with None -> "" | Some e -> "," ^ e)
  | Prog_gc { prog_id } -> Format.fprintf fmt "Prog_gc(#%d)" prog_id
  | Migrate_req { vid; to_shard; _ } -> Format.fprintf fmt "Migrate_req(%s->s%d)" vid to_shard
  | Commit_note { gk; client; tx_id; written; _ } ->
      Format.fprintf fmt "Commit_note(gk%d,c%d,#%d,%d written)" gk client tx_id
        (List.length written)
  | Heartbeat { server } -> Format.fprintf fmt "Heartbeat(%d)" server
  | Epoch_change { epoch } -> Format.fprintf fmt "Epoch_change(%d)" epoch
  | Epoch_ack { server; epoch } -> Format.fprintf fmt "Epoch_ack(%d,e%d)" server epoch
  | Watermark { gk; ts } -> Format.fprintf fmt "Watermark(gk%d,%a)" gk Vclock.pp ts
  | Overloaded { req_id; reason } ->
      Format.fprintf fmt "Overloaded(#%d,%s)" req_id reason
  | Credit { shard; gk; n } -> Format.fprintf fmt "Credit(s%d->gk%d,%d)" shard gk n
  | Repl_update { range; owner; ts; ops } ->
      Format.fprintf fmt "Repl_update(r%d,s%d,%a,%d ops)" range owner Vclock.pp ts
        (List.length ops)
  | Repl_seed { range; owner; ts; vertices } ->
      Format.fprintf fmt "Repl_seed(r%d,s%d,%a,%d vertices)" range owner Vclock.pp ts
        (List.length vertices)
  | Repl_cover { range; follower; ts } ->
      Format.fprintf fmt "Repl_cover(r%d,s%d,%a)" range follower Vclock.pp ts

(* The trace id a message travels on behalf of: client-originated requests
   use their globally unique request id; derived traffic inherits it
   (Shard_tx carries it explicitly, program fan-out reuses [prog_id]).
   [None] for control-plane traffic that belongs to no single request. *)
let trace_of = function
  | Tx_req { tx_id; _ } | Tx_reply { tx_id; _ } -> Some tx_id
  | Prog_req { prog_id; _ }
  | Prog_reply { prog_id; _ }
  | Prog_batch { prog_id; _ }
  | Prog_partial { prog_id; _ }
  | Prog_gc { prog_id } -> Some prog_id
  | Migrate_req { tx_id; _ } -> Some tx_id
  | Commit_note { tx_id; _ } -> Some tx_id
  | Shard_tx { trace; _ } -> if trace = 0 then None else Some trace
  | Overloaded { req_id; _ } -> Some req_id
  | Announce _ | Heartbeat _ | Epoch_change _ | Epoch_ack _ | Watermark _ | Credit _
  | Repl_update _ | Repl_seed _ | Repl_cover _ -> None

let kind = function
  | Tx_req _ -> "Tx_req"
  | Tx_reply _ -> "Tx_reply"
  | Prog_req _ -> "Prog_req"
  | Prog_reply _ -> "Prog_reply"
  | Announce _ -> "Announce"
  | Shard_tx { ops = []; _ } -> "Shard_tx(nop)"
  | Shard_tx _ -> "Shard_tx"
  | Prog_batch _ -> "Prog_batch"
  | Prog_partial _ -> "Prog_partial"
  | Prog_gc _ -> "Prog_gc"
  | Migrate_req _ -> "Migrate_req"
  | Commit_note _ -> "Commit_note"
  | Heartbeat _ -> "Heartbeat"
  | Epoch_change _ -> "Epoch_change"
  | Epoch_ack _ -> "Epoch_ack"
  | Watermark _ -> "Watermark"
  | Overloaded _ -> "Overloaded"
  | Credit _ -> "Credit"
  | Repl_update _ -> "Repl_update"
  | Repl_seed _ -> "Repl_seed"
  | Repl_cover _ -> "Repl_cover"
