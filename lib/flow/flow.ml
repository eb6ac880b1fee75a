type priority = Control | Client_req

(* Keyed on [Msg.kind] strings rather than the constructors themselves so
   this library stays below Weaver_core in the dependency order (the
   gatekeeper depends on us, not the other way around). Unknown kinds
   default to Client_req: new traffic is sheddable until explicitly
   exempted, which fails safe for liveness-critical control traffic. *)
let priority_of_kind = function
  | "Announce" | "Shard_tx(nop)" | "Heartbeat" | "Commit_note" | "Credit"
  | "Epoch_change" | "Epoch_ack" | "Watermark" | "Prog_gc"
  | "Repl_update" | "Repl_seed" | "Repl_cover" ->
      Control
  | _ -> Client_req

module Admission = struct
  type t = { deadline_budget : float }

  type decision = Admit | Shed_deadline

  let create ~deadline_budget = { deadline_budget = Float.max 0.0 deadline_budget }

  let enabled t = t.deadline_budget > 0.0

  let decide t ~now ~busy_until =
    if enabled t && busy_until -. now > t.deadline_budget then Shed_deadline else Admit
end

module Credits = struct
  type t = { max_credits : int; balance : int array }

  let create ~peers ~credits =
    let credits = max 0 credits in
    { max_credits = credits; balance = Array.make (max 1 peers) credits }

  let enabled t = t.max_credits > 0

  let available t peer = if enabled t then t.balance.(peer) else t.max_credits

  let exhausted t peer = enabled t && t.balance.(peer) <= 0

  let consume t peer = if enabled t then t.balance.(peer) <- t.balance.(peer) - 1

  let refund t peer n =
    if enabled t then t.balance.(peer) <- min t.max_credits (t.balance.(peer) + n)

  let reset_peer t peer = if enabled t then t.balance.(peer) <- t.max_credits

  let reset t =
    if enabled t then Array.fill t.balance 0 (Array.length t.balance) t.max_credits
end
