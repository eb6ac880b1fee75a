module Vclock = Weaver_vclock.Vclock

(* Replicas replay the same command log, so they converge to identical
   dependency graphs: Oracle.order / serialize are deterministic given the
   prior history, and the head's history is the authoritative one. *)
type command =
  | C_order of Vclock.t * Vclock.t
  | C_serialize of Vclock.t list
  | C_gc of Vclock.t

type t = { oracles : Oracle.t array; mutable alive : bool array }

let create ?(replicas = 3) () =
  if replicas < 1 then invalid_arg "Chain.create: need at least one replica";
  { oracles = Array.init replicas (fun _ -> Oracle.create ()); alive = Array.make replicas true }

let live_count t = Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 t.alive

let head_index t =
  let rec go i =
    if i >= Array.length t.oracles then invalid_arg "Chain: no live replica"
    else if t.alive.(i) then i
    else go (i + 1)
  in
  go 0

let tail_index t =
  let rec go i =
    if i < 0 then invalid_arg "Chain: no live replica"
    else if t.alive.(i) then i
    else go (i - 1)
  in
  go (Array.length t.oracles - 1)

(* apply a command to every live replica downstream of (and including) the
   head; the head's return value is the chain's answer *)
let apply t cmd =
  let head = head_index t in
  let result = ref None in
  Array.iteri
    (fun i oracle ->
      if i >= head && t.alive.(i) then begin
        let r =
          match cmd with
          | C_order (first, second) -> `Decision (Oracle.order oracle ~first ~second)
          | C_serialize events -> `Sorted (Oracle.serialize oracle events)
          | C_gc watermark -> `Removed (Oracle.gc oracle ~watermark)
        in
        if i = head then result := Some r
      end)
    t.oracles;
  Option.get !result

let order t ~first ~second =
  match apply t (C_order (first, second)) with
  | `Decision d -> d
  | _ -> assert false

let serialize t events =
  match apply t (C_serialize events) with `Sorted l -> l | _ -> assert false

let gc t ~watermark =
  match apply t (C_gc watermark) with `Removed n -> n | _ -> assert false

let query t ?replica a b =
  let i = match replica with Some i -> i | None -> tail_index t in
  if i < 0 || i >= Array.length t.oracles then invalid_arg "Chain.query: no such replica";
  if not t.alive.(i) then invalid_arg "Chain.query: replica is dead";
  Oracle.query t.oracles.(i) a b

let kill t i =
  if i < 0 || i >= Array.length t.oracles then invalid_arg "Chain.kill: no such replica";
  if live_count t <= 1 then invalid_arg "Chain.kill: last live replica";
  t.alive.(i) <- false

let queries_served t =
  let total = ref 0 in
  Array.iteri
    (fun i oracle -> if t.alive.(i) then total := !total + Oracle.queries_served oracle)
    t.oracles;
  !total
