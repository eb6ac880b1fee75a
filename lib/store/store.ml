module Tbl = Weaver_util.Tbl

type 'v cell = { mutable value : 'v option; mutable ver : int }

(* The journal is a checkpoint plus a tail. [image] holds the latest
   (value, version) of every key as of the last fold, and is written only
   from journal entries, never from [cells]; [tail] holds the write sets
   journaled since. Once the tail reaches [tail_cap] entries it is folded
   into the image, at a cost proportional to the entries folded. *)
let tail_cap = 64

type 'v t = {
  cells : 'v cell Tbl.Str.t;
  mutable live : int;
  mutable commits : int;
  mutable aborts : int;
  image : 'v cell Tbl.Str.t;
  mutable tail : (string * 'v option) list list; (* newest first *)
  mutable tail_len : int;
  mutable folded : int; (* entries folded into [image] *)
  mutable on_apply : string -> 'v option -> unit;
}

let create () =
  {
    cells = Tbl.Str.create 1024;
    live = 0;
    commits = 0;
    aborts = 0;
    image = Tbl.Str.create 1024;
    tail = [];
    tail_len = 0;
    folded = 0;
    on_apply = (fun _ _ -> ());
  }

let length t = t.live

let version t k =
  match Tbl.Str.find_opt t.cells k with Some c -> c.ver | None -> 0

let get_now t k =
  match Tbl.Str.find_opt t.cells k with Some c -> c.value | None -> None

let scan_prefix t ~prefix =
  Tbl.Str.fold
    (fun k c acc ->
      match c.value with
      | Some v when String.starts_with ~prefix k -> (k, v) :: acc
      | _ -> acc)
    t.cells []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let on_apply t f = t.on_apply <- f

let commits t = t.commits
let aborts t = t.aborts

let cell tbl k =
  match Tbl.Str.find_opt tbl k with
  | Some c -> c
  | None ->
      let c = { value = None; ver = 0 } in
      Tbl.Str.replace tbl k c;
      c

let apply t k value =
  let cell = cell t.cells k in
  let was_live = cell.value <> None and is_live = value <> None in
  cell.value <- value;
  if was_live && not is_live then t.live <- t.live - 1;
  if (not was_live) && is_live then t.live <- t.live + 1;
  cell.ver <- cell.ver + 1;
  t.on_apply k value

let fold t =
  List.iter
    (List.iter (fun (k, v) ->
         let c = cell t.image k in
         c.value <- v;
         c.ver <- c.ver + 1))
    (List.rev t.tail);
  t.folded <- t.folded + t.tail_len;
  t.tail <- [];
  t.tail_len <- 0

(* one committed write set: journal first (the write set is durable
   before cells mutate), then every key in order *)
let write t entry =
  t.tail <- entry :: t.tail;
  t.tail_len <- t.tail_len + 1;
  if t.tail_len >= tail_cap then fold t;
  List.iter (fun (k, v) -> apply t k v) entry;
  t.commits <- t.commits + 1

let load t bindings = write t (List.map (fun (k, v) -> (k, Some v)) bindings)

module Tx = struct
  type 'v op = Put of 'v | Delete

  type 'v tx = {
    store : 'v t;
    reads : int Tbl.Str.t; (* key -> version observed *)
    writes : 'v op Tbl.Str.t;
    mutable order : string list; (* write keys, newest first, for determinism *)
    mutable finished : bool;
  }

  let begin_ store =
    {
      store;
      reads = Tbl.Str.create 8;
      writes = Tbl.Str.create 8;
      order = [];
      finished = false;
    }

  let check_open tx = if tx.finished then invalid_arg "Store.Tx: finished handle"

  let get tx k =
    check_open tx;
    match Tbl.Str.find_opt tx.writes k with
    | Some (Put v) -> Some v
    | Some Delete -> None
    | None ->
        if not (Tbl.Str.mem tx.reads k) then
          Tbl.Str.replace tx.reads k (version tx.store k);
        get_now tx.store k

  let record_write tx k op =
    check_open tx;
    if not (Tbl.Str.mem tx.writes k) then tx.order <- k :: tx.order;
    Tbl.Str.replace tx.writes k op

  let put tx k v = record_write tx k (Put v)
  let delete tx k = record_write tx k Delete

  let commit tx =
    check_open tx;
    tx.finished <- true;
    let stale =
      Tbl.Str.fold
        (fun k ver acc ->
          match acc with
          | Some _ -> acc
          | None -> if version tx.store k <> ver then Some k else None)
        tx.reads None
    in
    match stale with
    | Some k ->
        tx.store.aborts <- tx.store.aborts + 1;
        Error (`Conflict k)
    | None ->
        write tx.store
          (List.rev_map
             (fun k ->
               match Tbl.Str.find tx.writes k with
               | Put v -> (k, Some v)
               | Delete -> (k, None))
             tx.order);
        Ok ()

  let abort tx =
    check_open tx;
    tx.finished <- true;
    tx.store.aborts <- tx.store.aborts + 1

  let read_set tx = Tbl.Str.fold (fun k _ acc -> k :: acc) tx.reads []
  let write_set tx = List.rev tx.order
end

let journal_length t = t.folded + t.tail_len
let journal_folded t = t.folded

let journal_entry t i =
  if i < t.folded || i >= journal_length t then
    invalid_arg "Store.journal_entry: out of range";
  List.nth t.tail (journal_length t - 1 - i)

let replay t =
  let fresh = create () in
  Tbl.Str.iter
    (fun k c ->
      Tbl.Str.replace fresh.image k { value = c.value; ver = c.ver };
      Tbl.Str.replace fresh.cells k { value = c.value; ver = c.ver };
      if c.value <> None then fresh.live <- fresh.live + 1)
    t.image;
  fresh.folded <- t.folded;
  fresh.commits <- t.folded;
  List.iter (write fresh) (List.rev t.tail);
  fresh
