module Tbl = Weaver_util.Tbl

type 'v cell = { mutable value : 'v option; mutable ver : int }

type 'v t = {
  cells : 'v cell Tbl.Str.t;
  mutable live : int;
  mutable commits : int;
  mutable aborts : int;
  mutable journal : (string * 'v option) list list; (* newest first *)
  mutable journal_len : int;
  mutable on_apply : string -> 'v option -> unit;
}

let create () =
  {
    cells = Tbl.Str.create 1024;
    live = 0;
    commits = 0;
    aborts = 0;
    journal = [];
    journal_len = 0;
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

let apply t k value =
  let cell =
    match Tbl.Str.find_opt t.cells k with
    | Some c -> c
    | None ->
        let c = { value = None; ver = 0 } in
        Tbl.Str.replace t.cells k c;
        c
  in
  let was_live = cell.value <> None and is_live = value <> None in
  cell.value <- value;
  if was_live && not is_live then t.live <- t.live - 1;
  if (not was_live) && is_live then t.live <- t.live + 1;
  cell.ver <- cell.ver + 1;
  t.on_apply k value

(* one committed write set: journal first (the write set is durable
   before cells mutate), then every key in order *)
let write t entry =
  t.journal <- entry :: t.journal;
  t.journal_len <- t.journal_len + 1;
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

let journal_length t = t.journal_len

let journal_entry t i =
  if i < 0 || i >= t.journal_len then invalid_arg "Store.journal_entry: out of range";
  List.nth t.journal (t.journal_len - 1 - i)

let replay t =
  let fresh = create () in
  List.iter (write fresh) (List.rev t.journal);
  fresh
