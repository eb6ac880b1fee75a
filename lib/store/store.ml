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

  let apply store k op =
    let cell =
      match Tbl.Str.find_opt store.cells k with
      | Some c -> c
      | None ->
          let c = { value = None; ver = 0 } in
          Tbl.Str.replace store.cells k c;
          c
    in
    let was_live = cell.value <> None in
    (match op with
    | Put v -> cell.value <- Some v
    | Delete -> cell.value <- None);
    let is_live = cell.value <> None in
    if was_live && not is_live then store.live <- store.live - 1;
    if (not was_live) && is_live then store.live <- store.live + 1;
    cell.ver <- cell.ver + 1;
    store.on_apply k cell.value

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
        let ordered = List.rev tx.order in
        (* journal first: the write set is durable before cells mutate *)
        let entry =
          List.map
            (fun k ->
              match Tbl.Str.find tx.writes k with
              | Put v -> (k, Some v)
              | Delete -> (k, None))
            ordered
        in
        tx.store.journal <- entry :: tx.store.journal;
        tx.store.journal_len <- tx.store.journal_len + 1;
        List.iter
          (fun k -> apply tx.store k (Tbl.Str.find tx.writes k))
          ordered;
        tx.store.commits <- tx.store.commits + 1;
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
  List.iter
    (fun entry ->
      let tx = Tx.begin_ fresh in
      List.iter
        (fun (k, v) -> match v with Some v -> Tx.put tx k v | None -> Tx.delete tx k)
        entry;
      match Tx.commit tx with Ok () -> () | Error _ -> assert false)
    (List.rev t.journal);
  fresh
