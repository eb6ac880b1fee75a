type cell = { mutable calls : int; mutable ns : int; mutable words : float }

type t = { clock : unit -> int; cells : (string * string, cell) Hashtbl.t }

type row = {
  actor : string;
  kind : string;
  calls : int;
  ns : int;
  minor_words : float;
}

let create ~clock = { clock; cells = Hashtbl.create 32 }

let cell t key =
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
      let c = { calls = 0; ns = 0; words = 0.0 } in
      Hashtbl.replace t.cells key c;
      c

let measure t ~actor ~kind f =
  let w0 = Gc.minor_words () in
  let t0 = t.clock () in
  f ();
  let t1 = t.clock () in
  let w1 = Gc.minor_words () in
  let c = cell t (actor, kind) in
  c.calls <- c.calls + 1;
  c.ns <- c.ns + (t1 - t0);
  c.words <- c.words +. (w1 -. w0)

let rows t =
  Hashtbl.fold
    (fun (actor, kind) (c : cell) acc ->
      { actor; kind; calls = c.calls; ns = c.ns; minor_words = c.words } :: acc)
    t.cells []
  |> List.sort (fun a b ->
         match Int.compare b.ns a.ns with
         | 0 -> compare (a.actor, a.kind) (b.actor, b.kind)
         | c -> c)

let total_ns t = Hashtbl.fold (fun _ (c : cell) acc -> acc + c.ns) t.cells 0
