type cell = { mutable calls : int; mutable ns : int; mutable words : float }

type t = {
  clock : unit -> int;
  cells : (string * string, cell) Hashtbl.t;
  mutable inner_ns : int;  (* charged by measurements nested in the open one *)
  mutable inner_words : float;
}

type row = {
  actor : string;
  kind : string;
  calls : int;
  ns : int;
  minor_words : float;
}

let create ~clock = { clock; cells = Hashtbl.create 32; inner_ns = 0; inner_words = 0.0 }

let cell t key =
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
      let c = { calls = 0; ns = 0; words = 0.0 } in
      Hashtbl.replace t.cells key c;
      c

(* A measurement nested in another (an oracle call inside a handler) is
   charged to its own row and left out of the enclosing one, so rows
   partition the measured time. *)
let measure t ~actor ~kind f =
  let outer_ns = t.inner_ns and outer_words = t.inner_words in
  t.inner_ns <- 0;
  t.inner_words <- 0.0;
  let w0 = Gc.minor_words () in
  let t0 = t.clock () in
  let finish () =
    let t1 = t.clock () in
    let w1 = Gc.minor_words () in
    let c = cell t (actor, kind) in
    c.calls <- c.calls + 1;
    c.ns <- c.ns + (t1 - t0 - t.inner_ns);
    c.words <- c.words +. (w1 -. w0 -. t.inner_words);
    t.inner_ns <- outer_ns + (t1 - t0);
    t.inner_words <- outer_words +. (w1 -. w0)
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      t.inner_ns <- outer_ns;
      t.inner_words <- outer_words;
      raise e

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
