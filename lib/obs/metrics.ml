module Stats = Weaver_util.Stats
module Json = Weaver_util.Json

type counter = { mutable c : int }

type instrument =
  | Counter of counter
  | Gauge of (unit -> int)
  | Reservoir of Stats.t

type t = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
      let c = { c = 0 } in
      Hashtbl.replace t.tbl name (Counter c);
      c

let incr ?(by = 1) c = c.c <- c.c + by
let counter_value c = c.c

(* re-registering a gauge over a gauge is deliberate (actor respawn after a
   fault re-registers its utilization gauges over the dead incarnation's),
   but silently shadowing a counter or reservoir would corrupt every
   fingerprint that reads it — that is always a bug, so raise *)
let gauge t name f =
  match Hashtbl.find_opt t.tbl name with
  | None | Some (Gauge _) -> Hashtbl.replace t.tbl name (Gauge f)
  | Some (Counter _) ->
      invalid_arg ("Metrics.gauge: " ^ name ^ " is already a counter")
  | Some (Reservoir _) ->
      invalid_arg ("Metrics.gauge: " ^ name ^ " is already a reservoir")

let reservoir t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Reservoir s) -> s
  | Some _ -> invalid_arg ("Metrics.reservoir: " ^ name ^ " is not a reservoir")
  | None ->
      let s = Stats.create () in
      Hashtbl.replace t.tbl name (Reservoir s);
      s

let observe t name v = Stats.add (reservoir t name) v

let sorted_bindings t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let int_values t =
  List.filter_map
    (fun (name, inst) ->
      match inst with
      | Counter c -> Some (name, c.c)
      | Gauge f -> Some (name, f ())
      | Reservoir _ -> None)
    (sorted_bindings t)

let reservoirs t =
  List.filter_map
    (fun (name, inst) ->
      match inst with
      | Reservoir s when not (Stats.is_empty s) -> Some (name, s)
      | _ -> None)
    (sorted_bindings t)

let render t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  (match int_values t with
  | [] -> ()
  | ints ->
      line "%-34s %12s" "counter" "value";
      List.iter (fun (name, v) -> line "%-34s %12d" name v) ints);
  (match reservoirs t with
  | [] -> ()
  | rs ->
      line "%-34s %8s %10s %10s %10s %10s" "reservoir" "n" "mean" "p50" "p99" "max";
      List.iter
        (fun (name, s) ->
          line "%-34s %8d %10.1f %10.1f %10.1f %10.1f" name (Stats.count s)
            (Stats.mean s)
            (Stats.percentile s 50.0)
            (Stats.percentile s 99.0)
            (Stats.max_val s))
        rs);
  Buffer.contents b

let to_json t =
  let reservoir s =
    Json.Obj
      [
        ("n", Json.int (Stats.count s));
        ("mean", Json.fixed 3 (Stats.mean s));
        ("p50", Json.fixed 3 (Stats.percentile s 50.0));
        ("p90", Json.fixed 3 (Stats.percentile s 90.0));
        ("p99", Json.fixed 3 (Stats.percentile s 99.0));
        ("max", Json.fixed 3 (Stats.max_val s));
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("counters", Json.Obj (List.map (fun (name, v) -> (name, Json.int v)) (int_values t)));
         ("reservoirs", Json.Obj (List.map (fun (name, s) -> (name, reservoir s)) (reservoirs t)));
       ])
