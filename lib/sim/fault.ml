module Xrand = Weaver_util.Xrand

type target =
  | Gatekeeper of int
  | Shard of int
  | Replica of { shard : int; replica : int }
  | Oracle_replica of int

type action =
  | Crash of target
  | Restart of target
  | Net_degrade of float
  | Link_degrade of { src : target; dst : target; factor : float }

type event = { at : float; action : action }
type plan = event list

let action_name = function
  | Crash _ -> "crash"
  | Restart _ -> "restart"
  | Net_degrade _ -> "net_degrade"
  | Link_degrade _ -> "link_degrade"

let by_time = List.stable_sort (fun a b -> Float.compare a.at b.at)

let scripted events = by_time (List.map (fun (at, action) -> { at; action }) events)

let rolling_crashes ~targets ~start ~gap ~downtime =
  List.concat
    (List.mapi
       (fun i tgt ->
         let at = start +. (float_of_int i *. gap) in
         [ { at; action = Crash tgt }; { at = at +. downtime; action = Restart tgt } ])
       targets)
  |> by_time

let random_plan ~rng ~targets ~start ~until ~mean_gap ~downtime =
  let targets = Array.of_list targets in
  if Array.length targets = 0 then []
  else begin
    let events = ref [] in
    let t = ref (start +. Xrand.exponential rng ~mean:mean_gap) in
    while !t < until do
      let tgt = Xrand.pick rng targets in
      events :=
        { at = !t +. downtime; action = Restart tgt }
        :: { at = !t; action = Crash tgt }
        :: !events;
      t := !t +. downtime +. Xrand.exponential rng ~mean:mean_gap
    done;
    by_time (List.rev !events)
  end

let install engine plan ~exec =
  List.iter
    (fun { at; action } -> Engine.schedule_at engine ~time:at (fun () -> exec action))
    plan;
  List.length plan
