module Vclock = Weaver_vclock.Vclock

let covers ~(wm : Vclock.t) (at : Vclock.t) =
  wm.Vclock.epoch = at.Vclock.epoch
  && Array.length wm.Vclock.clocks = Array.length at.Vclock.clocks
  &&
  let ok = ref true in
  Array.iteri
    (fun i w -> if at.Vclock.clocks.(i) > w then ok := false)
    wm.Vclock.clocks;
  !ok

module Table = struct
  (* range -> followers with their advertised watermarks, in install order *)
  type t = { entries : (int, (int * Vclock.t option) list) Hashtbl.t }

  let create () = { entries = Hashtbl.create 16 }

  let install t ~range ~followers =
    Hashtbl.replace t.entries range (List.map (fun f -> (f, None)) followers)

  let followers t ~range = Option.value ~default:[] (Hashtbl.find_opt t.entries range)

  let set_wm t ~range ~follower wm =
    match Hashtbl.find_opt t.entries range with
    | None -> ()
    | Some fs ->
        Hashtbl.replace t.entries range
          (List.map (fun (f, old) -> if f = follower then (f, Some wm) else (f, old)) fs)

  let clear_wms t =
    Hashtbl.filter_map_inplace
      (fun _ fs -> Some (List.map (fun (f, _) -> (f, None)) fs))
      t.entries

  let covering t ~range ~at =
    List.filter_map
      (fun (f, wm) ->
        match wm with
        | Some wm when covers ~wm at -> Some f
        | _ -> None)
      (followers t ~range)

  let size t = Hashtbl.length t.entries
end
