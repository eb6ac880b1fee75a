(* Top-K slowest requests, for post-hoc triage without trawling the whole
   trace collector. Entries arrive from the client layer when a reply (or
   timeout) resolves a request; the log keeps them sorted by duration and
   drops the fastest once full. Recording never schedules events. *)

type entry = {
  e_trace : int;
  e_kind : string;  (* "tx" | "prog" | "migrate" *)
  e_start : float;
  e_stop : float;
  e_result : string;  (* "ok" or the error string *)
  e_phases : (string * float) list;  (* span name -> summed duration, µs *)
}

type t = {
  capacity : int;
  mutable entries : entry list;  (* slowest first, length <= capacity *)
  mutable length : int;  (* List.length entries *)
  mutable floor : float;
      (* duration of the fastest retained entry once the log is full: a
         new entry must reach it to get in *)
  mutable recorded : int;
}

let duration e = e.e_stop -. e.e_start

let create ~capacity =
  if capacity <= 0 then invalid_arg "Slowlog.create: capacity must be positive";
  { capacity; entries = []; length = 0; floor = 0.0; recorded = 0 }

(* a new entry goes ahead of the first one it is at least as slow as, so
   among equal durations the newest ranks first *)
let rec insert e = function
  | [] -> [ e ]
  | e' :: _ as rest when duration e >= duration e' -> e :: rest
  | e' :: rest -> e' :: insert e rest

let rec last = function [ e ] -> e | _ :: rest -> last rest | [] -> assert false

(* [entries] without its last (fastest) element *)
let rec drop_last = function [] | [ _ ] -> [] | e :: rest -> e :: drop_last rest

let record t e =
  t.recorded <- t.recorded + 1;
  if t.length < t.capacity then begin
    t.entries <- insert e t.entries;
    t.length <- t.length + 1;
    if t.length = t.capacity then t.floor <- duration (last t.entries)
  end
  else if duration e >= t.floor then begin
    (* [e] ranks ahead of the fastest entry, which falls off the end *)
    t.entries <- insert e (drop_last t.entries);
    t.floor <- duration (last t.entries)
  end

let entries t = t.entries
let recorded t = t.recorded

(* the duration a new request must exceed to enter a full log *)
let threshold t = if t.length < t.capacity then 0.0 else t.floor

let render t =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "slow-request log: %d retained of %d recorded\n"
       t.length t.recorded);
  List.iteri
    (fun i e ->
      Buffer.add_string b
        (Printf.sprintf "%2d. trace %-12d %-8s %9.1f us  @%.0f  [%s]\n" (i + 1)
           e.e_trace e.e_kind (duration e) e.e_start e.e_result);
      List.iter
        (fun (name, d) ->
          Buffer.add_string b (Printf.sprintf "      %-22s %9.1f us\n" name d))
        e.e_phases)
    t.entries;
  Buffer.contents b

module Json = Weaver_util.Json

let to_json t =
  let entry e =
    Json.Obj
      [
        ("trace", Json.int e.e_trace);
        ("kind", Json.Str e.e_kind);
        ("start_us", Json.fixed 1 e.e_start);
        ("duration_us", Json.fixed 1 (duration e));
        ("result", Json.Str e.e_result);
        ("phases", Json.Obj (List.map (fun (name, d) -> (name, Json.fixed 1 d)) e.e_phases));
      ]
  in
  Json.to_string
    (Json.Obj
       [ ("recorded", Json.int t.recorded); ("entries", Json.List (List.map entry t.entries)) ])
