(* Serializers for offline analysis: span trees + message ledgers as
   Chrome trace-event JSON (loadable in Perfetto / chrome://tracing), and
   timelines as CSV or JSON.

   Chrome trace-event mapping:
   - one pid per actor ("gk0", "shard2", "store", ...), named with an "M"
     process_name metadata event;
   - every span is an "X" (complete) event: ts = virtual start µs,
     dur = span length, tid = the request's trace id, args = span meta;
   - every ledger message is a flow-event pair: "s" (start) at the sender,
     "f" (finish) at the receiver, sharing one flow id, so Perfetto draws
     an arrow per network message. *)

module Json = Weaver_util.Json

let trace_document events =
  Json.to_string
    (Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ms") ])
  ^ "\n"

let chrome_trace tr ~traces ?(actor_of_addr = fun a -> "addr" ^ string_of_int a) () =
  let spans = List.concat_map (fun id -> Trace.spans tr id) traces in
  let messages =
    List.concat_map
      (fun id -> List.map (fun m -> (id, m)) (Trace.messages tr id))
      traces
  in
  (* stable pid plan: every actor that appears, sorted by name *)
  let actor_tbl = Hashtbl.create 16 in
  List.iter (fun sp -> Hashtbl.replace actor_tbl sp.Trace.sp_actor ()) spans;
  List.iter
    (fun (_, (_, src, dst, _)) ->
      Hashtbl.replace actor_tbl (actor_of_addr src) ();
      Hashtbl.replace actor_tbl (actor_of_addr dst) ())
    messages;
  let actors =
    List.sort String.compare (Hashtbl.fold (fun a () acc -> a :: acc) actor_tbl [])
  in
  let pids = Hashtbl.create 16 in
  List.iteri (fun i a -> Hashtbl.replace pids a (i + 1)) actors;
  let pid a = try Hashtbl.find pids a with Not_found -> 0 in
  let str k v = (k, Json.Str v) and num k n = (k, Json.int n) in
  let process a =
    Json.Obj
      [
        str "ph" "M"; str "name" "process_name"; num "pid" (pid a);
        ("args", Json.Obj [ str "name" a ]);
      ]
  in
  let span sp =
    let stop = sp.Trace.sp_stop in
    let dur =
      if Float.is_nan stop then 0.0 else Float.max 0.0 (stop -. sp.Trace.sp_start)
    in
    Json.Obj
      [
        str "ph" "X"; str "name" sp.Trace.sp_name; str "cat" "span";
        num "pid" (pid sp.Trace.sp_actor); num "tid" sp.Trace.sp_trace;
        ("ts", Json.fixed 3 sp.Trace.sp_start); ("dur", Json.fixed 3 dur);
        ( "args",
          Json.Obj
            (List.map
               (fun (k, v) -> str k v)
               (("trace", string_of_int sp.Trace.sp_trace) :: sp.Trace.sp_meta)) );
      ]
  in
  let flows flow_id (trace, (time, src, dst, kind)) =
    let common =
      [
        str "name" kind; str "cat" "msg"; num "id" (flow_id + 1); num "tid" trace;
        ("ts", Json.fixed 3 time);
      ]
    in
    (* the ledger records send time only; stamping the finish at the same
       instant still draws the src→dst arrow *)
    [
      Json.Obj ((str "ph" "s" :: common) @ [ num "pid" (pid (actor_of_addr src)) ]);
      Json.Obj
        ((str "ph" "f" :: str "bp" "e" :: common) @ [ num "pid" (pid (actor_of_addr dst)) ]);
    ]
  in
  trace_document
    (List.map process actors
    @ List.map span spans
    @ List.concat (List.mapi flows messages))

(* RFC 4180 quoting: instrument names are normally dotted identifiers, but
   heat introduces names derived from vertex handles, which may embed
   commas, quotes or newlines *)
let csv_cell s =
  let hostile = function ',' | '"' | '\n' | '\r' -> true | _ -> false in
  if String.exists hostile s then begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

let timeline_csv tl =
  let names = Timeline.names tl in
  let b = Buffer.create 4096 in
  Buffer.add_string b (String.concat "," ("time_us" :: List.map csv_cell names));
  Buffer.add_char b '\n';
  List.iter
    (fun s ->
      Buffer.add_string b (Printf.sprintf "%.1f" s.Timeline.s_time);
      List.iter
        (fun name ->
          Buffer.add_char b ',';
          match
            Array.find_opt (fun (k, _) -> String.equal k name) s.Timeline.s_values
          with
          | Some (_, v) -> Buffer.add_string b (string_of_int v)
          | None -> ())
        names;
      Buffer.add_char b '\n')
    (Timeline.samples tl);
  Buffer.contents b

(* Perfetto counter tracks: one "C" event per (sample, instrument) pair,
   so the UI draws each instrument as a stepped value-over-time track.
   Works on any timeline series; pass heat.* names for heat maps. *)
let counter_tracks tl ~names =
  let known = Timeline.names tl in
  let names = List.filter (fun n -> List.mem n known) names in
  let process =
    Json.Obj
      [
        ("ph", Json.Str "M"); ("name", Json.Str "process_name"); ("pid", Json.int 1);
        ("args", Json.Obj [ ("name", Json.Str "counters") ]);
      ]
  in
  let counter s name =
    Option.map
      (fun (_, v) ->
        Json.Obj
          [
            ("ph", Json.Str "C"); ("name", Json.Str name); ("pid", Json.int 1);
            ("ts", Json.fixed 3 s.Timeline.s_time);
            ("args", Json.Obj [ ("value", Json.int v) ]);
          ])
      (Array.find_opt (fun (k, _) -> String.equal k name) s.Timeline.s_values)
  in
  trace_document
    (process
    :: List.concat_map (fun s -> List.filter_map (counter s) names) (Timeline.samples tl))

let heat_json h ~now =
  let shard s =
    let reads, writes, cross = Heat.totals h ~shard:s in
    Json.Obj
      [
        ("shard", Json.int s); ("reads", Json.int reads); ("writes", Json.int writes);
        ("cross", Json.int cross); ("load", Json.fixed 4 (Heat.shard_load h ~shard:s ~now));
        ( "top",
          Json.List
            (List.map
               (fun (vid, count, err) ->
                 Json.Obj [ ("vid", Json.Str vid); ("count", Json.int count); ("err", Json.int err) ])
               (Heat.top h ~shard:s)) );
      ]
  in
  let range r =
    let load kind = Json.fixed 4 (Heat.range_load h ~range:r ~kind ~now) in
    Json.Obj
      [
        ("range", Json.int r); ("home", Json.int (Heat.home_shard h r));
        ("owner", Json.int (Heat.range_owner h ~range:r ~now));
        ("reads", load Heat.Read); ("writes", load Heat.Write); ("cross", load Heat.Cross);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("shards", Json.int (Heat.shards h)); ("ranges", Json.int (Heat.ranges h));
         ("half_life_us", Json.fixed 1 (Heat.half_life h));
         ("skew", Json.fixed 4 (Heat.skew h ~now));
         ("per_shard", Json.List (List.init (Heat.shards h) shard));
         ("range_heat", Json.List (List.init (Heat.ranges h) range));
       ])

let heat_csv h ~now =
  let b = Buffer.create 2048 in
  Buffer.add_string b "range,home_shard,owner_shard,reads,writes,cross\n";
  for r = 0 to Heat.ranges h - 1 do
    Buffer.add_string b
      (Printf.sprintf "%d,%d,%d,%.4f,%.4f,%.4f\n" r (Heat.home_shard h r)
         (Heat.range_owner h ~range:r ~now)
         (Heat.range_load h ~range:r ~kind:Heat.Read ~now)
         (Heat.range_load h ~range:r ~kind:Heat.Write ~now)
         (Heat.range_load h ~range:r ~kind:Heat.Cross ~now))
  done;
  Buffer.contents b

let timeline_json tl =
  let samples = Timeline.samples tl in
  let series name =
    ( name,
      Json.List
        (List.map
           (fun s ->
             match
               Array.find_opt (fun (k, _) -> String.equal k name) s.Timeline.s_values
             with
             | Some (_, v) -> Json.int v
             | None -> Json.Null)
           samples) )
  in
  Json.to_string
    (Json.Obj
       [
         ("times_us", Json.List (List.map (fun s -> Json.fixed 1 s.Timeline.s_time) samples));
         ("series", Json.Obj (List.map series (Timeline.names tl)));
       ])
  ^ "\n"
