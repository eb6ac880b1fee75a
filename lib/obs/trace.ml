type span = {
  sp_trace : int;
  sp_name : string;
  sp_actor : string;
  sp_start : float;
  mutable sp_stop : float;
  mutable sp_meta : (string * string) list;
}

type record = {
  mutable r_spans : span list; (* newest first *)
  mutable r_msgs : (float * int * int * string) list; (* newest first *)
  mutable r_msg_count : int;
}

type t = {
  capacity : int;
  traces : (int, record) Hashtbl.t;
  order : int Queue.t; (* arrival order, for whole-trace eviction *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; traces = Hashtbl.create 256; order = Queue.create () }

let record_of t trace =
  match Hashtbl.find_opt t.traces trace with
  | Some r -> r
  | None ->
      while Hashtbl.length t.traces >= t.capacity && not (Queue.is_empty t.order) do
        Hashtbl.remove t.traces (Queue.pop t.order)
      done;
      let r = { r_spans = []; r_msgs = []; r_msg_count = 0 } in
      Hashtbl.replace t.traces trace r;
      Queue.push trace t.order;
      r

let begin_span t ~trace ~name ~actor ~start =
  let sp =
    { sp_trace = trace; sp_name = name; sp_actor = actor; sp_start = start;
      sp_stop = Float.nan; sp_meta = [] }
  in
  if trace <> 0 then begin
    let r = record_of t trace in
    r.r_spans <- sp :: r.r_spans
  end;
  sp

let finish sp ~stop = sp.sp_stop <- stop
let add_meta sp k v = sp.sp_meta <- (k, v) :: sp.sp_meta

let span t ~trace ~name ~actor ~start ~stop ?(meta = []) () =
  if trace <> 0 then begin
    let sp = begin_span t ~trace ~name ~actor ~start in
    sp.sp_stop <- stop;
    sp.sp_meta <- meta
  end

let message t ~trace ~time ~src ~dst ~kind =
  if trace <> 0 then begin
    let r = record_of t trace in
    r.r_msgs <- (time, src, dst, kind) :: r.r_msgs;
    r.r_msg_count <- r.r_msg_count + 1
  end

let stop_or_start sp = if Float.is_nan sp.sp_stop then sp.sp_start else sp.sp_stop

let spans t trace =
  match Hashtbl.find_opt t.traces trace with
  | None -> []
  | Some r ->
      List.sort
        (fun a b ->
          let c = Float.compare a.sp_start b.sp_start in
          if c <> 0 then c else Float.compare (stop_or_start b) (stop_or_start a))
        r.r_spans

let messages t trace =
  match Hashtbl.find_opt t.traces trace with
  | None -> []
  | Some r -> List.rev r.r_msgs

let message_count t trace =
  match Hashtbl.find_opt t.traces trace with None -> 0 | Some r -> r.r_msg_count

let trace_ids t = Queue.fold (fun acc id -> id :: acc) [] t.order |> List.rev

type tree = { node : span; children : tree list }

(* Nest by interval containment. Spans arrive sorted by (start asc, width
   desc), so a linear pass with an ancestor stack suffices: pop ancestors
   that end before this span starts (or cannot contain it), then attach. *)
let assemble t trace =
  let sorted = spans t trace in
  let contains outer inner =
    outer.sp_start <= inner.sp_start
    && (not (Float.is_nan outer.sp_stop))
    && stop_or_start inner <= outer.sp_stop
  in
  (* mutable forest built with refs: each frame is (span, children ref) *)
  let roots : (span * tree list ref) list ref = ref [] in
  let stack : (span * tree list ref) list ref = ref [] in
  let rec close_into (sp, kids) =
    let node = { node = sp; children = List.rev !kids } in
    match !stack with
    | (_, parent_kids) :: _ -> parent_kids := node :: !parent_kids
    | [] -> ()
  and pop_until sp =
    match !stack with
    | (top, kids) :: rest when not (contains top sp) ->
        stack := rest;
        close_into (top, kids);
        pop_until sp
    | _ -> ()
  in
  List.iter
    (fun sp ->
      pop_until sp;
      let frame = (sp, ref []) in
      (match !stack with
      | [] -> roots := frame :: !roots
      | _ -> ());
      stack := frame :: !stack)
    sorted;
  (* flush the stack bottom-up *)
  let rec flush () =
    match !stack with
    | (top, kids) :: rest ->
        stack := rest;
        close_into (top, kids);
        flush ()
    | [] -> ()
  in
  flush ();
  (* roots hold frames whose children refs are now final *)
  List.rev_map
    (fun (sp, kids) -> { node = sp; children = List.rev !kids })
    !roots

let render t trace =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "trace %d" trace;
  let rec go depth { node = sp; children } =
    let indent = String.make (2 * depth) ' ' in
    let dur =
      if Float.is_nan sp.sp_stop then "open"
      else Printf.sprintf "%.1f us" (sp.sp_stop -. sp.sp_start)
    in
    let meta =
      match sp.sp_meta with
      | [] -> ""
      | m -> " {" ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) m) ^ "}"
    in
    line "%s%-24s %-8s [%.1f .. %s] %s%s" indent sp.sp_name sp.sp_actor sp.sp_start
      (if Float.is_nan sp.sp_stop then "?" else Printf.sprintf "%.1f" sp.sp_stop)
      dur meta;
    List.iter (go (depth + 1)) children
  in
  List.iter (go 1) (assemble t trace);
  let msgs = messages t trace in
  line "  messages: %d" (List.length msgs);
  List.iter
    (fun (time, src, dst, kind) -> line "    %10.1f  %3d -> %3d  %s" time src dst kind)
    msgs;
  Buffer.contents b
