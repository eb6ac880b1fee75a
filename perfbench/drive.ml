(* One repetition of a workload: build the graph, boot and load a cluster,
   warm it up with closed-loop clients, measure a fixed virtual window in
   equal slices, drain, and check every acknowledged write.

   The cluster is driven only through its public API: [Cluster], [Client],
   [Config], [Loader.fast_install] on a graph record built here, and
   read-only accessors. A repetition is a pure function of the spec and
   the seed in virtual time; only the CPU and wall-clock readings vary. *)

open Weaver
module Runtime = Weaver_core.Runtime
module Msg = Weaver_core.Msg

type mix =
  | Tao of { read_frac : float; theta : float }
      (** Table 1 reads (get_edges 59.4 / count_edges 11.7 / get_node 28.9)
          and writes (create_edge 80 / delete_edge 20) over Zipf keys *)
  | Traversal of { depths : int array; writers : int }
      (** [nhop_count] from uniform starts, plus [writers] clients that each
          own one vertex-property key and set it on uniform vertices *)

type spec = {
  name : string;
  vertices : int;
  out_degree : int;
  gatekeepers : int;
  shards : int;
  capacity : int option;  (** [Config.shard_capacity] *)
  clients : int;  (** closed-loop clients issuing the [mix] *)
  mix : mix;
  warmup_us : float;
  slices : int;
  slice_us : float;  (** the measured window is [slices × slice_us] *)
}

let window_us s = float_of_int s.slices *. s.slice_us

(* Retry OCC conflicts like a real application would: an abort costs write
   latency, and only a write that fails every attempt is an error. *)
let policy =
  {
    Client.default_policy with
    Client.rp_attempts = 8;
    rp_backoff = 200.0;
    rp_backoff_cap = 5_000.0;
    rp_retry_conflicts = true;
  }

(* ---------------------------------------------------------------- *)
(* Traced repetitions also record the benchmark's own spans and count
   messages by kind during the window. *)

type request_span = { rid : int; op : string; vstart : float; vstop : float }

type tracing = {
  kinds : (string, int) Hashtbl.t;
  mutable counting : bool;
  mutable requests : request_span list;
  mutable phases : (string * float) list;  (** set-up phase, CPU seconds *)
  mutable slice_spans : (float * float * float) list;  (** (virtual start, virtual stop, CPU s) *)
}

let tracing () =
  { kinds = Hashtbl.create 32; counting = false; requests = []; phases = []; slice_spans = [] }

(* ---------------------------------------------------------------- *)

type counters_snap = {
  ints : (string * int) list;  (** [Metrics.int_values] *)
  vt : float;
  minor_words : float;
  majors : int;
}

let snap cluster =
  let g = Gc.quick_stat () in
  {
    ints = Metrics.int_values (Cluster.metrics cluster);
    vt = Cluster.now cluster;
    minor_words = g.Gc.minor_words;
    majors = g.Gc.major_collections;
  }

let int_of (s : counters_snap) name = Option.value ~default:0 (List.assoc_opt name s.ints)
let delta a b name = int_of b name - int_of a name

type rep = {
  spec : spec;
  cluster : Cluster.t;
  setup_cpu : float;
  setup_probe : float;  (** [Calib.probe] CPU seconds right after set-up *)
  w0 : counters_snap;  (** at the start of the measured window *)
  w1 : counters_snap;  (** at its end *)
  slice_ops : int array;
  slice_cpu : float array;
  slice_probe : float array;  (** [Calib.probe] CPU seconds right after each slice *)
  completed : int;  (** ops that succeeded inside the window *)
  reads : float array;  (** virtual µs of reads that completed in the window *)
  writes : float array;  (** virtual µs of committed writes in the window *)
  attempted : int;  (** every op issued, warm-up and drain included *)
  errors : int;  (** error replies, after retries *)
  bad : string list;  (** wrong or malformed answers, first few *)
  n_bad : int;
  drained : bool;
  verdict : Model.verdict;
  read_counts : int array;  (** reads per start vertex, for the layer kernels *)
}

let config spec ~seed ~traced =
  {
    Config.default with
    Config.n_gatekeepers = spec.gatekeepers;
    n_shards = spec.shards;
    shard_capacity = spec.capacity;
    enable_tracing = traced;
    trace_capacity = (if traced then 1 lsl 17 else Config.default.Config.trace_capacity);
    seed;
  }

let max_bad = 5

(* A booted, loaded and warmed-up cluster with its clients running. *)
type live = {
  l_spec : spec;
  l_graph : Gen.graph;
  l_cluster : Cluster.t;
  l_trace : tracing option;
  l_cpu0 : float;
  mutable l_setup_cpu : float;
  mutable l_setup_probe : float;
  ledger : Model.ledger;
  touched : bool array;  (** a write to the vertex's out-edges was issued *)
  read_counts : int array;
  mutable l_reads : float list;
  mutable l_writes : float list;
  l_slice_ops : int array;
  mutable win_start : float;
  mutable win_end : float;
  mutable completed : int;
  mutable attempted : int;
  mutable errors : int;
  mutable bad : string list;
  mutable n_bad : int;
  mutable outstanding : int;
  mutable stopping : bool;
}

let note_bad l msg =
  l.n_bad <- l.n_bad + 1;
  if List.length l.bad < max_bad then l.bad <- msg :: l.bad

let finish l ~rid ~op ~t0 ~ok ~is_write =
  l.outstanding <- l.outstanding - 1;
  let now = Cluster.now l.l_cluster in
  if not ok then l.errors <- l.errors + 1
  else if now >= l.win_start && now < l.win_end then begin
    l.completed <- l.completed + 1;
    if is_write then l.l_writes <- (now -. t0) :: l.l_writes else l.l_reads <- (now -. t0) :: l.l_reads;
    let i = min (int_of_float ((now -. l.win_start) /. l.l_spec.slice_us)) (l.l_spec.slices - 1) in
    l.l_slice_ops.(i) <- l.l_slice_ops.(i) + 1
  end;
  match l.l_trace with
  | Some t -> t.requests <- { rid; op; vstart = t0; vstop = now } :: t.requests
  | None -> ()

let read l client kind v k =
  l.attempted <- l.attempted + 1;
  l.outstanding <- l.outstanding + 1;
  l.read_counts.(v) <- l.read_counts.(v) + 1;
  let t0 = Cluster.now l.l_cluster and rid = ref 0 in
  Client.run_program_async client ~prog:(Model.read_name kind) ~params:(Model.read_params kind)
    ~starts:[ Gen.vid v ]
    ~on_result:(fun r ->
      (* a write issued before this reply may be ordered before the read *)
      let untouched = not l.touched.(v) in
      (match r with
      | Ok pv -> (
          match Model.check_read l.l_graph ~untouched kind ~vertex:v pv with
          | Ok () -> ()
          | Error e -> note_bad l e)
      | Error _ -> ());
      finish l ~rid:!rid ~op:(Model.read_name kind) ~t0 ~ok:(Result.is_ok r) ~is_write:false;
      k ())
    ();
  rid := Client.last_request_id client

let commit l client ~op tx settle k =
  l.attempted <- l.attempted + 1;
  l.outstanding <- l.outstanding + 1;
  let t0 = Cluster.now l.l_cluster and rid = ref 0 in
  Client.commit_async client tx ~on_result:(fun r ->
      settle (Result.is_ok r);
      finish l ~rid:!rid ~op ~t0 ~ok:(Result.is_ok r) ~is_write:true;
      k ());
  rid := Client.last_request_id client

let new_client l =
  let c = Cluster.client l.l_cluster in
  Client.set_retry_policy c policy;
  c

let spawn_tao l ~seed ~read_frac ~theta =
  let keys = Gen.zipf ~n:l.l_spec.vertices ~theta in
  for ci = 0 to l.l_spec.clients - 1 do
    let client = new_client l in
    let rng = Random.State.make [| seed; 2; ci |] in
    let mine = Queue.create () in
    let rec next () =
      if not l.stopping then
        if Random.State.float rng 1.0 < read_frac then begin
          let p = Random.State.float rng 1.0 in
          let kind =
            if p < 0.594 then Model.Get_edges else if p < 0.711 then Model.Count_edges else Model.Get_node
          in
          read l client kind (Gen.zipf_draw keys rng) next
        end
        else if Random.State.float rng 1.0 < 0.8 || Queue.is_empty mine then begin
          let src = Gen.zipf_draw keys rng and dst = Gen.zipf_draw keys rng in
          l.touched.(src) <- true;
          let tx = Client.Tx.begin_ client in
          let eid = Client.Tx.create_edge tx ~src:(Gen.vid src) ~dst:(Gen.vid dst) in
          commit l client ~op:"create_edge" tx
            (fun ok ->
              if ok then begin
                Model.ack_create l.ledger ~src:(Gen.vid src) ~eid;
                Queue.push (src, eid) mine
              end)
            next
        end
        else begin
          let src, eid = Queue.pop mine in
          l.touched.(src) <- true;
          let tx = Client.Tx.begin_ client in
          Client.Tx.delete_edge tx ~src:(Gen.vid src) ~eid;
          commit l client ~op:"delete_edge" tx (fun ok -> Model.settle_delete l.ledger ~eid ~ok) next
        end
    in
    next ()
  done

let spawn_traversal l ~seed ~depths ~writers =
  for ci = 0 to l.l_spec.clients - 1 do
    let client = new_client l in
    let rng = Random.State.make [| seed; 3; ci |] in
    let rec next () =
      if not l.stopping then
        let depth = depths.(Random.State.int rng (Array.length depths)) in
        read l client (Model.Nhop depth) (Random.State.int rng l.l_spec.vertices) next
    in
    next ()
  done;
  for wi = 0 to writers - 1 do
    let client = new_client l in
    let rng = Random.State.make [| seed; 4; wi |] in
    let key = "w" ^ string_of_int wi in
    let seq = ref 0 in
    let rec next () =
      if not l.stopping then begin
        incr seq;
        let vid = Gen.vid (Random.State.int rng l.l_spec.vertices) in
        let value = string_of_int !seq in
        let tx = Client.Tx.begin_ client in
        Client.Tx.set_vertex_prop tx ~vid ~key ~value;
        commit l client ~op:"set_prop" tx (fun ok -> Model.settle_prop l.ledger ~vid ~key ~value ~ok) next
      end
    in
    next ()
  done

(* Set-up: generate the graph, boot the cluster, install the graph, start
   the clients and run the warm-up. Its CPU time, scaled by the probe
   that follows it, is [setup_s]. *)
let setup ?trace spec ~seed =
  let cpu0 = Sys.time () in
  let phase_start = ref cpu0 in
  let phase name =
    let now = Sys.time () in
    Option.iter (fun t -> t.phases <- (name, now -. !phase_start) :: t.phases) trace;
    phase_start := now
  in
  (* the graph is a fixed dataset, like the paper's; the seed drives the
     request streams and the cluster's own randomness *)
  let graph =
    Gen.preferential ~rng:(Random.State.make [| 1 |]) ~n:spec.vertices ~out_degree:spec.out_degree
  in
  phase "gen";
  let cluster = Cluster.create (config spec ~seed ~traced:(trace <> None)) in
  Programs.Std.register_all (Cluster.registry cluster);
  phase "create";
  Loader.fast_install cluster (Gen.to_graphgen graph);
  phase "install";
  let rt = Cluster.runtime cluster in
  Option.iter
    (fun t ->
      let inner = Runtime.obs_net_hook rt in
      Net.set_tracer rt.Runtime.net
        (Some
           (fun ~time ~src ~dst m ->
             if t.counting then begin
               let k = Msg.kind m in
               Hashtbl.replace t.kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt t.kinds k))
             end;
             match inner with Some h -> h ~time ~src ~dst m | None -> ())))
    trace;
  let l =
    {
      l_spec = spec;
      l_graph = graph;
      l_cluster = cluster;
      l_trace = trace;
      l_cpu0 = cpu0;
      l_setup_cpu = 0.0;
      l_setup_probe = 0.0;
      ledger = Model.ledger ();
      touched = Array.make spec.vertices false;
      read_counts = Array.make spec.vertices 0;
      l_reads = [];
      l_writes = [];
      l_slice_ops = Array.make spec.slices 0;
      win_start = infinity;
      win_end = infinity;
      completed = 0;
      attempted = 0;
      errors = 0;
      bad = [];
      n_bad = 0;
      outstanding = 0;
      stopping = false;
    }
  in
  (match spec.mix with
  | Tao { read_frac; theta } -> spawn_tao l ~seed ~read_frac ~theta
  | Traversal { depths; writers } -> spawn_traversal l ~seed ~depths ~writers);
  Cluster.run_for cluster spec.warmup_us;
  phase "warmup";
  l.l_setup_cpu <- Sys.time () -. cpu0;
  l.l_setup_probe <- Calib.probe ();
  l

(* Run the cluster in fixed virtual steps until [pending ()] is 0. *)
let settle cluster pending =
  let budget = ref 1_000 in
  while pending () > 0 && !budget > 0 do
    Cluster.run_for cluster 10_000.0;
    decr budget
  done

(* The final check: after the drain, one strong read per written vertex,
   all in flight at once. *)
let final_check l =
  let observed = Hashtbl.create 256 in
  let checker = new_client l in
  let pending = ref 0 in
  let needs_edges = Hashtbl.create 256 in
  Hashtbl.iter (fun _ (src, _) -> Hashtbl.replace needs_edges src ()) l.ledger.Model.edges;
  let str k e = match Progval.assoc k e with Progval.Str s -> Some s | _ -> None in
  let props_of e =
    match Progval.assoc "props" e with
    | Progval.Assoc kvs -> List.filter_map (function k, Progval.Str s -> Some (k, s) | _ -> None) kvs
    | _ -> []
  in
  List.iter
    (fun vid ->
      let prog = if Hashtbl.mem needs_edges vid then "get_edges" else "get_node" in
      incr pending;
      Client.run_program_async checker ~prog ~params:Progval.Null ~starts:[ vid ]
        ~on_result:(fun r ->
          decr pending;
          let o =
            match r with
            | Ok (Progval.List []) when prog = "get_node" -> None
            | Ok (Progval.List items) ->
                Some { Model.eids = List.filter_map (str "eid") items; props = List.concat_map props_of items }
            | Ok pv ->
                note_bad l (Printf.sprintf "final %s %s: %s" prog vid (Progval.to_string pv));
                None
            | Error e ->
                note_bad l (Printf.sprintf "final %s %s failed: %s" prog vid e);
                None
          in
          Hashtbl.replace observed vid o)
        ())
    (Model.written_vertices l.ledger);
  settle l.l_cluster (fun () -> !pending);
  if !pending > 0 then note_bad l (Printf.sprintf "%d final reads never answered" !pending);
  Model.verify l.ledger ~observe:(fun vid -> Option.join (Hashtbl.find_opt observed vid))

(* A window that passes this many CPU-seconds since set-up began is cut
   short and the run marked wrong, so a run stays bounded whatever a change
   does to the simulator's speed. *)
let cpu_cap = 50.0

(* The measured window in [slices] equal virtual steps, then the drain and
   the final check. *)
let measure l =
  let spec = l.l_spec and cluster = l.l_cluster in
  Gc.full_major ();
  let w0 = snap cluster in
  l.win_start <- w0.vt;
  l.win_end <- w0.vt +. window_us spec;
  Option.iter (fun t -> t.counting <- true) l.l_trace;
  let slice_cpu = Array.make spec.slices 0.0 in
  let slice_probe = Array.make spec.slices 0.0 in
  let over_cap = ref false in
  for i = 0 to spec.slices - 1 do
    if not !over_cap then begin
      let v0 = Cluster.now cluster and c0 = Sys.time () in
      Cluster.run_for cluster spec.slice_us;
      let c1 = Sys.time () in
      slice_cpu.(i) <- c1 -. c0;
      slice_probe.(i) <- Calib.probe ();
      Option.iter (fun t -> t.slice_spans <- (v0, Cluster.now cluster, c1 -. c0) :: t.slice_spans) l.l_trace;
      if c1 -. l.l_cpu0 > cpu_cap then over_cap := true
    end
  done;
  Option.iter (fun t -> t.counting <- false) l.l_trace;
  let w1 = snap cluster in
  l.stopping <- true;
  let drained =
    if !over_cap then begin
      note_bad l (Printf.sprintf "window cut after %.0f CPU-s" cpu_cap);
      false
    end
    else begin
      settle cluster (fun () -> l.outstanding);
      l.outstanding = 0
    end
  in
  let verdict =
    if drained then final_check l
    else { Model.checked = 0; missing_creates = []; lost_deletes = []; lost_props = [] }
  in
  {
    spec;
    cluster;
    setup_cpu = l.l_setup_cpu;
    setup_probe = l.l_setup_probe;
    w0;
    w1;
    slice_ops = l.l_slice_ops;
    slice_cpu;
    slice_probe;
    completed = l.completed;
    reads = Array.of_list l.l_reads;
    writes = Array.of_list l.l_writes;
    attempted = l.attempted;
    errors = l.errors;
    bad = List.rev l.bad;
    n_bad = l.n_bad;
    drained;
    verdict;
    read_counts = l.read_counts;
  }

let run ?trace spec ~seed = measure (setup ?trace spec ~seed)
