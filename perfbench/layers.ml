(* Metrics derived from a finished repetition: the virtual-time end-to-end
   numbers, the counter fingerprint, the per-layer numbers, and timed
   calls into layer kernels on the run's own post-run state. *)

open Weaver
module Runtime = Weaver_core.Runtime

(* Nearest-rank percentile, [p] in [0, 100]; 0 on no samples. The
   benchmark computes its own end-to-end numbers so that no library change
   can alter how they are computed. *)
let percentile (a : float array) p =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median l = percentile (Array.of_list l) 50.0

(* (q3 - q1) / median, the spread the benchmark reports beside a median *)
let iqr_frac l =
  let a = Array.of_list l in
  let m = percentile a 50.0 in
  if m = 0.0 then 0.0 else (percentile a 75.0 -. percentile a 25.0) /. m

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let window_ops (r : Drive.rep) = fi r.Drive.completed
let d (r : Drive.rep) name = fi (Drive.delta r.Drive.w0 r.Drive.w1 name)

(* ---------------------------------------------------------------- *)
(* End to end *)

let virtual_metrics (r : Drive.rep) =
  [
    ("throughput_ops_s", window_ops r /. (Drive.window_us r.Drive.spec /. 1e6));
    ("read_p50_us", percentile r.Drive.reads 50.0);
    ("read_p99_us", percentile r.Drive.reads 99.0);
    ("write_p50_us", percentile r.Drive.writes 50.0);
    ("write_p99_us", percentile r.Drive.writes 99.0);
  ]

(* CPU seconds of the window's slices, probes left out: as measured, and
   stated slice by slice on the host where [Calib.probe] takes
   [Calib.nominal_s] *)
let raw_window_cpu (r : Drive.rep) = Array.fold_left ( +. ) 0.0 r.Drive.slice_cpu

let window_cpu (r : Drive.rep) =
  let total = ref 0.0 in
  Array.iteri
    (fun i cpu -> total := !total +. Calib.scale ~cpu ~probe_s:r.Drive.slice_probe.(i))
    r.Drive.slice_cpu;
  !total

let setup_s (r : Drive.rep) = Calib.scale ~cpu:r.Drive.setup_cpu ~probe_s:r.Drive.setup_probe

let failed (r : Drive.rep) = r.Drive.errors + Model.lost_writes r.Drive.verdict

(* What must repeat exactly between two repetitions of one seed, traced or
   not: the cluster's own counters at the end of the window and the
   outcome of every request. *)
let fingerprint (r : Drive.rep) =
  List.map (fun n -> (n, Drive.int_of r.Drive.w1 n)) [ "tx.committed"; "tx.aborted"; "net.sent"; "msg.nop"; "engine.events" ]
  @ [
      ("completed", r.Drive.completed);
      ("attempted", r.Drive.attempted);
      ("errors", r.Drive.errors);
      ("lost_writes", Model.lost_writes r.Drive.verdict);
      ("bad_answers", r.Drive.n_bad);
    ]

(* ---------------------------------------------------------------- *)
(* Per layer *)

(* message kinds these workloads send; every other kind lands in "other" *)
let msg_kinds =
  [
    ("Tx_req", "tx_req");
    ("Tx_reply", "tx_reply");
    ("Prog_req", "prog_req");
    ("Prog_reply", "prog_reply");
    ("Announce", "announce");
    ("Shard_tx", "shard_tx");
    ("Shard_tx(nop)", "shard_tx_nop");
    ("Prog_batch", "prog_batch");
    ("Prog_partial", "prog_partial");
    ("Prog_gc", "prog_gc");
    ("Commit_note", "commit_note");
    ("Heartbeat", "heartbeat");
    ("Watermark", "watermark");
  ]

let reservoir cluster name p =
  match List.assoc_opt name (Metrics.reservoirs (Cluster.metrics cluster)) with
  | Some s -> Weaver.Stats.percentile s p
  | None -> 0.0

let busy (r : Drive.rep) prefix n =
  List.init n (fun i -> d r (Printf.sprintf "util.%s%d.busy_us" prefix i))

(* Version entries of one record: the vertex, its property versions, and
   every edge version with its property versions. *)
let versions (v : Mgraph.vertex) =
  1 + Array.length v.Mgraph.v_props
  + Array.fold_left (fun acc (e : Mgraph.edge) -> acc + 1 + Array.length e.Mgraph.e_props) 0 v.Mgraph.out

let resident_records cluster =
  let n = (Cluster.config cluster).Config.n_shards in
  List.concat_map
    (fun shard -> List.filter_map (Cluster.shard_vertex cluster ~shard) (Cluster.shard_resident_ids cluster shard))
    (List.init n Fun.id)

(* Counts and waits read off the cluster; [kinds] are the traced
   repetition's message counts by kind. *)
let counted (r : Drive.rep) ~kinds =
  let c = r.Drive.cluster in
  let cfg = Cluster.config c in
  let ops = window_ops r and win = Drive.window_us r.Drive.spec in
  let per_op x = ratio x ops in
  let events = d r "engine.events" in
  let gk_busy = busy r "gk" cfg.Config.n_gatekeepers in
  let shard_busy = busy r "shard" cfg.Config.n_shards in
  let mean l = ratio (List.fold_left ( +. ) 0.0 l) (fi (List.length l)) in
  let commits = d r "store.commits" and aborts = d r "store.aborts" in
  let consults = d r "oracle.consults" and hits = d r "oracle.cache_hits" in
  let kind k = fi (Option.value ~default:0 (Hashtbl.find_opt kinds k)) in
  let other =
    Hashtbl.fold (fun k n acc -> if List.mem_assoc k msg_kinds then acc else acc + n) kinds 0
  in
  let records = resident_records c in
  [
    ("engine.events_per_op", "count", per_op events);
    ("engine.pending_hwm", "count", fi (Drive.int_of r.Drive.w1 "engine.pending_hwm"));
    ("net.msgs_per_op", "count", per_op (d r "net.sent"));
  ]
  @ List.map (fun (k, n) -> ("net.msgs_per_op." ^ n, "count", per_op (kind k))) msg_kinds
  @ [
      ("net.msgs_per_op.other", "count", per_op (fi other));
      ("net.channel_hwm", "count", fi (Drive.int_of r.Drive.w1 "net.channel_hwm"));
      ("gatekeeper.admission_wait_p50_us", "us", reservoir c "gk.admission_wait" 50.0);
      ("gatekeeper.admission_wait_p99_us", "us", reservoir c "gk.admission_wait" 99.0);
      ("gatekeeper.busy_frac", "frac", ratio (mean gk_busy) win);
      ("gatekeeper.prog_service_p50_us", "us", reservoir c "gk.prog_service" 50.0);
      ("gatekeeper.announces_per_op", "count", per_op (d r "msg.announce"));
      ("store.rtt_p50_us", "us", reservoir c "gk.store_rtt" 50.0);
      ("store.rtt_p99_us", "us", reservoir c "gk.store_rtt" 99.0);
      ("store.abort_frac", "frac", ratio aborts (commits +. aborts));
      ("shard.queue_wait_p99_us", "us", reservoir c "shard.queue_wait" 99.0);
      ("shard.prog_gate_wait_p99_us", "us", reservoir c "shard.prog_gate_wait" 99.0);
      ("shard.prog_hop_wait_p99_us", "us", reservoir c "shard.prog_hop_wait" 99.0);
      ("shard.busy_skew", "ratio", ratio (List.fold_left Float.max 0.0 shard_busy) (mean shard_busy));
      ("shard.page_ins_per_op", "count", per_op (d r "paging.page_ins"));
      ("oracle.consults_per_op", "count", per_op consults);
      ("oracle.cache_hit_frac", "frac", ratio hits (hits +. consults));
      ("oracle.dag_events", "count", fi (Oracle.event_count (Cluster.runtime c).Runtime.oracle));
      ("shard.oracle_wait_p99_us", "us", reservoir c "shard.oracle_wait" 99.0);
      ("nodeprog.vertices_read_per_op", "count", per_op (d r "prog.vertices_read"));
      ( "mgraph.versions_per_vertex_p99",
        "count",
        percentile (Array.of_list (List.map (fun v -> fi (versions v)) records)) 99.0 );
      ("gc.minor_words_per_op", "count", per_op (r.Drive.w1.Drive.minor_words -. r.Drive.w0.Drive.minor_words));
      ("gc.major_collections", "count", fi (r.Drive.w1.Drive.majors - r.Drive.w0.Drive.majors));
    ]

let cpu_ns_per_event (r : Drive.rep) = ratio (window_cpu r *. 1e9) (d r "engine.events")

(* ---------------------------------------------------------------- *)
(* Layer kernels: public functions called from outside on the run's own
   records and stamps, each timed as the median of five ~20 ms batches. *)

let time_ns f inputs =
  let n = Array.length inputs in
  if n = 0 then 0.0
  else
    median
      (List.init 5 (fun _ ->
           let calls = ref 0 and t0 = Sys.time () in
           while Sys.time () -. t0 < 0.02 do
             for i = 0 to n - 1 do
               ignore (Sys.opaque_identity (f inputs.(i)))
             done;
             calls := !calls + n
           done;
           (Sys.time () -. t0) *. 1e9 /. fi !calls))

let stamps_of (v : Mgraph.vertex) =
  let life (l : Mgraph.lifespan) = l.Mgraph.created :: Option.to_list l.Mgraph.deleted in
  List.concat_map (fun (p : Mgraph.prop) -> life p.Mgraph.p_life) (Array.to_list v.Mgraph.v_props)
  @ List.concat_map (fun (e : Mgraph.edge) -> life e.Mgraph.e_life) (Array.to_list v.Mgraph.out)

let kernels (r : Drive.rep) =
  let c = r.Drive.cluster in
  let before a b = Vclock.precedes a b in
  let at = Cluster.gk_clock c 0 in
  (* the 64 most-read vertices that are resident at the end of the run *)
  let by_reads =
    List.sort
      (fun a b -> compare (r.Drive.read_counts.(b), a) (r.Drive.read_counts.(a), b))
      (List.init (Array.length r.Drive.read_counts) Fun.id)
  in
  let hot =
    List.filteri (fun i _ -> i < 64)
      (List.filter_map
         (fun v ->
           let vid = Gen.vid v in
           Cluster.shard_vertex c ~shard:(Cluster.shard_of_vertex c vid) vid)
         (List.filteri (fun i _ -> i < 512) by_reads))
    |> Array.of_list
  in
  (* stamps written during the run, in a fixed order *)
  let zero = Vclock.zero ~n:(Vclock.dim at) in
  let stamps =
    List.concat_map stamps_of (resident_records c)
    |> List.filter (fun s -> not (Vclock.equal s zero))
    |> List.sort_uniq Vclock.total_compare
  in
  let stamps = Array.of_list (List.filteri (fun i _ -> i < 256) stamps) in
  let stamps = if Array.length stamps >= 2 then stamps else [| zero; at |] in
  let pairs = Array.init (Array.length stamps - 1) (fun i -> (stamps.(i), stamps.(i + 1))) in
  let oracle = (Cluster.runtime c).Runtime.oracle in
  [
    ("mgraph.out_edges_ns", "ns", time_ns (fun v -> Mgraph.out_edges before v ~at) hot);
    ("mgraph.vertex_props_ns", "ns", time_ns (fun v -> Mgraph.vertex_props before v ~at) hot);
    ("oracle.query_ns", "ns", time_ns (fun (a, b) -> Oracle.query oracle a b) pairs);
    ("vclock.compare_hb_ns", "ns", time_ns (fun (a, b) -> Vclock.compare_hb a b) pairs);
  ]

(* ---------------------------------------------------------------- *)
(* The benchmark's own spans, joined to the program's request traces *)

let in_window (r : Drive.rep) (s : Drive.request_span) =
  s.Drive.vstop >= r.Drive.w0.Drive.vt && s.Drive.vstop < r.Drive.w1.Drive.vt

let span_metrics (r : Drive.rep) (t : Drive.tracing) =
  let tracer = Cluster.request_tracer r.Drive.cluster in
  let reqs = List.filter (in_window r) t.Drive.requests in
  let joined =
    match tracer with
    | None -> 0
    | Some tr -> List.length (List.filter (fun (s : Drive.request_span) -> Trace.spans tr s.Drive.rid <> []) reqs)
  in
  let exec =
    match tracer with
    | None -> [||]
    | Some tr ->
        List.concat_map
          (fun (s : Drive.request_span) ->
            List.filter_map
              (fun (sp : Trace.span) ->
                if sp.Trace.sp_name = "shard.prog_exec" then Some (sp.Trace.sp_stop -. sp.Trace.sp_start) else None)
              (Trace.spans tr s.Drive.rid))
          reqs
        |> Array.of_list
  in
  let phase n = Option.value ~default:0.0 (List.assoc_opt n t.Drive.phases) in
  [
    ("shard.prog_exec_p50_us", "us", percentile exec 50.0);
    ("trace.request_spans", "count", fi (List.length reqs));
    ("trace.joined_frac", "frac", ratio (fi joined) (fi (List.length reqs)));
    ("setup.gen_s", "s", phase "gen");
    ("setup.create_s", "s", phase "create");
    ("setup.install_s", "s", phase "install");
    ("setup.warmup_s", "s", phase "warmup");
  ]
