(* The repository benchmark.

     run.exe --workload <tao_read|contended_write|traversal_paged|all>
             --seed <n> --seconds <s> --trace <0|1>

   --trace 0 repeats the workload whole (set-up, measured window, drain,
   final check) until [--seconds] of wall time are used, at least three
   times, and prints the end-to-end metrics. Virtual-time metrics come from
   the first repetition and must repeat bit for bit in every other one.
   The first repetition warms the process up; [sim_ops_per_cpu_s] is the
   ops completed in the windows of every later repetition over the CPU
   seconds spent simulating them. [setup_s] is the
   median over two set-ups alone and every repetition's set-up. Both state
   CPU time on a nominal host, scaled by the reference probe timed right
   after the slice or set-up (see calib.ml).

   --trace 1 warms up with one repetition, then runs the workload once
   untraced and once traced (the program's request tracing on, plus the
   benchmark's own spans and a message counter chained in front of the
   program's network hook),
   asserts that both produce the same virtual-time metrics and counter
   fingerprint, and prints the per-layer metrics with the tracing
   overhead.

   Human-readable lines come first; the last line of standard output is
   one JSON object: {"correct", "attempted", "failed", "metrics"}. *)

open Perfbench

let line fmt = Printf.printf (fmt ^^ "\n%!")
let fi = float_of_int

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  line "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted failed
    (String.concat ", " m)

(* Everything a repetition leaves once its cluster is dropped. *)
type summary = {
  virt : (string * float) list;
  fp : (string * int) list;
  setup : float * float;  (** scaled and as measured *)
  ops : float;  (** completed in the window *)
  window_cpu : float;
  raw_window_cpu : float;
  probes : float list;
  drained : bool;
  attempted : int;
  failed : int;
  problems : string list;  (** reasons the run is not correct *)
}

let describe_verdict (r : Drive.rep) =
  let v = r.Drive.verdict in
  line "  final check: %d acknowledged writes checked, %d lost (%d creates missing, %d deletes not applied, %d property values lost)"
    v.Model.checked (Model.lost_writes v) (List.length v.Model.missing_creates)
    (List.length v.Model.lost_deletes) (List.length v.Model.lost_props);
  List.iter (fun (src, eid) -> line "  LOST create: edge %s of vertex %s is missing" eid src) v.Model.missing_creates;
  List.iter (fun (src, eid) -> line "  LOST delete: edge %s of vertex %s is still served" eid src) v.Model.lost_deletes;
  List.iter (fun (vid, k, value) -> line "  LOST property: vertex %s key %s should be %s" vid k value) v.Model.lost_props;
  List.iter (fun b -> line "  WRONG: %s" b) r.Drive.bad

let summarize (r : Drive.rep) =
  let v = r.Drive.verdict in
  let problems =
    (if r.Drive.n_bad > 0 then [ Printf.sprintf "%d wrong or malformed answers" r.Drive.n_bad ] else [])
    @ (if v.Model.missing_creates <> [] then
         [ Printf.sprintf "%d acknowledged creates missing" (List.length v.Model.missing_creates) ]
       else [])
    @ if r.Drive.drained then [] else [ "requests still outstanding after the drain" ]
  in
  {
    virt = Layers.virtual_metrics r;
    fp = Layers.fingerprint r;
    setup = (Layers.setup_s r, r.Drive.setup_cpu);
    ops = Layers.window_ops r;
    window_cpu = Layers.window_cpu r;
    raw_window_cpu = Layers.raw_window_cpu r;
    probes = Array.to_list r.Drive.slice_probe;
    drained = r.Drive.drained;
    attempted = r.Drive.attempted;
    failed = Layers.failed r;
    problems;
  }

let same_run a b = a.virt = b.virt && a.fp = b.fp

let show_virtual s =
  List.iter (fun (k, v) -> line "  %-18s %.3f" k v) s.virt;
  line "  fingerprint        %s" (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.fp))

let untraced (spec : Drive.spec) ~seed ~seconds =
  let t0 = Unix.gettimeofday () in
  (* set-up alone, twice, so [setup_s] is a median of at least five. Every
     set-up starts from a compacted heap, so the heap's high-water mark
     does not depend on how many repetitions fit in the time. *)
  let setups =
    List.init 2 (fun _ ->
        Gc.compact ();
        let l = Drive.setup spec ~seed in
        (Calib.scale ~cpu:l.Drive.l_setup_cpu ~probe_s:l.Drive.l_setup_probe, l.Drive.l_setup_cpu))
  in
  let t_full = Unix.gettimeofday () in
  let reps = ref [] in
  (* at least three whole repetitions, unless the first was cut short *)
  let continue_ () =
    let n = List.length !reps in
    let now = Unix.gettimeofday () in
    n = 0 || ((List.hd !reps).drained && (n < 3 || now -. t0 +. ((now -. t_full) /. fi n) <= seconds))
  in
  while continue_ () do
    Gc.compact ();
    let r = Drive.run spec ~seed in
    if !reps = [] then describe_verdict r;
    reps := summarize r :: !reps
  done;
  let reps = List.rev !reps in
  let first = List.hd reps in
  let repeatable = List.for_all (same_run first) reps in
  if not repeatable then line "  NOT DETERMINISTIC: repetitions of seed %d disagree" seed;
  (* The first window grows the heap to its peak and runs its first slices
     about 30% slower than the same slices later, so it only warms up. *)
  let timed = match reps with _ :: (_ :: _ as rest) -> rest | _ -> reps in
  let total f = List.fold_left (fun acc s -> acc +. f s) 0.0 timed in
  let rate = Layers.ratio (total (fun s -> s.ops)) (total (fun s -> s.window_cpu)) in
  let raw_rate = Layers.ratio (total (fun s -> s.ops)) (total (fun s -> s.raw_window_cpu)) in
  let probes = List.concat_map (fun s -> s.probes) timed in
  let setups = setups @ List.map (fun s -> s.setup) reps in
  let setup_s = Layers.median (List.map fst setups) in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let heap_mb = fi (top_heap * (Sys.word_size / 8)) /. 1048576.0 in
  let lost = first.failed - List.assoc "errors" first.fp in
  line "  %d repetitions; window %.0f ms virtual in %d slices" (List.length reps)
    (Drive.window_us spec /. 1000.0) spec.Drive.slices;
  show_virtual first;
  line "  sim_ops_per_cpu_s  %.1f over %d repetitions, each %s (as measured %.1f)" rate (List.length timed)
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.1f" (Layers.ratio s.ops s.window_cpu)) timed))
    raw_rate;
  line "  reference probe    median %.2f ms (nominal %.2f ms), IQR/median %.3f" (1e3 *. Layers.median probes)
    (1e3 *. Calib.nominal_s) (Layers.iqr_frac probes);
  line "  setup_s            median %.3f of %s (as measured %s)" setup_s
    (String.concat " " (List.map (fun (s, _) -> Printf.sprintf "%.3f" s) setups))
    (String.concat " " (List.map (fun (_, c) -> Printf.sprintf "%.3f" c) setups));
  line "  failed_frac        %.6f (%d errors + %d lost writes of %d attempted)"
    (Layers.ratio (fi first.failed) (fi first.attempted))
    (List.assoc "errors" first.fp) lost first.attempted;
  line "  lost_writes        %d" lost;
  let problems = first.problems @ if repeatable then [] else [ "repetitions disagree" ] in
  List.iter (fun p -> line "  INCORRECT: %s" p) problems;
  let units = [ ("throughput_ops_s", "ops/s") ] in
  let metrics =
    List.map (fun (k, v) -> (k, Option.value ~default:"us" (List.assoc_opt k units), v)) first.virt
    @ [
        ("sim_ops_per_cpu_s", "ops/s", rate);
        ("setup_s", "s", setup_s);
        ("peak_heap_mb", "MB", heap_mb);
      ]
  in
  (problems = [], first.attempted, first.failed, metrics)

let traced (spec : Drive.spec) ~seed =
  (* a first window runs slower (see [untraced]), so one repetition warms
     up and the two timed ones compare like with like *)
  Gc.compact ();
  ignore (Drive.run spec ~seed);
  Gc.compact ();
  let u = Drive.run spec ~seed in
  let su = summarize u in
  let u_layers = Layers.counted u ~kinds:(Hashtbl.create 1) in
  let ns_per_event = Layers.cpu_ns_per_event u in
  Gc.compact ();
  let tr = Drive.tracing () in
  let t = Drive.run ~trace:tr spec ~seed in
  let st = summarize t in
  describe_verdict t;
  let identical = same_run su st in
  line "  untraced:";
  show_virtual su;
  line "  traced:";
  show_virtual st;
  line "  identity check: %s" (if identical then "virtual metrics and fingerprint identical" else "MISMATCH");
  (* one request tree, showing the benchmark's span joined to the program's *)
  let slowest =
    List.fold_left
      (fun acc (s : Drive.request_span) ->
        match acc with
        | Some (b : Drive.request_span) when b.Drive.vstop -. b.Drive.vstart >= s.Drive.vstop -. s.Drive.vstart -> acc
        | _ -> if Layers.in_window t s then Some s else acc)
      None tr.Drive.requests
  in
  (match (slowest, Weaver.Cluster.request_tracer t.Drive.cluster) with
  | Some s, Some tracer ->
      line "  slowest request in the window: %s rid=%d %.0f us" s.Drive.op s.Drive.rid (s.Drive.vstop -. s.Drive.vstart);
      String.split_on_char '\n' (Weaver.Trace.render tracer s.Drive.rid)
      |> List.iter (fun l -> if l <> "" then line "    %s" l)
  | _ -> ());
  let slice_cpu = List.map (fun (_, _, cpu) -> cpu) tr.Drive.slice_spans in
  line "  spans: %d set-up phases, %d run_for slices (CPU s p50 %.3f, max %.3f), %d requests"
    (List.length tr.Drive.phases) (List.length slice_cpu) (Layers.median slice_cpu)
    (List.fold_left Float.max 0.0 slice_cpu) (List.length tr.Drive.requests);
  let overhead = Layers.ratio st.window_cpu su.window_cpu -. 1.0 in
  let t_layers = Layers.counted t ~kinds:tr.Drive.kinds in
  (* allocation counts come from the untraced run; everything else repeats *)
  let layers =
    List.map
      (fun ((name, _, _) as m) ->
        if String.starts_with ~prefix:"gc." name then
          List.find (fun (n, _, _) -> n = name) u_layers
        else m)
      t_layers
    @ [ ("engine.cpu_ns_per_event", "ns", ns_per_event) ]
    @ Layers.span_metrics t tr @ Layers.kernels t
    @ [ ("trace.overhead_frac", "frac", overhead) ]
  in
  List.iter (fun (n, u, v) -> line "  %-36s %14.3f %s" n v u) layers;
  let problems = su.problems @ st.problems @ if identical then [] else [ "tracing changed the simulation" ] in
  List.iter (fun p -> line "  INCORRECT: %s" p) problems;
  (problems = [], st.attempted, st.failed, layers)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " tao_read | contended_write | traversal_paged | all");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " wall-clock seconds to spend measuring");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics from a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "run.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  let specs =
    if !workload = "all" then Workloads.all
    else
      match Workloads.find !workload with
      | Some s -> [ s ]
      | None ->
          prerr_endline ("unknown workload: " ^ !workload);
          exit 2
  in
  Calib.init ();
  List.iter
    (fun (spec : Drive.spec) ->
      line "workload %s seed %d trace %d" spec.Drive.name !seed !trace;
      let correct, attempted, failed, metrics =
        if !trace = 1 then traced spec ~seed:!seed
        else untraced spec ~seed:!seed ~seconds:!seconds
      in
      line "  verdict: %s" (if correct then "correct" else "INCORRECT");
      print_result ~correct ~attempted ~failed metrics)
    specs
