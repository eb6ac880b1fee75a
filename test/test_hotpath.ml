(* Tests for the program-visit hot path: the runtime's handle directory,
   the dense vertex table, the handles program hops carry, the specialised
   hash tables' iteration order, and the handler profiler's neutrality and
   oracle attribution. *)

open Weaver_core
module Store = Weaver_store.Store
module Tbl = Weaver_util.Tbl
module Dense = Weaver_util.Dense
module Intern = Weaver_util.Intern
module Xrand = Weaver_util.Xrand
module Partition = Weaver_partition.Partition
module Prof = Weaver_obs.Prof
module Fault = Weaver_sim.Fault
module Programs = Weaver_programs.Std_programs

let ok = function Ok v -> v | Error e -> Alcotest.failf "%s" e

let mk_cluster ?(cfg = Config.default) () =
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  c

(* the committed "dir/" bindings, as (vid, shard) sorted by vid *)
let committed_directory c =
  let rt = Cluster.runtime c in
  Store.scan_prefix rt.Runtime.store ~prefix:"dir/"
  |> List.filter_map (fun (key, value) ->
         match value with
         | Runtime.Dir s -> Some (String.sub key 4 (String.length key - 4), s)
         | _ -> None)

let check_mirror c what =
  let rt = Cluster.runtime c in
  let committed = committed_directory c in
  Alcotest.(check bool) (what ^ ": some entries") true (committed <> []);
  Alcotest.(check (list (pair string int))) what committed (Runtime.directory rt);
  List.iter
    (fun (vid, s) ->
      Alcotest.(check int) (what ^ ": shard of " ^ vid) s (Runtime.shard_of_vertex rt vid))
    committed;
  (* by handle: the committed entry, or hashed placement for every other
     vertex the cluster has numbered *)
  let n_shards = rt.Runtime.cfg.Config.n_shards in
  for h = 0 to Intern.count rt.Runtime.names - 1 do
    let vid = Runtime.vertex_name rt h in
    let expected =
      match List.assoc_opt vid committed with
      | Some s -> s
      | None -> Partition.hash_vertex ~shards:n_shards vid
    in
    Alcotest.(check int) (what ^ ": shard of handle " ^ vid) expected (Runtime.shard_of_handle rt h)
  done

let create_vertices c ids =
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  List.iter (fun id -> ignore (Client.Tx.create_vertex tx ~id ())) ids;
  ok (Client.commit client tx)

let test_mirror_tracks_commits () =
  let c = mk_cluster () in
  let n_shards = (Cluster.config c).Config.n_shards in
  create_vertices c (List.init 12 (fun i -> "m" ^ string_of_int i));
  check_mirror c "after creates";
  (* a migration rewrites one directory entry *)
  let from_shard = Cluster.shard_of_vertex c "m3" in
  let to_shard = (from_shard + 1) mod n_shards in
  ok (Client.migrate (Cluster.client c) ~vid:"m3" ~to_shard);
  Cluster.run_for c 20_000.0;
  Alcotest.(check int) "migrated" to_shard (Cluster.shard_of_vertex c "m3");
  check_mirror c "after a migration";
  (* a shard crash and in-place restart reloads from the store and leaves
     the directory alone *)
  Cluster.apply_fault c (Fault.Crash (Fault.Shard to_shard));
  Cluster.run_for c 5_000.0;
  Cluster.apply_fault c (Fault.Restart (Fault.Shard to_shard));
  Cluster.run_for c 20_000.0;
  check_mirror c "after a shard restart";
  (* a commit that fails validation changes nothing *)
  let rt = Cluster.runtime c in
  let key = Runtime.dirkey "m5" in
  let stale = Store.Tx.begin_ rt.Runtime.store in
  ignore (Store.Tx.get stale key);
  let winner = Store.Tx.begin_ rt.Runtime.store in
  Store.Tx.put winner key (Runtime.Dir 0);
  ok (Result.map_error (fun _ -> "winner conflicted") (Store.Tx.commit winner));
  Store.Tx.put stale key (Runtime.Dir 1);
  Store.Tx.put stale (Runtime.dirkey "m6") (Runtime.Dir 1);
  (match Store.Tx.commit stale with
  | Error (`Conflict _) -> ()
  | Ok () -> Alcotest.fail "a stale commit went through");
  Alcotest.(check int) "the winner's value" 0 (Runtime.shard_of_vertex rt "m5");
  check_mirror c "after a commit that failed validation"

let test_mirror_after_restore () =
  let c1 = mk_cluster () in
  create_vertices c1 [ "r0"; "r1"; "r2"; "r3" ];
  let n_shards = (Cluster.config c1).Config.n_shards in
  let to_shard = (Cluster.shard_of_vertex c1 "r1" + 1) mod n_shards in
  ok (Client.migrate (Cluster.client c1) ~vid:"r1" ~to_shard);
  Cluster.run_for c1 20_000.0;
  let image = Backup.dump c1 in
  let c2 = mk_cluster () in
  Backup.restore c2 image;
  Alcotest.(check int) "restored placement" to_shard (Cluster.shard_of_vertex c2 "r1");
  check_mirror c2 "after a restore";
  Alcotest.(check (list (pair string int)))
    "same directory as the source" (committed_directory c1) (committed_directory c2)

(* A hop is routed by the directory as it stands: after its target
   migrates, a traversal from the same (unchanged) source record sends the
   hop straight to the new owner, not through the old one. *)
let test_hop_routing_follows_migration () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let n_shards = (Cluster.config c).Config.n_shards in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"src" ());
  ignore (Client.Tx.create_vertex tx ~id:"dst" ());
  ignore (Client.Tx.create_edge tx ~src:"src" ~dst:"dst");
  ok (Client.commit client tx);
  let home = Cluster.shard_of_vertex c "src" in
  let move_dst ~avoid =
    let rec pick s = if List.mem s avoid then pick ((s + 1) mod n_shards) else s in
    let to_shard = pick (Cluster.shard_of_vertex c "dst") in
    if to_shard <> Cluster.shard_of_vertex c "dst" then begin
      ok (Client.migrate client ~vid:"dst" ~to_shard);
      Cluster.run_for c 20_000.0
    end;
    Alcotest.(check int) "dst placed" to_shard (Cluster.shard_of_vertex c "dst")
  in
  let traverse what =
    let before = (Cluster.counters c).Runtime.prog_batch_msgs in
    (match
       Client.run_program client ~prog:"nhop_count"
         ~params:(Progval.Assoc [ ("depth", Progval.Int 1) ])
         ~starts:[ "src" ] ()
     with
    | Ok (Progval.Int 2) -> ()
    | Ok v -> Alcotest.failf "%s: %s" what (Progval.to_string v)
    | Error e -> Alcotest.failf "%s: %s" what e);
    (* one batch to the source's shard, one hop to the target's *)
    Alcotest.(check int) (what ^ ": batches") 2
      ((Cluster.counters c).Runtime.prog_batch_msgs - before)
  in
  move_dst ~avoid:[ home ];
  traverse "before the move";
  move_dst ~avoid:[ home; Cluster.shard_of_vertex c "dst" ];
  traverse "after the move"

(* Every item of every program batch, from a gatekeeper or forwarded by
   a shard, names its vertex by that vertex's handle in the cluster's one
   numbering. The paged golden run forwards hops between shards, pages
   vertices in and migrates one mid-run. *)
let test_batch_handles () =
  let checked = ref 0 and forwarded = ref 0 in
  let watch c =
    let rt = Cluster.runtime c in
    let n_gk = rt.Runtime.cfg.Config.n_gatekeepers in
    let inner = Runtime.obs_net_hook rt in
    Weaver_sim.Net.set_tracer rt.Runtime.net
      (Some
         (fun ~time ~src ~dst msg ->
           Option.iter (fun f -> f ~time ~src ~dst msg) inner;
           match msg with
           | Msg.Prog_batch { items; _ } ->
               if src >= n_gk then incr forwarded;
               List.iter
                 (fun (vid, h, _) ->
                   incr checked;
                   if h <> Runtime.no_handle && Runtime.vertex_name rt h <> vid then
                     Alcotest.failf "item %s carries handle %d, which names %s" vid h
                       (Runtime.vertex_name rt h))
                 items
           | _ -> ()))
  in
  Alcotest.(check string) "the paged golden fingerprint" Test_golden.paged_expected
    (Test_golden.run_paged ~watch ());
  Alcotest.(check bool) "items checked" true (!checked > 0);
  Alcotest.(check bool) "some batches forwarded by shards" true (!forwarded > 0)

(* Program starts on vids the cluster never numbered stay unnumbered: a
   thousand reads of missing vertices leave the numbering as it was and
   all get the same reply, and a vertex created afterwards is found. *)
let test_missing_starts_unnumbered () =
  let c = mk_cluster () in
  create_vertices c [ "a"; "b" ];
  let names = (Cluster.runtime c).Runtime.names in
  let client = Cluster.client c in
  let get vid =
    Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ vid ] ()
  in
  let numbered = Intern.count names in
  let missing = get "missing0" in
  for i = 1 to 999 do
    let reply = get (Printf.sprintf "missing%d" i) in
    if reply <> missing then Alcotest.failf "missing%d got another reply" i
  done;
  Alcotest.(check int) "no vid numbered" numbered (Intern.count names);
  Alcotest.(check bool) "a present vertex answers otherwise" true (get "a" <> missing);
  create_vertices c [ "missing7" ];
  Alcotest.(check bool) "a vertex created since is found" true (get "missing7" <> missing)

(* The dense vertex table against a [Hashtbl] reference: random replace,
   update, remove and reset sequences leave the same bindings, flags and
   counts, and [fold] visits each binding once in ascending order. *)
type dop = Put of int * int * bool | Update of int * int | Del of int | Reset

let dop_gen =
  let key = QCheck.Gen.int_range 0 150 in
  QCheck.Gen.(
    frequency
      [
        (5, map3 (fun k v f -> Put (k, v, f)) key small_nat bool);
        (2, map2 (fun k v -> Update (k, v)) key small_nat);
        (3, map (fun k -> Del k) key);
        (1, return Reset);
      ])

let pp_dop = function
  | Put (k, v, f) -> Printf.sprintf "put %d %d %b" k v f
  | Update (k, v) -> Printf.sprintf "update %d %d" k v
  | Del k -> Printf.sprintf "del %d" k
  | Reset -> "reset"

let dense_matches ops =
  let d = Dense.create () and r = Hashtbl.create 16 in
  List.iter
    (function
      | Put (k, v, flag) ->
          Dense.replace d k v ~flag;
          Hashtbl.replace r k (v, flag)
      | Update (k, v) -> (
          match Hashtbl.find_opt r k with
          | Some (_, flag) ->
              Dense.update d k v;
              Hashtbl.replace r k (v, flag)
          | None -> (
              match Dense.update d k v with
              | () -> QCheck.Test.fail_reportf "update of absent %d accepted" k
              | exception Invalid_argument _ -> ()))
      | Del k ->
          Dense.remove d k;
          Hashtbl.remove r k
      | Reset ->
          Dense.reset d;
          Hashtbl.reset r)
    ops;
  let keys_ok =
    List.for_all
      (fun k ->
        let expect = Hashtbl.find_opt r k in
        Dense.find_opt d k = Option.map fst expect
        && Dense.mem d k = Option.is_some expect
        && Dense.is_flagged d k = (match expect with Some (_, f) -> f | None -> false))
      (List.init 200 Fun.id)
  in
  let folded = Dense.fold (fun k v ~flag acc -> (k, (v, flag)) :: acc) d [] in
  let reference = List.sort compare (Hashtbl.fold (fun k b acc -> (k, b) :: acc) r []) in
  keys_ok
  && Dense.length d = Hashtbl.length r
  && Dense.flagged d = Hashtbl.fold (fun _ (_, f) n -> if f then n + 1 else n) r 0
  && List.rev folded = reference

let prop_dense_model =
  QCheck.Test.make ~count:500 ~name:"Dense matches a Hashtbl reference"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_dop ops))
       QCheck.Gen.(list_size (int_range 0 300) dop_gen))
    dense_matches

(* Random insert/replace/remove sequences applied to a specialised table
   and to the polymorphic one leave the same iteration order, before and
   after an in-place filter. *)
type op = Add of int * int | Replace of int * int | Remove of int

let op_gen key =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun k v -> Replace (k, v)) key small_nat);
        (1, map2 (fun k v -> Add (k, v)) key small_nat);
        (2, map (fun k -> Remove k) key);
      ])

let int_key = QCheck.Gen.(frequency [ (6, int_range (-50) 200); (1, int) ])

let pp_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k

let same_order (type k) (module T : Hashtbl.S with type key = k) (key_of : int -> k) ops =
  let poly = Hashtbl.create 4 and spec = T.create 4 in
  List.iter
    (function
      | Add (k, v) ->
          Hashtbl.add poly (key_of k) v;
          T.add spec (key_of k) v
      | Replace (k, v) ->
          Hashtbl.replace poly (key_of k) v;
          T.replace spec (key_of k) v
      | Remove k ->
          Hashtbl.remove poly (key_of k);
          T.remove spec (key_of k))
    ops;
  let folds () =
    ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) poly [],
      T.fold (fun k v acc -> (k, v) :: acc) spec [] )
  in
  let iters () =
    let p = ref [] and q = ref [] in
    Hashtbl.iter (fun k v -> p := (k, v) :: !p) poly;
    T.iter (fun k v -> q := (k, v) :: !q) spec;
    (!p, !q)
  in
  let keep _ v = if v mod 3 = 0 then None else Some (v + 1) in
  let f1, f2 = folds () and i1, i2 = iters () in
  Hashtbl.filter_map_inplace keep poly;
  T.filter_map_inplace keep spec;
  let g1, g2 = folds () in
  f1 = f2 && i1 = i2 && g1 = g2

let ops_arb key =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 0 300) (op_gen key))

let prop_int_table_order =
  QCheck.Test.make ~count:500 ~name:"Tbl.Int iterates like Hashtbl" (ops_arb int_key)
    (same_order (module Tbl.Int) Fun.id)

let prop_str_table_order =
  QCheck.Test.make ~count:300 ~name:"Tbl.Str iterates like Hashtbl"
    (ops_arb (QCheck.Gen.int_range 0 150))
    (same_order (module Tbl.Str) (fun k -> "v" ^ string_of_int k))

(* a counting clock keeps the profiler's own readings deterministic *)
let counting_clock =
  let ticks = ref 0 in
  fun () ->
    incr ticks;
    !ticks

let oracle_calls rows kind =
  List.fold_left
    (fun n (r : Prof.row) ->
      if r.Prof.actor = "oracle" && r.Prof.kind = kind then n + r.Prof.calls else n)
    0 rows

let test_profiler_keeps_fingerprint () =
  let prof = Prof.create ~clock:counting_clock in
  Alcotest.(check string)
    "golden fingerprint with the profiler attached" Test_golden.expected
    (Test_golden.run ~prof ());
  let rows = Prof.rows prof in
  let calls kind =
    List.fold_left (fun n (r : Prof.row) -> if r.Prof.kind = kind then n + r.Prof.calls else n) 0 rows
  in
  Alcotest.(check bool) "program batches measured" true (calls "Prog_batch" > 0);
  Alcotest.(check bool) "NOPs measured" true (calls "Shard_tx(nop)" > 0);
  Alcotest.(check bool) "time charged" true (Prof.total_ns prof > 0);
  Alcotest.(check bool) "shards and gatekeepers seen" true
    (List.exists (fun (r : Prof.row) -> r.Prof.actor = "shard") rows
    && List.exists (fun (r : Prof.row) -> r.Prof.actor = "gatekeeper") rows);
  (* the golden run's 17 consults order pairs at the oracle *)
  Alcotest.(check bool) "oracle orders measured" true (oracle_calls rows "order" > 0)

(* The contended-write mix: 3 gatekeepers, 4 shards and 32 clients on a
   Zipf-skewed 300-vertex graph, each reading (a quarter of requests write
   or delete an edge) for 60 ms, then draining. [prof], when given, is
   attached before any message flows. *)
let contended ?prof () =
  let vertices = 300 in
  let cfg = { Config.default with Config.seed = 5; n_gatekeepers = 3; n_shards = 4 } in
  let c = Cluster.create cfg in
  (Cluster.runtime c).Runtime.profiler <- prof;
  Programs.Std.register_all (Cluster.registry c);
  let vid i = Printf.sprintf "z%d" i in
  let setup = Cluster.client c in
  let commit tx = match Client.commit setup tx with Ok () -> () | Error e -> Alcotest.failf "setup: %s" e in
  let tx = Client.Tx.begin_ setup in
  for i = 0 to vertices - 1 do
    ignore (Client.Tx.create_vertex tx ~id:(vid i) ())
  done;
  commit tx;
  let tx = Client.Tx.begin_ setup in
  for i = 0 to vertices - 1 do
    ignore (Client.Tx.create_edge tx ~src:(vid i) ~dst:(vid ((i * 7 + 1) mod vertices)))
  done;
  commit tx;
  let rng = Xrand.create ~seed:3 () in
  let stop = ref false and outstanding = ref 0 and failed = ref 0 in
  for _ = 1 to 32 do
    let client = Cluster.client c in
    let r = Xrand.split rng in
    let mine = ref [] in
    let rec next () =
      if not !stop then begin
        incr outstanding;
        let finish ok =
          decr outstanding;
          if not ok then incr failed;
          next ()
        in
        let v = vid (Xrand.zipf r ~n:vertices ~theta:0.9) in
        if Xrand.int r 100 >= 25 then
          Client.run_program_async client
            ~prog:(match Xrand.int r 3 with 0 -> "get_edges" | 1 -> "count_edges" | _ -> "get_node")
            ~params:Progval.Null ~starts:[ v ] ~consistency:`Strong
            ~on_result:(fun res -> finish (Result.is_ok res))
            ()
        else
          match !mine with
          | (src, eid) :: rest when Xrand.bool r ->
              mine := rest;
              let tx = Client.Tx.begin_ client in
              Client.Tx.delete_edge tx ~src ~eid;
              Client.commit_async client tx ~on_result:(fun _ -> finish true)
          | _ ->
              let tx = Client.Tx.begin_ client in
              let eid = Client.Tx.create_edge tx ~src:v ~dst:(vid (Xrand.int r vertices)) in
              Client.commit_async client tx ~on_result:(fun res ->
                  if res = Ok () then mine := (v, eid) :: !mine;
                  finish true)
      end
    in
    next ()
  done;
  Cluster.run_for c 60_000.0;
  stop := true;
  let budget = ref 200 in
  while !outstanding > 0 && !budget > 0 do
    decr budget;
    Cluster.run_for c 1_000.0
  done;
  Alcotest.(check int) "every request answered" 0 !outstanding;
  Alcotest.(check int) "every read answered" 0 !failed;
  c

(* The contended-write mix orders hundreds of pairs at the oracle; every
   call is measured, and the run is the same as an unmeasured one. *)
let test_profiler_oracle_rows () =
  let fingerprint c =
    String.concat " "
      (List.map
         (fun (k, v) -> Printf.sprintf "%s=%d" k v)
         (Weaver_obs.Metrics.int_values (Cluster.metrics c)))
    ^ Printf.sprintf " now=%.3f" (Cluster.now c)
  in
  let plain = contended () in
  let prof = Prof.create ~clock:counting_clock in
  Alcotest.(check string) "same run with the profiler attached" (fingerprint plain)
    (fingerprint (contended ~prof ()));
  Alcotest.(check int) "every consult an oracle order"
    (Cluster.counters plain).Runtime.oracle_consults
    (oracle_calls (Prof.rows prof) "order")

(* a nested measurement is charged to its own row only *)
let test_profiler_nesting () =
  let ticks = ref 0 in
  let prof =
    Prof.create ~clock:(fun () ->
        incr ticks;
        !ticks)
  in
  let v =
    Prof.measure prof ~actor:"shard" ~kind:"Shard_tx" (fun () ->
        ignore (Prof.measure prof ~actor:"oracle" ~kind:"query" (fun () -> ()));
        Prof.measure prof ~actor:"oracle" ~kind:"order" (fun () -> 7))
  in
  Alcotest.(check int) "result passed through" 7 v;
  let ns actor kind =
    List.fold_left
      (fun n (r : Prof.row) -> if r.Prof.actor = actor && r.Prof.kind = kind then n + r.Prof.ns else n)
      0 (Prof.rows prof)
  in
  (* ticks: outer 1, query 2-3, order 4-5, outer 6 *)
  Alcotest.(check int) "query" 1 (ns "oracle" "query");
  Alcotest.(check int) "order" 1 (ns "oracle" "order");
  Alcotest.(check int) "handler less its oracle calls" 3 (ns "shard" "Shard_tx");
  Alcotest.(check int) "no time counted twice" 5 (Prof.total_ns prof)

let suites =
  [
    ( "hotpath",
      [
        Alcotest.test_case "directory mirror tracks every commit" `Quick
          test_mirror_tracks_commits;
        Alcotest.test_case "directory mirror after a restore" `Quick test_mirror_after_restore;
        Alcotest.test_case "hop routing follows a migration" `Quick
          test_hop_routing_follows_migration;
        Alcotest.test_case "batch items carry their cluster handles" `Quick test_batch_handles;
        Alcotest.test_case "missing program starts stay unnumbered" `Quick
          test_missing_starts_unnumbered;
        QCheck_alcotest.to_alcotest prop_dense_model;
        QCheck_alcotest.to_alcotest prop_int_table_order;
        QCheck_alcotest.to_alcotest prop_str_table_order;
        Alcotest.test_case "profiler keeps the golden fingerprint" `Quick
          test_profiler_keeps_fingerprint;
        Alcotest.test_case "profiler measures the oracle, run unchanged" `Quick
          test_profiler_oracle_rows;
        Alcotest.test_case "nested measurements are charged once" `Quick test_profiler_nesting;
      ] );
  ]
