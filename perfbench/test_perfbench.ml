(* Tests of the benchmark's own reference model and determinism. *)

open Perfbench
module Cluster = Weaver.Cluster
module Client = Weaver.Client
module Progval = Weaver.Progval

let lost_delete_is_flagged () =
  let l = Model.ledger () in
  Model.ack_create l ~src:"v1" ~eid:"e1";
  Model.settle_delete l ~eid:"e1" ~ok:true;
  Model.ack_create l ~src:"v1" ~eid:"e2";
  Model.ack_create l ~src:"v2" ~eid:"e3";
  Model.settle_delete l ~eid:"e3" ~ok:false;
  (* e1 was deleted but is still served; e3's delete failed, so either
     outcome is fine *)
  let observe = function
    | "v1" -> Some { Model.eids = [ "e1"; "e2" ]; props = [] }
    | "v2" -> Some { Model.eids = [ "e3" ]; props = [] }
    | _ -> None
  in
  let v = Model.verify l ~observe in
  Alcotest.(check (list (pair string string))) "lost delete" [ ("v1", "e1") ] v.Model.lost_deletes;
  Alcotest.(check int) "no missing create" 0 (List.length v.Model.missing_creates);
  Alcotest.(check int) "lost writes" 1 (Model.lost_writes v);
  Alcotest.(check int) "checked" 2 v.Model.checked

let missing_create_and_lost_prop () =
  let l = Model.ledger () in
  Model.ack_create l ~src:"v1" ~eid:"e1";
  Model.settle_prop l ~vid:"v2" ~key:"w0" ~value:"1" ~ok:true;
  Model.settle_prop l ~vid:"v2" ~key:"w0" ~value:"2" ~ok:true;
  let observe = function
    | "v1" -> Some { Model.eids = []; props = [] }
    | "v2" -> Some { Model.eids = []; props = [ ("w0", "1") ] }
    | _ -> None
  in
  let v = Model.verify l ~observe in
  Alcotest.(check (list (pair string string))) "missing create" [ ("v1", "e1") ] v.Model.missing_creates;
  Alcotest.(check int) "lost property" 1 (List.length v.Model.lost_props);
  Alcotest.(check int) "lost writes" 2 (Model.lost_writes v)

(* nhop_count on a cluster against the BFS reference and a known answer *)
let bfs_matches_nhop_count () =
  let check name (g : Gen.graph) cases =
    let cluster = Cluster.create Weaver.Config.default in
    Weaver.Programs.Std.register_all (Cluster.registry cluster);
    Weaver.Loader.fast_install cluster (Gen.to_graphgen g);
    let client = Cluster.client cluster in
    List.iter
      (fun (depth, known) ->
        let label = Printf.sprintf "%s depth %d" name depth in
        Alcotest.(check int) (label ^ " reference") known (Model.bfs_count g ~start:0 ~depth);
        match
          Client.run_program client ~prog:"nhop_count"
            ~params:(Model.read_params (Model.Nhop depth))
            ~starts:[ Gen.vid 0 ] ()
        with
        | Ok r ->
            Alcotest.(check bool) (label ^ " answer") true
              (Model.check_read g ~untouched:true (Model.Nhop depth) ~vertex:0 r = Ok ());
            Alcotest.(check int) (label ^ " value") known (Progval.to_int r)
        | Error e -> Alcotest.fail e)
      cases
  in
  check "chain" (Gen.chain 10) [ (0, 1); (1, 2); (3, 4); (12, 10) ];
  check "star" (Gen.star 6) [ (0, 1); (1, 7); (2, 7) ]

let tiny name mix : Drive.spec =
  {
    Drive.name;
    vertices = 400;
    out_degree = 4;
    gatekeepers = 2;
    shards = 2;
    capacity = (match mix with Drive.Traversal _ -> Some 150 | Drive.Tao _ -> None);
    clients = 6;
    mix;
    warmup_us = 5_000.0;
    slices = 4;
    slice_us = 5_000.0;
  }

let tiny_specs =
  [
    tiny "tao" (Drive.Tao { read_frac = 0.7; theta = 0.9 });
    tiny "traversal" (Drive.Traversal { depths = [| 2; 3 |]; writers = 2 });
  ]

let outcome (r : Drive.rep) =
  (Layers.virtual_metrics r, Layers.fingerprint r, Model.lost_writes r.Drive.verdict, r.Drive.n_bad)

(* A fixed seed reproduces every virtual-time metric bit for bit, traced
   or not; the run answers correctly and loses no create. *)
let fixed_seed_repeats () =
  List.iter
    (fun (spec : Drive.spec) ->
      let a = Drive.run spec ~seed:7 in
      let b = Drive.run spec ~seed:7 in
      let t = Drive.run ~trace:(Drive.tracing ()) spec ~seed:7 in
      let bits (m, _, _, _) = List.map (fun (k, v) -> (k, Int64.bits_of_float v)) m in
      let rest (_, fp, lost, bad) = (fp, lost, bad) in
      Alcotest.(check bool) (spec.Drive.name ^ " window saw ops") true (a.Drive.completed > 0);
      Alcotest.(check (list (pair string int64))) (spec.Drive.name ^ " repeat") (bits (outcome a)) (bits (outcome b));
      Alcotest.(check (list (pair string int64))) (spec.Drive.name ^ " traced") (bits (outcome a)) (bits (outcome t));
      Alcotest.(check bool) (spec.Drive.name ^ " fingerprint") true (rest (outcome a) = rest (outcome t));
      Alcotest.(check int) (spec.Drive.name ^ " answers") 0 a.Drive.n_bad;
      Alcotest.(check int) (spec.Drive.name ^ " creates") 0 (List.length a.Drive.verdict.Model.missing_creates);
      let c = Drive.run spec ~seed:8 in
      Alcotest.(check bool) (spec.Drive.name ^ " other seed differs") true (outcome a <> outcome c))
    tiny_specs

let () =
  Alcotest.run "perfbench"
    [
      ( "model",
        [
          Alcotest.test_case "lost delete flagged" `Quick lost_delete_is_flagged;
          Alcotest.test_case "missing create and lost property" `Quick missing_create_and_lost_prop;
          Alcotest.test_case "BFS matches nhop_count" `Quick bfs_matches_nhop_count;
        ] );
      ("determinism", [ Alcotest.test_case "fixed seed repeats" `Quick fixed_seed_repeats ]);
    ]
