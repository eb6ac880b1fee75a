(* Tests for the wire codec, the graph record codec, and full-cluster
   backup/restore. *)

open Weaver_core
module Wire = Weaver_util.Wire
module Codec = Weaver_graph.Codec
module Mgraph = Weaver_graph.Mgraph
module Vclock = Weaver_vclock.Vclock
module Programs = Weaver_programs.Std_programs

let test_wire_roundtrip () =
  let w = Wire.Writer.create () in
  Wire.Writer.varint w 0;
  Wire.Writer.varint w 127;
  Wire.Writer.varint w 128;
  Wire.Writer.varint w 1_000_000_007;
  Wire.Writer.string w "";
  Wire.Writer.string w "hello \x00 world";
  Wire.Writer.bool w true;
  Wire.Writer.list w (Wire.Writer.varint w) [ 1; 2; 3 ];
  Wire.Writer.option w (Wire.Writer.string w) None;
  Wire.Writer.option w (Wire.Writer.string w) (Some "x");
  let r = Wire.Reader.create (Wire.Writer.contents w) in
  Alcotest.(check int) "v0" 0 (Wire.Reader.varint r);
  Alcotest.(check int) "v127" 127 (Wire.Reader.varint r);
  Alcotest.(check int) "v128" 128 (Wire.Reader.varint r);
  Alcotest.(check int) "big" 1_000_000_007 (Wire.Reader.varint r);
  Alcotest.(check string) "empty" "" (Wire.Reader.string r);
  Alcotest.(check string) "binary" "hello \x00 world" (Wire.Reader.string r);
  Alcotest.(check bool) "bool" true (Wire.Reader.bool r);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Wire.Reader.list r (fun () -> Wire.Reader.varint r));
  Alcotest.(check (option string)) "none" None (Wire.Reader.option r (fun () -> Wire.Reader.string r));
  Alcotest.(check (option string)) "some" (Some "x") (Wire.Reader.option r (fun () -> Wire.Reader.string r));
  Alcotest.(check bool) "consumed" true (Wire.Reader.at_end r)

let test_wire_corrupt () =
  Alcotest.check_raises "truncated" (Wire.Reader.Corrupt "truncated") (fun () ->
      ignore (Wire.Reader.varint (Wire.Reader.create "")));
  Alcotest.check_raises "negative refused" (Invalid_argument "Wire.varint: negative")
    (fun () -> Wire.Writer.varint (Wire.Writer.create ()) (-1))

let stamp i j = Vclock.make ~epoch:1 ~origin:0 [| i; j |]

let test_vertex_roundtrip () =
  let before a b = Vclock.precedes a b in
  let v = Mgraph.create_vertex ~vid:"complex" ~at:(stamp 1 0) in
  let v = Mgraph.add_edge v ~eid:"e1" ~dst:"a" ~at:(stamp 2 0) in
  let v = Mgraph.add_edge v ~eid:"e2" ~dst:"b" ~at:(stamp 3 1) in
  let v = Mgraph.delete_edge v ~eid:"e1" ~at:(stamp 4 2) in
  let v = Mgraph.set_vertex_prop before v ~key:"k" ~value:"v1" ~at:(stamp 5 2) in
  let v = Mgraph.set_vertex_prop before v ~key:"k" ~value:"v2" ~at:(stamp 6 2) in
  let v = Mgraph.set_edge_prop before v ~eid:"e2" ~key:"w" ~value:"3.5" ~at:(stamp 7 2) in
  let v = Mgraph.delete_vertex v ~at:(stamp 8 3) in
  let v' = Codec.decode_vertex (Codec.encode_vertex v) in
  Alcotest.(check bool) "exact roundtrip" true (v = v')

let test_decode_rejects_garbage () =
  Alcotest.(check bool) "garbage raises" true
    (try
       ignore (Codec.decode_vertex "not a vertex");
       false
     with Wire.Reader.Corrupt _ -> true)

let prop_vertex_roundtrip =
  (* random multi-version vertices survive encode/decode exactly *)
  let gen =
    QCheck.Gen.(
      let* n_edges = 0 -- 10 in
      let* n_props = 0 -- 5 in
      let* seed = int_bound 10_000 in
      return (n_edges, n_props, seed))
  in
  QCheck.Test.make ~name:"codec roundtrip on random vertices" ~count:200
    (QCheck.make gen) (fun (n_edges, n_props, seed) ->
      let rng = Weaver_util.Xrand.create ~seed () in
      let next_stamp =
        let c = ref 0 in
        fun () ->
          incr c;
          Vclock.make ~epoch:(Weaver_util.Xrand.int rng 3) ~origin:0 [| !c; Weaver_util.Xrand.int rng 50 |]
      in
      let before a b = Vclock.precedes a b in
      let v = ref (Mgraph.create_vertex ~vid:("v" ^ string_of_int seed) ~at:(next_stamp ())) in
      for i = 1 to n_edges do
        v := Mgraph.add_edge !v ~eid:("e" ^ string_of_int i) ~dst:("d" ^ string_of_int i) ~at:(next_stamp ());
        if Weaver_util.Xrand.bool rng then
          v := Mgraph.delete_edge !v ~eid:("e" ^ string_of_int i) ~at:(next_stamp ())
      done;
      for i = 1 to n_props do
        v :=
          Mgraph.set_vertex_prop before !v ~key:("k" ^ string_of_int (i mod 3))
            ~value:(string_of_int i) ~at:(next_stamp ())
      done;
      let v = !v in
      Codec.decode_vertex (Codec.encode_vertex v) = v)

let test_cluster_backup_restore () =
  (* build state on one cluster, dump, restore into a fresh one, verify
     queries and historical state match *)
  let mk () =
    let c = Cluster.create Config.default in
    Programs.Std.register_all (Cluster.registry c);
    c
  in
  let c1 = mk () in
  let client1 = Cluster.client c1 in
  let tx = Client.Tx.begin_ client1 in
  List.iter (fun v -> ignore (Client.Tx.create_vertex tx ~id:v ())) [ "x"; "y"; "z" ];
  ignore (Client.Tx.create_edge tx ~src:"x" ~dst:"y");
  ignore (Client.Tx.create_edge tx ~src:"y" ~dst:"z");
  Client.Tx.set_vertex_prop tx ~vid:"x" ~key:"name" ~value:"ex";
  (match Client.commit client1 tx with Ok () -> () | Error e -> Alcotest.failf "%s" e);
  (* a deletion too, so the restored graph has multi-version state *)
  let tx = Client.Tx.begin_ client1 in
  Client.Tx.delete_vertex tx "z";
  (match Client.commit client1 tx with Ok () -> () | Error e -> Alcotest.failf "%s" e);
  let image = Backup.dump c1 in
  Alcotest.(check bool) "nonempty image" true (String.length image > 50);
  let c2 = mk () in
  Backup.restore c2 image;
  Cluster.run_for c2 10_000.0;
  let client2 = Cluster.client c2 in
  (match
     Client.run_program client2 ~prog:"get_node" ~params:Progval.Null ~starts:[ "x" ] ()
   with
  | Ok (Progval.List [ s ]) ->
      Alcotest.(check int) "degree" 1 (Progval.to_int (Progval.assoc "degree" s));
      Alcotest.(check string) "prop" "ex"
        (Progval.to_str (Progval.assoc "name" (Progval.assoc "props" s)))
  | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "restored read: %s" e);
  (* deleted vertex stays deleted on the restored cluster *)
  (match
     Client.run_program client2 ~prog:"get_node" ~params:Progval.Null ~starts:[ "z" ] ()
   with
  | Ok (Progval.List []) -> ()
  | Ok v -> Alcotest.failf "z should be dead: %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "%s" e);
  (* and the restored cluster accepts new writes on top *)
  let tx = Client.Tx.begin_ client2 in
  ignore (Client.Tx.create_edge tx ~src:"x" ~dst:"y");
  match Client.commit client2 tx with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-restore write: %s" e

let test_restore_dimension_mismatch () =
  let c1 = Cluster.create Config.default in
  let image = Backup.dump c1 in
  let c3 =
    Cluster.create { Config.default with Config.n_gatekeepers = 3 }
  in
  Alcotest.(check bool) "mismatch refused" true
    (try
       Backup.restore c3 image;
       false
     with Invalid_argument _ -> true)

(* A restore never overwrites: into a cluster whose store already holds a
   key it raises, and the store keeps what it had. *)
let test_restore_into_data_refused () =
  let c1 = Cluster.create Config.default in
  let client1 = Cluster.client c1 in
  let tx = Client.Tx.begin_ client1 in
  ignore (Client.Tx.create_vertex tx ~id:"dumped" ());
  (match Client.commit client1 tx with Ok () -> () | Error e -> Alcotest.failf "%s" e);
  let image = Backup.dump c1 in
  let c2 = Cluster.create Config.default in
  let client2 = Cluster.client c2 in
  let tx = Client.Tx.begin_ client2 in
  ignore (Client.Tx.create_vertex tx ~id:"resident" ());
  (match Client.commit client2 tx with Ok () -> () | Error e -> Alcotest.failf "%s" e);
  let store = (Cluster.runtime c2).Runtime.store in
  let held = Weaver_store.Store.scan_prefix store ~prefix:"" in
  Alcotest.(check bool) "restore over data refused" true
    (try
       Backup.restore c2 image;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "store untouched" true
    (Weaver_store.Store.scan_prefix store ~prefix:"" = held);
  Alcotest.(check bool) "dumped vertex absent" true (Cluster.stored_vertex c2 "dumped" = None)

let suites =
  [
    ( "backup",
      [
        Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
        Alcotest.test_case "wire corrupt" `Quick test_wire_corrupt;
        Alcotest.test_case "vertex roundtrip" `Quick test_vertex_roundtrip;
        Alcotest.test_case "garbage rejected" `Quick test_decode_rejects_garbage;
        QCheck_alcotest.to_alcotest prop_vertex_roundtrip;
        Alcotest.test_case "cluster backup/restore" `Quick test_cluster_backup_restore;
        Alcotest.test_case "dimension mismatch" `Quick test_restore_dimension_mismatch;
        Alcotest.test_case "restore over data refused" `Quick test_restore_into_data_refused;
      ] );
  ]
