(* Tests for the extended node programs (triangle count, k-hop collection,
   degree histogram) and transactional reads with results. *)

open Weaver_core
module Programs = Weaver_programs.Std_programs

let mk_cluster () =
  let c = Cluster.create Config.default in
  Programs.Std.register_all (Cluster.registry c);
  c

let ok = function Ok v -> v | Error e -> Alcotest.failf "%s" e

let build_triangle client =
  (* t1 -> t2, t1 -> t3, t2 -> t3, t3 -> t2, plus an open wedge t1 -> t4 *)
  let tx = Client.Tx.begin_ client in
  List.iter (fun v -> ignore (Client.Tx.create_vertex tx ~id:v ())) [ "t1"; "t2"; "t3"; "t4" ];
  ignore (Client.Tx.create_edge tx ~src:"t1" ~dst:"t2");
  ignore (Client.Tx.create_edge tx ~src:"t1" ~dst:"t3");
  ignore (Client.Tx.create_edge tx ~src:"t1" ~dst:"t4");
  ignore (Client.Tx.create_edge tx ~src:"t2" ~dst:"t3");
  ignore (Client.Tx.create_edge tx ~src:"t3" ~dst:"t2");
  ok (Client.commit client tx)

let test_triangle_count () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  build_triangle client;
  let n =
    Progval.to_int
      (ok (Client.run_program client ~prog:"triangle_count" ~params:Progval.Null
             ~starts:[ "t1" ] ()))
  in
  (* closed wedges through t1: t2->t3 and t3->t2 *)
  Alcotest.(check int) "two directed triangles" 2 n;
  let n4 =
    Progval.to_int
      (ok (Client.run_program client ~prog:"triangle_count" ~params:Progval.Null
             ~starts:[ "t4" ] ()))
  in
  Alcotest.(check int) "leaf has none" 0 n4

let test_khop_collect () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  build_triangle client;
  let collect depth =
    List.sort compare
      (List.map Progval.to_str
         (Progval.to_list
            (ok
               (Client.run_program client ~prog:"khop_collect"
                  ~params:(Progval.Assoc [ ("depth", Progval.Int depth) ])
                  ~starts:[ "t1" ] ()))))
  in
  Alcotest.(check (list string)) "0 hops" [ "t1" ] (collect 0);
  Alcotest.(check (list string)) "1 hop" [ "t1"; "t2"; "t3"; "t4" ] (collect 1)

let test_degree_dist () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  build_triangle client;
  match
    ok
      (Client.run_program client ~prog:"degree_dist" ~params:Progval.Null
         ~starts:[ "t1"; "t2"; "t3"; "t4" ] ())
  with
  | Progval.Assoc hist ->
      let count d = Progval.to_int (Option.value ~default:(Progval.Int 0) (List.assoc_opt d hist)) in
      Alcotest.(check int) "one deg-3 vertex" 1 (count "3");
      Alcotest.(check int) "two deg-1 vertices" 2 (count "1");
      Alcotest.(check int) "one deg-0 vertex" 1 (count "0")
  | v -> Alcotest.failf "unexpected %s" (Progval.to_string v)

let test_tx_read_results () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  build_triangle client;
  let tx = Client.Tx.begin_ client in
  Client.Tx.read_vertex tx "t1";
  Client.Tx.read_vertex tx "ghost";
  match ok (Client.commit_with_reads client tx) with
  | [ ("t1", s1); ("ghost", s2) ] ->
      Alcotest.(check int) "t1 degree" 3 (Progval.to_int (Progval.assoc "degree" s1));
      let out =
        List.sort compare (List.map Progval.to_str (Progval.to_list (Progval.assoc "out" s1)))
      in
      Alcotest.(check (list string)) "t1 out" [ "t2"; "t3"; "t4" ] out;
      Alcotest.(check bool) "missing is Null" true (s2 = Progval.Null)
  | reads -> Alcotest.failf "unexpected reads (%d)" (List.length reads)

let test_tx_read_sees_own_writes () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  let v = Client.Tx.create_vertex tx () in
  Client.Tx.set_vertex_prop tx ~vid:v ~key:"k" ~value:"1";
  Client.Tx.read_vertex tx v;
  match ok (Client.commit_with_reads client tx) with
  | [ (_, s) ] ->
      Alcotest.(check string) "own write visible" "1"
        (Progval.to_str (Progval.assoc "k" (Progval.assoc "props" s)))
  | reads -> Alcotest.failf "unexpected reads (%d)" (List.length reads)

let test_tx_read_atomic_with_write () =
  (* reads returned by a transaction reflect the state the transaction
     validated against: a read + conditional-style write pair *)
  let c = mk_cluster () in
  let client = Cluster.client c in
  build_triangle client;
  let tx = Client.Tx.begin_ client in
  Client.Tx.read_vertex tx "t4";
  ignore (Client.Tx.create_edge tx ~src:"t4" ~dst:"t1");
  (match ok (Client.commit_with_reads client tx) with
  | [ (_, s) ] ->
      (* the summary is the pre-write state read in the same transaction *)
      Alcotest.(check int) "read state pre-write" 0
        (Progval.to_int (Progval.assoc "degree" s))
  | _ -> Alcotest.fail "one read expected");
  match
    ok (Client.run_program client ~prog:"count_edges" ~params:Progval.Null ~starts:[ "t4" ] ())
  with
  | Progval.Int n -> Alcotest.(check int) "write applied" 1 n
  | v -> Alcotest.failf "unexpected %s" (Progval.to_string v)

let test_history_program () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  (* gc off would preserve everything; default gc is slow enough for this test *)
  build_triangle client;
  let tx = Client.Tx.begin_ client in
  Client.Tx.set_vertex_prop tx ~vid:"t1" ~key:"p" ~value:"1";
  ok (Client.commit client tx);
  let tx = Client.Tx.begin_ client in
  Client.Tx.set_vertex_prop tx ~vid:"t1" ~key:"p" ~value:"2";
  ok (Client.commit client tx);
  match
    ok (Client.run_program client ~prog:"history" ~params:Progval.Null ~starts:[ "t1" ] ())
  with
  | Progval.List [ h ] ->
      Alcotest.(check bool) "alive" true (Progval.to_bool (Progval.assoc "alive" h));
      Alcotest.(check int) "prop versions" 2 (Progval.to_int (Progval.assoc "prop_versions" h));
      Alcotest.(check int) "one superseded" 1
        (Progval.to_int (Progval.assoc "dead_prop_versions" h));
      Alcotest.(check int) "edge versions" 3 (Progval.to_int (Progval.assoc "edge_versions" h))
  | v -> Alcotest.failf "unexpected %s" (Progval.to_string v)

let test_match_prop () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  List.iter
    (fun (v, kind) ->
      ignore (Client.Tx.create_vertex tx ~id:v ());
      Client.Tx.set_vertex_prop tx ~vid:v ~key:"kind" ~value:kind)
    [ ("p1", "photo"); ("p2", "photo"); ("u1", "user") ];
  ok (Client.commit client tx);
  match
    ok
      (Client.run_program client ~prog:"match_prop"
         ~params:(Progval.Assoc [ ("key", Progval.Str "kind"); ("value", Progval.Str "photo") ])
         ~starts:[ "p1"; "p2"; "u1" ] ())
  with
  | Progval.List hits ->
      Alcotest.(check (list string)) "photos found" [ "p1"; "p2" ]
        (List.sort compare (List.map Progval.to_str hits))
  | v -> Alcotest.failf "unexpected %s" (Progval.to_string v)

let test_commit_with_retry () =
  (* two conflicting writers: with retry both eventually commit *)
  let c = mk_cluster () in
  let c1 = Cluster.client c and c2 = Cluster.client c in
  let setup = Client.Tx.begin_ c1 in
  ignore (Client.Tx.create_vertex setup ~id:"rt" ());
  ok (Client.commit c1 setup);
  let mk cl =
    let tx = Client.Tx.begin_ cl in
    Client.Tx.read_vertex tx "rt";
    Client.Tx.set_vertex_prop tx ~vid:"rt" ~key:"w" ~value:"x";
    tx
  in
  let r1 = ref None and r2 = ref None in
  (* interleave by starting both, then retrying synchronously *)
  Client.commit_async c1 (mk c1) ~on_result:(fun r -> r1 := Some r);
  Client.commit_async c2 (mk c2) ~on_result:(fun r -> r2 := Some r);
  Cluster.run_for c 100_000.0;
  let redo cl r = match !r with Some (Ok ()) -> Ok () | _ -> Client.commit_with_retry cl (mk cl) in
  Alcotest.(check bool) "first committed" true (redo c1 r1 = Ok ());
  Alcotest.(check bool) "second committed" true (redo c2 r2 = Ok ())

let prop_decode_never_crashes =
  QCheck.Test.make ~name:"codec rejects random bytes gracefully" ~count:300
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun junk ->
      match Weaver_graph.Codec.decode_vertex junk with
      | _ -> true (* astronomically unlikely to parse; fine if it does *)
      | exception Weaver_util.Wire.Reader.Corrupt _ -> true
      | exception _ -> false)

(* a shrunk counterexample of the property above: a well-formed stamp
   whose origin names no clock entry *)
let test_decode_bad_origin () =
  match Weaver_graph.Codec.decode_vertex "\001\006aaaaaaaa\005aaaaa" with
  | _ -> Alcotest.fail "decoded a stamp whose origin is out of range"
  | exception Weaver_util.Wire.Reader.Corrupt _ -> ()

let suites =
  [
    ( "programs.extended",
      [
        Alcotest.test_case "triangle count" `Quick test_triangle_count;
        Alcotest.test_case "khop collect" `Quick test_khop_collect;
        Alcotest.test_case "degree dist" `Quick test_degree_dist;
      ] );
    ( "core.tx_reads",
      [
        Alcotest.test_case "read results" `Quick test_tx_read_results;
        Alcotest.test_case "read own writes" `Quick test_tx_read_sees_own_writes;
        Alcotest.test_case "read atomic with write" `Quick test_tx_read_atomic_with_write;
        Alcotest.test_case "commit with retry" `Quick test_commit_with_retry;
      ] );
    ( "programs.inspection",
      [
        Alcotest.test_case "history" `Quick test_history_program;
        Alcotest.test_case "match_prop" `Quick test_match_prop;
        QCheck_alcotest.to_alcotest prop_decode_never_crashes;
        Alcotest.test_case "codec rejects an out-of-range stamp origin" `Quick
          test_decode_bad_origin;
      ] );
  ]
