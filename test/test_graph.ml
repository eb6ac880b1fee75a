(* Tests for the multi-version property graph: snapshot visibility,
   property versioning, deletion marking, and GC compaction. *)

open Weaver_graph
module Vclock = Weaver_vclock.Vclock

(* timestamps along a single gatekeeper's timeline: t 1, t 2, ... *)
let t i =
  let clocks = [| i; 0 |] in
  Vclock.make ~epoch:0 ~origin:0 clocks

let before a b = Vclock.precedes a b

let test_create_and_visibility () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 5) in
  Alcotest.(check bool) "invisible before creation" false
    (Mgraph.vertex_alive before v ~at:(t 4));
  Alcotest.(check bool) "visible at creation" true
    (Mgraph.vertex_alive before v ~at:(t 5));
  Alcotest.(check bool) "visible after" true (Mgraph.vertex_alive before v ~at:(t 9))

let test_delete_vertex_versions () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.delete_vertex v ~at:(t 5) in
  Alcotest.(check bool) "alive before delete" true (Mgraph.vertex_alive before v ~at:(t 4));
  Alcotest.(check bool) "dead at delete" false (Mgraph.vertex_alive before v ~at:(t 5));
  Alcotest.(check bool) "dead after" false (Mgraph.vertex_alive before v ~at:(t 8))

let test_edges_snapshot () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e1" ~dst:"b" ~at:(t 2) in
  let v = Mgraph.add_edge v ~eid:"e2" ~dst:"c" ~at:(t 4) in
  let v = Mgraph.delete_edge v ~eid:"e1" ~at:(t 6) in
  let dsts at =
    List.map (fun e -> e.Mgraph.dst) (Mgraph.out_edges before v ~at)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "t1: none" [] (dsts (t 1));
  Alcotest.(check (list string)) "t3: e1" [ "b" ] (dsts (t 3));
  Alcotest.(check (list string)) "t5: both" [ "b"; "c" ] (dsts (t 5));
  Alcotest.(check (list string)) "t7: e2 only" [ "c" ] (dsts (t 7));
  Alcotest.(check int) "degree at t5" 2 (Mgraph.degree before v ~at:(t 5))

let test_historical_read_after_delete () =
  (* the multi-version graph answers queries at old timestamps even after
     deletions — the basis of Weaver's historical queries *)
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e" ~dst:"b" ~at:(t 2) in
  let v = Mgraph.delete_edge v ~eid:"e" ~at:(t 3) in
  let v = Mgraph.delete_vertex v ~at:(t 4) in
  Alcotest.(check int) "past edge visible" 1
    (List.length (Mgraph.out_edges before v ~at:(t 2)));
  Alcotest.(check bool) "past vertex visible" true
    (Mgraph.vertex_alive before v ~at:(t 2))

let test_vertex_prop_versioning () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.set_vertex_prop before v ~key:"color" ~value:"red" ~at:(t 2) in
  let v = Mgraph.set_vertex_prop before v ~key:"color" ~value:"blue" ~at:(t 5) in
  Alcotest.(check (list (pair string string)))
    "old version" [ ("color", "red") ]
    (Mgraph.vertex_props before v ~at:(t 3));
  Alcotest.(check (list (pair string string)))
    "new version" [ ("color", "blue") ]
    (Mgraph.vertex_props before v ~at:(t 6));
  let v = Mgraph.del_vertex_prop before v ~key:"color" ~at:(t 7) in
  Alcotest.(check (list (pair string string)))
    "deleted" [] (Mgraph.vertex_props before v ~at:(t 8))

let test_multiple_props () =
  (* paper §2.1: an edge may carry weight=3.0 and color=red simultaneously *)
  let v = Mgraph.create_vertex ~vid:"u" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e" ~dst:"w" ~at:(t 1) in
  let v = Mgraph.set_edge_prop before v ~eid:"e" ~key:"weight" ~value:"3.0" ~at:(t 2) in
  let v = Mgraph.set_edge_prop before v ~eid:"e" ~key:"color" ~value:"red" ~at:(t 2) in
  let e = List.hd (Mgraph.out_edges before v ~at:(t 3)) in
  let props = List.sort compare (Mgraph.edge_props before e ~at:(t 3)) in
  Alcotest.(check (list (pair string string)))
    "both props" [ ("color", "red"); ("weight", "3.0") ] props

let test_edge_has_prop () =
  let v = Mgraph.create_vertex ~vid:"u" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e" ~dst:"w" ~at:(t 1) in
  let v = Mgraph.set_edge_prop before v ~eid:"e" ~key:"VISIBLE" ~value:"" ~at:(t 2) in
  let e at = List.hd (Mgraph.out_edges before v ~at) in
  Alcotest.(check bool) "has prop" true
    (Mgraph.edge_has_prop before (e (t 3)) ~key:"VISIBLE" ~at:(t 3) ());
  Alcotest.(check bool) "not yet at t1" false
    (Mgraph.edge_has_prop before (e (t 1)) ~key:"VISIBLE" ~at:(t 1) ());
  Alcotest.(check bool) "value mismatch" false
    (Mgraph.edge_has_prop before (e (t 3)) ~key:"VISIBLE" ~value:"x" ~at:(t 3) ())

let test_deleted_edge_prop_untouched () =
  (* setting a property on a deleted edge's id must not resurrect it *)
  let v = Mgraph.create_vertex ~vid:"u" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e" ~dst:"w" ~at:(t 1) in
  let v = Mgraph.delete_edge v ~eid:"e" ~at:(t 2) in
  let v = Mgraph.set_edge_prop before v ~eid:"e" ~key:"k" ~value:"v" ~at:(t 3) in
  Alcotest.(check int) "edge still dead" 0
    (List.length (Mgraph.out_edges before v ~at:(t 4)))

let test_compact_drops_dead () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e1" ~dst:"b" ~at:(t 2) in
  let v = Mgraph.delete_edge v ~eid:"e1" ~at:(t 3) in
  let v = Mgraph.add_edge v ~eid:"e2" ~dst:"c" ~at:(t 4) in
  let v = Mgraph.set_vertex_prop before v ~key:"p" ~value:"1" ~at:(t 2) in
  let v = Mgraph.set_vertex_prop before v ~key:"p" ~value:"2" ~at:(t 5) in
  (* watermark t6: e1 (deleted t3) and p=1 (closed t5) are unreachable *)
  match Mgraph.compact before v ~watermark:(t 6) with
  | None -> Alcotest.fail "vertex should survive"
  | Some v' ->
      Alcotest.(check int) "one edge version left" 1 (Array.length v'.Mgraph.out);
      Alcotest.(check int) "one prop version left" 1 (Array.length v'.Mgraph.v_props);
      Alcotest.(check (list (pair string string)))
        "current prop intact" [ ("p", "2") ]
        (Mgraph.vertex_props before v' ~at:(t 7))

let test_compact_removes_dead_vertex () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.delete_vertex v ~at:(t 2) in
  Alcotest.(check bool) "gone below watermark" true
    (Mgraph.compact before v ~watermark:(t 5) = None);
  (* watermark at the deletion stamp: not strictly before, so kept *)
  Alcotest.(check bool) "kept at watermark" true
    (Mgraph.compact before v ~watermark:(t 2) <> None)

let test_compact_preserves_live () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e" ~dst:"b" ~at:(t 2) in
  match Mgraph.compact before v ~watermark:(t 100) with
  | None -> Alcotest.fail "live vertex dropped"
  | Some v' -> Alcotest.(check int) "live edge kept" 1 (Array.length v'.Mgraph.out)

let test_compact_identity_when_nothing_below () =
  (* no closed lifespan at all: the argument itself at any watermark *)
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e" ~dst:"b" ~at:(t 2) in
  let v = Mgraph.set_vertex_prop before v ~key:"p" ~value:"1" ~at:(t 3) in
  Alcotest.(check bool) "no closed lifespan" false (Mgraph.has_closed v);
  (match Mgraph.compact before v ~watermark:(t 100) with
  | Some v' -> Alcotest.(check bool) "open record returned as is" true (v' == v)
  | None -> Alcotest.fail "live vertex dropped");
  (* closed lifespans that end at or after the watermark: still nothing
     below it, so still the argument itself *)
  let v = Mgraph.delete_edge v ~eid:"e" ~at:(t 5) in
  let v = Mgraph.set_vertex_prop before v ~key:"p" ~value:"2" ~at:(t 6) in
  let v = Mgraph.delete_vertex v ~at:(t 8) in
  Alcotest.(check bool) "closed lifespans" true (Mgraph.has_closed v);
  List.iter
    (fun w ->
      match Mgraph.compact before v ~watermark:(t w) with
      | Some v' ->
          Alcotest.(check bool) (Printf.sprintf "identity at t%d" w) true (v' == v)
      | None -> Alcotest.failf "vertex dropped at t%d" w)
    [ 1; 4; 5 ]

let test_compact_shares_untouched_edges () =
  (* only the edge that loses a property version is rebuilt *)
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e1" ~dst:"b" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e2" ~dst:"c" ~at:(t 1) in
  let v = Mgraph.set_edge_prop before v ~eid:"e1" ~key:"w" ~value:"1" ~at:(t 2) in
  let v = Mgraph.set_edge_prop before v ~eid:"e1" ~key:"w" ~value:"2" ~at:(t 3) in
  let find v eid = Array.to_list v.Mgraph.out |> List.find (fun e -> e.Mgraph.eid = eid) in
  match Mgraph.compact before v ~watermark:(t 4) with
  | None -> Alcotest.fail "vertex dropped"
  | Some v' ->
      Alcotest.(check bool) "vertex rebuilt" false (v' == v);
      Alcotest.(check int) "e1 keeps one prop version" 1
        (Array.length (find v' "e1").Mgraph.e_props);
      Alcotest.(check bool) "e2 shared" true (find v' "e2" == find v "e2");
      Alcotest.(check bool) "vertex props shared" true (v'.Mgraph.v_props == v.Mgraph.v_props)

(* The compaction every vertex went through before [compact] learnt to
   share: filter every version array, rebuild every edge. The shared
   version must agree with it structurally. *)
let reference_compact before (v : Mgraph.vertex) ~watermark =
  let dead (life : Mgraph.lifespan) =
    match life.deleted with Some d -> before d watermark | None -> false
  in
  let filter keep a = Array.of_list (List.filter keep (Array.to_list a)) in
  if dead v.v_life then None
  else
    let keep_prop (p : Mgraph.prop) = not (dead p.p_life) in
    let out =
      filter (fun (e : Mgraph.edge) -> not (dead e.e_life)) v.out
      |> Array.map (fun (e : Mgraph.edge) -> { e with e_props = filter keep_prop e.e_props })
    in
    Some { v with v_props = filter keep_prop v.v_props; out }

type gop =
  | Add_edge of int
  | Del_edge of int
  | Set_vprop of int * int
  | Del_vprop of int
  | Set_eprop of int * int * int
  | Del_eprop of int * int
  | Del_vertex

let gen_gop =
  QCheck.Gen.(
    let small = int_range 0 2 in
    frequency
      [
        (3, map (fun e -> Add_edge e) small);
        (2, map (fun e -> Del_edge e) small);
        (3, map2 (fun k x -> Set_vprop (k, x)) small small);
        (1, map (fun k -> Del_vprop k) small);
        (3, map3 (fun e k x -> Set_eprop (e, k, x)) small small small);
        (1, map2 (fun e k -> Del_eprop (e, k)) small small);
        (1, return Del_vertex);
      ])

(* one op per stamp t2, t3, ...; edge ids repeat, so a re-added edge sits
   beside its deleted earlier version *)
let apply_gops ops =
  let s = string_of_int in
  snd
    (List.fold_left
       (fun (i, v) op ->
         let at = t i in
         let v =
           match op with
           | Add_edge e -> Mgraph.add_edge v ~eid:("e" ^ s e) ~dst:"z" ~at
           | Del_edge e -> Mgraph.delete_edge v ~eid:("e" ^ s e) ~at
           | Set_vprop (k, x) -> Mgraph.set_vertex_prop before v ~key:(s k) ~value:(s x) ~at
           | Del_vprop k -> Mgraph.del_vertex_prop before v ~key:(s k) ~at
           | Set_eprop (e, k, x) ->
               Mgraph.set_edge_prop before v ~eid:("e" ^ s e) ~key:(s k) ~value:(s x) ~at
           | Del_eprop (e, k) -> Mgraph.del_edge_prop before v ~eid:("e" ^ s e) ~key:(s k) ~at
           | Del_vertex -> Mgraph.delete_vertex v ~at
         in
         (i + 1, v))
       (2, Mgraph.create_vertex ~vid:"a" ~at:(t 1))
       ops)

let prop_compact_matches_reference =
  QCheck.Test.make ~name:"compact = full rebuild; identity without closed versions"
    ~count:500
    QCheck.(
      pair (make (Gen.list_size (Gen.int_range 0 25) gen_gop)) (int_range 1 30))
    (fun (ops, w) ->
      let v = apply_gops ops in
      let watermark = t w in
      let got = Mgraph.compact before v ~watermark in
      let same_as_reference = got = reference_compact before v ~watermark in
      let identity_if_open =
        Mgraph.has_closed v
        || match got with Some v' -> v' == v | None -> false
      in
      (* nothing dropped (the rebuild equals the input) => no copy made *)
      let identity_if_nothing_below =
        match got with Some v' -> (v' = v) = (v' == v) | None -> true
      in
      same_as_reference && identity_if_open && identity_if_nothing_below)

(* property: visibility is monotone in time for undeleted objects, and an
   object is never visible before its creation stamp *)
let prop_visibility_sane =
  QCheck.Test.make ~name:"visibility bounded by creation/deletion" ~count:300
    QCheck.(triple (int_range 1 20) (int_range 1 20) (int_range 1 20))
    (fun (c, d, q) ->
      let life = { Mgraph.created = t c; deleted = Some (t (c + d)) } in
      let visible = Mgraph.alive before life ~at:(t q) in
      let expected = q >= c && q < c + d in
      visible = expected)

let prop_updates_do_not_rewrite_history =
  QCheck.Test.make ~name:"later writes never change earlier snapshots" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 15) (pair (int_range 2 30) bool))
    (fun writes ->
      (* apply a sequence of add/delete-edge writes at increasing times and
         check the t1 snapshot stays empty and intact *)
      let v = ref (Mgraph.create_vertex ~vid:"a" ~at:(t 1)) in
      let eid = ref 0 in
      List.iteri
        (fun i (ti, add) ->
          let at = t (ti + (i * 31)) in
          if add then begin
            incr eid;
            v := Mgraph.add_edge !v ~eid:(string_of_int !eid) ~dst:"z" ~at
          end
          else if !eid > 0 then v := Mgraph.delete_edge !v ~eid:(string_of_int !eid) ~at)
        writes;
      Mgraph.out_edges before !v ~at:(t 1) = []
      && Mgraph.vertex_alive before !v ~at:(t 1))

let suites =
  [
    ( "graph",
      [
        Alcotest.test_case "create/visibility" `Quick test_create_and_visibility;
        Alcotest.test_case "delete versions" `Quick test_delete_vertex_versions;
        Alcotest.test_case "edge snapshots" `Quick test_edges_snapshot;
        Alcotest.test_case "historical reads" `Quick test_historical_read_after_delete;
        Alcotest.test_case "prop versioning" `Quick test_vertex_prop_versioning;
        Alcotest.test_case "multiple props" `Quick test_multiple_props;
        Alcotest.test_case "edge_has_prop" `Quick test_edge_has_prop;
        Alcotest.test_case "dead edge prop" `Quick test_deleted_edge_prop_untouched;
        Alcotest.test_case "compact drops dead" `Quick test_compact_drops_dead;
        Alcotest.test_case "compact removes dead vertex" `Quick test_compact_removes_dead_vertex;
        Alcotest.test_case "compact preserves live" `Quick test_compact_preserves_live;
        Alcotest.test_case "compact identity when nothing below" `Quick
          test_compact_identity_when_nothing_below;
        Alcotest.test_case "compact shares untouched edges" `Quick
          test_compact_shares_untouched_edges;
        QCheck_alcotest.to_alcotest prop_compact_matches_reference;
        QCheck_alcotest.to_alcotest prop_visibility_sane;
        QCheck_alcotest.to_alcotest prop_updates_do_not_rewrite_history;
      ] );
  ]
