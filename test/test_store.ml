(* Tests for the transactional backing store: OCC validation, atomicity,
   read-your-writes, scans, and a brute-force serializability check. *)

open Weaver_store

let test_put_get_commit () =
  let s = Store.create () in
  let tx = Store.Tx.begin_ s in
  Store.Tx.put tx "a" 1;
  Store.Tx.put tx "b" 2;
  Alcotest.(check bool) "commit ok" true (Store.Tx.commit tx = Ok ());
  Alcotest.(check (option int)) "a" (Some 1) (Store.get_now s "a");
  Alcotest.(check (option int)) "b" (Some 2) (Store.get_now s "b");
  Alcotest.(check int) "live count" 2 (Store.length s)

let test_read_your_writes () =
  let s = Store.create () in
  let tx = Store.Tx.begin_ s in
  Store.Tx.put tx "k" 7;
  Alcotest.(check (option int)) "sees own write" (Some 7) (Store.Tx.get tx "k");
  Store.Tx.delete tx "k";
  Alcotest.(check (option int)) "sees own delete" None (Store.Tx.get tx "k");
  Alcotest.(check bool) "commit" true (Store.Tx.commit tx = Ok ());
  Alcotest.(check (option int)) "deleted" None (Store.get_now s "k")

let test_isolation_before_commit () =
  let s = Store.create () in
  let tx = Store.Tx.begin_ s in
  Store.Tx.put tx "k" 1;
  Alcotest.(check (option int)) "not visible before commit" None (Store.get_now s "k");
  Store.Tx.abort tx;
  Alcotest.(check (option int)) "aborted invisible" None (Store.get_now s "k");
  Alcotest.(check int) "abort counted" 1 (Store.aborts s)

let test_occ_conflict_on_read () =
  let s = Store.create () in
  let init = Store.Tx.begin_ s in
  Store.Tx.put init "k" 0;
  Alcotest.(check bool) "init" true (Store.Tx.commit init = Ok ());
  (* t1 reads k, t2 updates k, then t1 commits: conflict *)
  let t1 = Store.Tx.begin_ s in
  ignore (Store.Tx.get t1 "k");
  Store.Tx.put t1 "out" 1;
  let t2 = Store.Tx.begin_ s in
  Store.Tx.put t2 "k" 99;
  Alcotest.(check bool) "t2 commits" true (Store.Tx.commit t2 = Ok ());
  (match Store.Tx.commit t1 with
  | Error (`Conflict k) -> Alcotest.(check string) "conflicting key" "k" k
  | Ok () -> Alcotest.fail "t1 must abort");
  Alcotest.(check (option int)) "t1 writes discarded" None (Store.get_now s "out")

let test_blind_writes_do_not_conflict () =
  let s = Store.create () in
  let t1 = Store.Tx.begin_ s in
  let t2 = Store.Tx.begin_ s in
  Store.Tx.put t1 "k" 1;
  Store.Tx.put t2 "k" 2;
  Alcotest.(check bool) "t1" true (Store.Tx.commit t1 = Ok ());
  Alcotest.(check bool) "t2 blind write ok" true (Store.Tx.commit t2 = Ok ());
  Alcotest.(check (option int)) "last writer wins" (Some 2) (Store.get_now s "k")

let test_conflict_on_deleted_vertex () =
  (* the paper's example: deleting an already-deleted vertex aborts at the
     backing store (§4.2) — modelled as read-validate-delete *)
  let s = Store.create () in
  let init = Store.Tx.begin_ s in
  Store.Tx.put init "v" "vertex";
  Alcotest.(check bool) "init" true (Store.Tx.commit init = Ok ());
  let t1 = Store.Tx.begin_ s in
  let t2 = Store.Tx.begin_ s in
  ignore (Store.Tx.get t1 "v");
  Store.Tx.delete t1 "v";
  ignore (Store.Tx.get t2 "v");
  Store.Tx.delete t2 "v";
  Alcotest.(check bool) "first delete ok" true (Store.Tx.commit t1 = Ok ());
  Alcotest.(check bool) "second delete aborts" true
    (match Store.Tx.commit t2 with Error (`Conflict _) -> true | Ok () -> false)

let test_version_bumps () =
  let s = Store.create () in
  Alcotest.(check int) "unwritten version" 0 (Store.version s "k");
  let t1 = Store.Tx.begin_ s in
  Store.Tx.put t1 "k" 1;
  ignore (Store.Tx.commit t1);
  Alcotest.(check int) "after put" 1 (Store.version s "k");
  let t2 = Store.Tx.begin_ s in
  Store.Tx.delete t2 "k";
  ignore (Store.Tx.commit t2);
  Alcotest.(check int) "delete bumps too" 2 (Store.version s "k")

let test_scan_prefix () =
  let s = Store.create () in
  let tx = Store.Tx.begin_ s in
  Store.Tx.put tx "shard0/v1" 1;
  Store.Tx.put tx "shard0/v2" 2;
  Store.Tx.put tx "shard1/v3" 3;
  ignore (Store.Tx.commit tx);
  let shard0 = Store.scan_prefix s ~prefix:"shard0/" in
  Alcotest.(check int) "two keys" 2 (List.length shard0);
  Alcotest.(check bool) "right keys" true
    (List.mem_assoc "shard0/v1" shard0 && List.mem_assoc "shard0/v2" shard0);
  (* order is part of the contract: shard crash-recovery reloads iterate a
     scan, so an unspecified (hash) order would make recovery depend on
     Hashtbl internals. Insert scrambled, expect keys sorted. *)
  let tx = Store.Tx.begin_ s in
  List.iter
    (fun i -> Store.Tx.put tx (Printf.sprintf "sorted/%02d" i) i)
    [ 7; 2; 19; 0; 13; 5; 11; 3; 17; 8 ];
  ignore (Store.Tx.commit tx);
  let keys = List.map fst (Store.scan_prefix s ~prefix:"sorted/") in
  Alcotest.(check (list string)) "scan is key-sorted"
    (List.sort String.compare keys) keys;
  Alcotest.(check int) "all present" 10 (List.length keys)

(* A bulk load applies each binding as a commit would (cell, version,
   apply hook, in list order) and is one journal entry and one commit. *)
let test_load () =
  let s = Store.create () in
  let applied = ref [] in
  Store.on_apply s (fun k v -> applied := (k, v) :: !applied);
  let bindings = [ ("b", 2); ("a", 1); ("c", 3) ] in
  Store.load s bindings;
  Alcotest.(check int) "live count" 3 (Store.length s);
  List.iter
    (fun (k, v) ->
      Alcotest.(check int) ("version of " ^ k) 1 (Store.version s k);
      Alcotest.(check (option int)) ("value of " ^ k) (Some v) (Store.get_now s k))
    bindings;
  Alcotest.(check (list (pair string (option int))))
    "one hook call per binding, in order"
    (List.map (fun (k, v) -> (k, Some v)) bindings)
    (List.rev !applied);
  Alcotest.(check int) "one journal entry" 1 (Store.journal_length s);
  Alcotest.(check (list (pair string (option int))))
    "the entry is the load"
    (List.map (fun (k, v) -> (k, Some v)) bindings)
    (Store.journal_entry s 0);
  Alcotest.(check int) "one commit" 1 (Store.commits s);
  (* loading over existing keys bumps them as a commit does *)
  let tx = Store.Tx.begin_ s in
  Store.Tx.delete tx "c";
  ignore (Store.Tx.commit tx);
  Store.load s [ ("a", 10); ("c", 30); ("d", 4) ];
  Alcotest.(check (list int)) "versions bumped"
    [ 2; 1; 3; 1 ]
    (List.map (Store.version s) [ "a"; "b"; "c"; "d" ]);
  Alcotest.(check int) "live count after reload" 4 (Store.length s);
  Alcotest.(check int) "three journal entries" 3 (Store.journal_length s);
  Alcotest.(check int) "three commits" 3 (Store.commits s);
  let r = Store.replay s in
  Alcotest.(check (list (pair string int)))
    "replay equals the store" (Store.scan_prefix s ~prefix:"") (Store.scan_prefix r ~prefix:"");
  Alcotest.(check (list int)) "replayed versions"
    [ 2; 1; 3; 1 ]
    (List.map (Store.version r) [ "a"; "b"; "c"; "d" ])

(* The journal is a checkpoint image plus a bounded tail: after many
   commits the tail stays below its 64-entry bound, folded entries are no
   longer addressable one by one, the tail's entries still are, and
   [replay] (image plus tail) gives every key the store's value and
   version. *)
let test_journal_tail_bounded () =
  let s = Store.create () in
  let n = 1_000 in
  for i = 0 to n - 1 do
    let tx = Store.Tx.begin_ s in
    let k = "k" ^ string_of_int (i mod 37) in
    if i mod 5 = 4 then Store.Tx.delete tx k else Store.Tx.put tx k i;
    ignore (Store.Tx.commit tx);
    let tail = Store.journal_length s - Store.journal_folded s in
    if tail < 0 || tail >= 64 then Alcotest.failf "tail of %d entries after commit %d" tail i
  done;
  Store.load s [ ("loaded", -1) ];
  Alcotest.(check int) "every entry journaled" (n + 1) (Store.journal_length s);
  Alcotest.(check bool) "most entries folded" true (Store.journal_folded s > n - 64);
  Alcotest.check_raises "a folded entry is gone"
    (Invalid_argument "Store.journal_entry: out of range") (fun () ->
      ignore (Store.journal_entry s 0));
  Alcotest.(check (list (pair string (option int))))
    "the newest entry is in the tail" [ ("loaded", Some (-1)) ]
    (Store.journal_entry s n);
  let r = Store.replay s in
  Alcotest.(check (list (pair string int)))
    "replay equals the store" (Store.scan_prefix s ~prefix:"") (Store.scan_prefix r ~prefix:"");
  Alcotest.(check int) "live counts equal" (Store.length s) (Store.length r);
  let keys = "loaded" :: List.init 37 (fun i -> "k" ^ string_of_int i) in
  Alcotest.(check (list int)) "replayed versions"
    (List.map (Store.version s) keys) (List.map (Store.version r) keys);
  Alcotest.(check int) "replay keeps the indices" (Store.journal_length s) (Store.journal_length r)

let test_finished_handle_rejected () =
  let s = Store.create () in
  let tx = Store.Tx.begin_ s in
  ignore (Store.Tx.commit tx);
  Alcotest.check_raises "reuse rejected"
    (Invalid_argument "Store.Tx: finished handle") (fun () ->
      Store.Tx.put tx "k" 1)

let test_atomicity_multi_key () =
  let s = Store.create () in
  let seed = Store.Tx.begin_ s in
  Store.Tx.put seed "x" 0;
  Store.Tx.put seed "y" 0;
  ignore (Store.Tx.commit seed);
  (* t reads x and y, writes both; concurrent u bumps y → t aborts wholesale *)
  let t = Store.Tx.begin_ s in
  ignore (Store.Tx.get t "x");
  ignore (Store.Tx.get t "y");
  Store.Tx.put t "x" 10;
  Store.Tx.put t "y" 10;
  let u = Store.Tx.begin_ s in
  Store.Tx.put u "y" 5;
  ignore (Store.Tx.commit u);
  Alcotest.(check bool) "t aborts" true
    (match Store.Tx.commit t with Error _ -> true | Ok () -> false);
  Alcotest.(check (option int)) "x untouched" (Some 0) (Store.get_now s "x");
  Alcotest.(check (option int)) "y from u" (Some 5) (Store.get_now s "y")

(* Serializability property: run n transactions with interleaved reads, then
   commit them in some order; the committed subset must be equivalent to a
   serial execution in *some* permutation. We brute-force over permutations
   of the committed transactions on a reference in-memory map. *)

type optrace = { reads : string list; writes : (string * int) list }

let run_serial txs order =
  let map = Hashtbl.create 8 in
  List.iter
    (fun idx ->
      let tx = List.nth txs idx in
      ignore (List.map (fun k -> Hashtbl.find_opt map k) tx.reads);
      List.iter (fun (k, v) -> Hashtbl.replace map k v) tx.writes)
    order;
  map

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let prop_occ_serializable =
  QCheck.Test.make ~name:"committed OCC transactions are serializable" ~count:200
    (* each tx: (read keys ⊆ {0..3}, writes (key, val)) *)
    QCheck.(
      list_of_size (Gen.int_range 1 4)
        (pair (list_of_size (Gen.int_range 0 3) (int_bound 3))
           (list_of_size (Gen.int_range 0 3) (pair (int_bound 3) (int_bound 100)))))
    (fun specs ->
      let key i = "k" ^ string_of_int i in
      let s = Store.create () in
      (* begin all, interleave reads, then commit in sequence *)
      let txs =
        List.map
          (fun (rks, wks) ->
            let tx = Store.Tx.begin_ s in
            (tx, rks, wks))
          specs
      in
      List.iter (fun (tx, rks, _) -> List.iter (fun k -> ignore (Store.Tx.get tx (key k))) rks) txs;
      let committed =
        List.filter_map
          (fun (tx, rks, wks) ->
            List.iter (fun (k, v) -> Store.Tx.put tx (key k) v) wks;
            match Store.Tx.commit tx with
            | Ok () ->
                Some
                  {
                    reads = List.map key rks;
                    writes = List.map (fun (k, v) -> (key k, v)) wks;
                  }
            | Error _ -> None)
          txs
      in
      (* final store state must match some serial order of committed txs *)
      let indices = List.init (List.length committed) (fun i -> i) in
      let matches order =
        let m = run_serial committed order in
        let keys = List.init 4 (fun i -> key i) in
        List.for_all (fun k -> Hashtbl.find_opt m k = Store.get_now s k) keys
      in
      List.exists matches (permutations indices))

let suites =
  [
    ( "store",
      [
        Alcotest.test_case "put/get/commit" `Quick test_put_get_commit;
        Alcotest.test_case "read-your-writes" `Quick test_read_your_writes;
        Alcotest.test_case "isolation before commit" `Quick test_isolation_before_commit;
        Alcotest.test_case "occ conflict on read" `Quick test_occ_conflict_on_read;
        Alcotest.test_case "blind writes" `Quick test_blind_writes_do_not_conflict;
        Alcotest.test_case "double delete aborts" `Quick test_conflict_on_deleted_vertex;
        Alcotest.test_case "version bumps" `Quick test_version_bumps;
        Alcotest.test_case "scan prefix" `Quick test_scan_prefix;
        Alcotest.test_case "bulk load" `Quick test_load;
        Alcotest.test_case "journal tail bounded" `Quick test_journal_tail_bounded;
        Alcotest.test_case "finished handle" `Quick test_finished_handle_rejected;
        Alcotest.test_case "multi-key atomicity" `Quick test_atomicity_multi_key;
        QCheck_alcotest.to_alcotest prop_occ_serializable;
      ] );
  ]
