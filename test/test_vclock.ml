(* Tests for epoch-tagged vector clocks and the TrueTime model. *)

open Weaver_vclock

let vc epoch origin clocks = Vclock.make ~epoch ~origin clocks

let order_testable =
  Alcotest.testable
    (fun fmt -> function
      | Vclock.Before -> Format.pp_print_string fmt "Before"
      | Vclock.After -> Format.pp_print_string fmt "After"
      | Vclock.Concurrent -> Format.pp_print_string fmt "Concurrent"
      | Vclock.Equal -> Format.pp_print_string fmt "Equal")
    ( = )

let test_zero () =
  let z = Vclock.zero ~n:3 in
  Alcotest.(check int) "dim" 3 (Vclock.dim z);
  Alcotest.check order_testable "self equal" Vclock.Equal (Vclock.compare_hb z z)

let test_tick_orders () =
  let z = Vclock.zero ~n:3 in
  let a = Vclock.tick z ~origin:1 in
  Alcotest.check order_testable "zero before tick" Vclock.Before (Vclock.compare_hb z a);
  Alcotest.check order_testable "tick after zero" Vclock.After (Vclock.compare_hb a z);
  Alcotest.(check bool) "precedes" true (Vclock.precedes z a)

let test_paper_example () =
  (* Fig. 5: T1<1,1,0> ≺ T2<3,4,2>; T3<0,1,3> ≺ T4<3,1,5>; T2 ≈ T4 *)
  let t1 = vc 0 0 [| 1; 1; 0 |] in
  let t2 = vc 0 1 [| 3; 4; 2 |] in
  let t3 = vc 0 2 [| 0; 1; 3 |] in
  let t4 = vc 0 2 [| 3; 1; 5 |] in
  Alcotest.check order_testable "T1 < T2" Vclock.Before (Vclock.compare_hb t1 t2);
  Alcotest.check order_testable "T3 < T4" Vclock.Before (Vclock.compare_hb t3 t4);
  Alcotest.check order_testable "T2 ~ T4" Vclock.Concurrent (Vclock.compare_hb t2 t4);
  Alcotest.(check bool) "concurrent helper" true (Vclock.concurrent t2 t4)

let test_merge () =
  let a = vc 0 0 [| 3; 1; 0 |] and b = vc 0 1 [| 1; 4; 2 |] in
  let m = Vclock.merge a b in
  Alcotest.(check (array int)) "elementwise max" [| 3; 4; 2 |] m.Vclock.clocks;
  Alcotest.(check int) "keeps left origin" 0 m.Vclock.origin

let test_epoch_dominates () =
  let old_big = vc 0 0 [| 100; 100 |] in
  let new_small = vc 1 0 [| 0; 1 |] in
  Alcotest.check order_testable "old epoch before new" Vclock.Before
    (Vclock.compare_hb old_big new_small);
  Alcotest.check order_testable "new epoch after old" Vclock.After
    (Vclock.compare_hb new_small old_big)

let test_total_compare_extends_hb () =
  let a = vc 0 0 [| 1; 0 |] and b = vc 0 1 [| 1; 1 |] in
  Alcotest.(check bool) "before implies negative" true (Vclock.total_compare a b < 0);
  Alcotest.(check bool) "after implies positive" true (Vclock.total_compare b a > 0);
  Alcotest.(check int) "equal is zero" 0 (Vclock.total_compare a a)

let test_total_compare_concurrent_deterministic () =
  let a = vc 0 0 [| 2; 0 |] and b = vc 0 1 [| 0; 2 |] in
  Alcotest.check order_testable "concurrent" Vclock.Concurrent (Vclock.compare_hb a b);
  let c1 = Vclock.total_compare a b and c2 = Vclock.total_compare b a in
  Alcotest.(check bool) "antisymmetric" true (c1 = -c2 && c1 <> 0)

let test_key_unique () =
  let a = vc 0 0 [| 1; 2 |] and b = vc 0 0 [| 12; 0 |] in
  Alcotest.(check bool) "keys differ" true (Vclock.key a <> Vclock.key b);
  Alcotest.(check string) "key stable" (Vclock.key a) (Vclock.key a)

let test_equal_and_make_copy () =
  let arr = [| 1; 2; 3 |] in
  let a = Vclock.make ~epoch:0 ~origin:1 arr in
  arr.(0) <- 99;
  (* make must copy: later mutation of the source array is invisible *)
  Alcotest.(check (array int)) "copied" [| 1; 2; 3 |] a.Vclock.clocks

let test_truetime_after_and_wait () =
  let rng = Weaver_util.Xrand.create ~seed:3 () in
  let a = Vclock.Truetime.now ~rng ~real:1000.0 ~eps:10.0 in
  let b = Vclock.Truetime.now ~rng ~real:1030.0 ~eps:10.0 in
  Alcotest.(check bool) "clearly separated" true (Vclock.Truetime.after b a);
  let c = Vclock.Truetime.now ~rng ~real:1005.0 ~eps:10.0 in
  Alcotest.(check bool) "overlapping not after" false (Vclock.Truetime.after c a);
  Alcotest.(check bool) "commit wait bounded by 2eps" true
    (Vclock.Truetime.commit_wait a <= 20.0 +. 1e-9)

(* qcheck generators and properties *)

let gen_clock n =
  QCheck.Gen.(array_size (return n) (int_bound 20))

let arb_pair_same_dim =
  QCheck.make
    QCheck.Gen.(
      let* n = 2 -- 5 in
      let* a = gen_clock n in
      let* b = gen_clock n in
      let* oa = 0 -- (n - 1) in
      let* ob = 0 -- (n - 1) in
      return (Vclock.make ~epoch:0 ~origin:oa a, Vclock.make ~epoch:0 ~origin:ob b))

let prop_hb_antisymmetric =
  QCheck.Test.make ~name:"happens-before is antisymmetric" ~count:500 arb_pair_same_dim
    (fun (a, b) ->
      match (Vclock.compare_hb a b, Vclock.compare_hb b a) with
      | Vclock.Before, Vclock.After
      | Vclock.After, Vclock.Before
      | Vclock.Equal, Vclock.Equal
      | Vclock.Concurrent, Vclock.Concurrent -> true
      | _ -> false)

let prop_merge_upper_bound =
  QCheck.Test.make ~name:"merge dominates both operands" ~count:500 arb_pair_same_dim
    (fun (a, b) ->
      let m = Vclock.merge a b in
      let geq x =
        match Vclock.compare_hb m x with
        | Vclock.After | Vclock.Equal -> true
        | _ -> false
      in
      geq a && geq b)

let prop_tick_strictly_after =
  QCheck.Test.make ~name:"tick strictly advances" ~count:500 arb_pair_same_dim
    (fun (a, _) ->
      let o = a.Vclock.origin in
      Vclock.precedes a (Vclock.tick a ~origin:o))

let prop_total_compare_total_order =
  QCheck.Test.make ~name:"total_compare is antisymmetric and reflexive" ~count:500
    arb_pair_same_dim
    (fun (a, b) ->
      Vclock.total_compare a a = 0
      && Vclock.total_compare a b = -Vclock.total_compare b a)

let prop_key_injective_on_distinct =
  QCheck.Test.make ~name:"key equal iff clocks+epoch+origin equal" ~count:500
    arb_pair_same_dim
    (fun (a, b) ->
      let keys_eq = String.equal (Vclock.key a) (Vclock.key b) in
      let all_eq =
        Vclock.equal a b && a.Vclock.origin = b.Vclock.origin
      in
      keys_eq = all_eq)

(* The closure-and-refs definitions the allocation-free loops replaced,
   kept as the reference they must agree with. *)
module Reference = struct
  open Vclock

  let compare_hb a b =
    if a.epoch < b.epoch then Before
    else if a.epoch > b.epoch then After
    else begin
      assert (dim a = dim b);
      let le = ref true and ge = ref true in
      Array.iteri
        (fun i av ->
          let bv = b.clocks.(i) in
          if av < bv then ge := false;
          if av > bv then le := false)
        a.clocks;
      match (!le, !ge) with
      | true, true -> Equal
      | true, false -> Before
      | false, true -> After
      | false, false -> Concurrent
    end

  let equal a b =
    a.epoch = b.epoch && dim a = dim b && Array.for_all2 Int.equal a.clocks b.clocks

  let sum t = Array.fold_left ( + ) 0 t.clocks

  let total_compare a b =
    let c = compare a.epoch b.epoch in
    if c <> 0 then c
    else
      let c = compare (sum a) (sum b) in
      if c <> 0 then c
      else
        let c = compare a.clocks b.clocks in
        if c <> 0 then c else compare a.origin b.origin
end

(* stamps over epochs 0-2 and dimensions 1-4 with small components, so
   equal sums, equal clocks and equal stamps with different origins all
   come up often *)
let gen_stamp =
  QCheck.Gen.(
    let* epoch = 0 -- 2 in
    let* n = 1 -- 4 in
    let* clocks = array_size (return n) (0 -- 3) in
    let* origin = 0 -- (n - 1) in
    return (Vclock.make ~epoch ~origin clocks))

let arb_any_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "%s@%d %s@%d" (Vclock.to_string a) a.Vclock.origin
        (Vclock.to_string b) b.Vclock.origin)
    QCheck.Gen.(
      let* a = gen_stamp in
      (* half the pairs share the epoch and dimension, so the clock loops
         run rather than stopping at the epoch test *)
      let same_shape =
        let* clocks = array_size (return (Vclock.dim a)) (0 -- 3) in
        let* origin = 0 -- (Vclock.dim a - 1) in
        return (Vclock.make ~epoch:a.Vclock.epoch ~origin clocks)
      in
      let* b = frequency [ (1, gen_stamp); (1, same_shape) ] in
      return (a, b))

(* [Error ()] when the comparison refuses the pair (same epoch, different
   dimensions) *)
let outcome f = try Ok (f ()) with Assert_failure _ -> Error ()

let prop_loops_match_reference =
  QCheck.Test.make ~name:"compare_hb, total_compare, equal match the reference" ~count:2000
    arb_any_pair
    (fun (a, b) ->
      outcome (fun () -> Vclock.compare_hb a b) = outcome (fun () -> Reference.compare_hb a b)
      && Vclock.total_compare a b = Reference.total_compare a b
      && Vclock.equal a b = Reference.equal a b)

let test_compare_allocates_nothing () =
  (* the reference compare_hb allocates a closure and two refs per call
     and the reference equal a closure; these must allocate nothing *)
  let a = vc 0 0 [| 3; 1; 4; 1 |] and b = vc 0 1 [| 3; 2; 4; 0 |] in
  let c = vc 0 2 [| 3; 1; 5; 1 |] in
  let n = 100_000 in
  List.iter
    (fun (name, f) ->
      let loop () =
        for _ = 1 to n do
          f a b;
          f a c
        done
      in
      loop ();
      let before = Gc.minor_words () in
      loop ();
      let words = Gc.minor_words () -. before in
      (* a few words of slack for boxing the counter reading itself *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words for %d calls" name words (2 * n))
        true (words < 16.0))
    [
      ("compare_hb", fun x y -> ignore (Sys.opaque_identity (Vclock.compare_hb x y)));
      ("total_compare", fun x y -> ignore (Sys.opaque_identity (Vclock.total_compare x y)));
      ("equal", fun x y -> ignore (Sys.opaque_identity (Vclock.equal x y)));
    ]

let suites =
  [
    ( "vclock",
      [
        Alcotest.test_case "zero" `Quick test_zero;
        Alcotest.test_case "tick orders" `Quick test_tick_orders;
        Alcotest.test_case "paper fig5 example" `Quick test_paper_example;
        Alcotest.test_case "merge" `Quick test_merge;
        Alcotest.test_case "epoch dominates" `Quick test_epoch_dominates;
        Alcotest.test_case "total extends hb" `Quick test_total_compare_extends_hb;
        Alcotest.test_case "total deterministic on concurrent" `Quick
          test_total_compare_concurrent_deterministic;
        Alcotest.test_case "key uniqueness" `Quick test_key_unique;
        Alcotest.test_case "make copies" `Quick test_equal_and_make_copy;
        Alcotest.test_case "truetime" `Quick test_truetime_after_and_wait;
        QCheck_alcotest.to_alcotest prop_hb_antisymmetric;
        QCheck_alcotest.to_alcotest prop_merge_upper_bound;
        QCheck_alcotest.to_alcotest prop_tick_strictly_after;
        QCheck_alcotest.to_alcotest prop_total_compare_total_order;
        QCheck_alcotest.to_alcotest prop_key_injective_on_distinct;
        QCheck_alcotest.to_alcotest prop_loops_match_reference;
        Alcotest.test_case "compares allocate nothing" `Quick test_compare_allocates_nothing;
      ] );
  ]
