(* Tests for the weaver_util substrate: RNG determinism and distributions,
   binary heap ordering, statistics, id generation, and the JSON printer. *)

open Weaver_util

let test_rng_determinism () =
  let a = Xrand.create ~seed:42 () and b = Xrand.create ~seed:42 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Xrand.bits64 a) (Xrand.bits64 b)
  done

let test_rng_seed_divergence () =
  let a = Xrand.create ~seed:1 () and b = Xrand.create ~seed:2 () in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Xrand.bits64 a = Xrand.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_int_range () =
  let r = Xrand.create ~seed:7 () in
  for _ = 1 to 1000 do
    let v = Xrand.int r 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let test_rng_int_in () =
  let r = Xrand.create ~seed:7 () in
  for _ = 1 to 1000 do
    let v = Xrand.int_in r 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_rng_float_range () =
  let r = Xrand.create ~seed:7 () in
  for _ = 1 to 1000 do
    let v = Xrand.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniformity () =
  let r = Xrand.create ~seed:11 () in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Xrand.int r 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "roughly uniform" true (frac > 0.08 && frac < 0.12))
    counts

let test_rng_split_independent () =
  let a = Xrand.create ~seed:3 () in
  let b = Xrand.split a in
  let matches = ref 0 in
  for _ = 1 to 50 do
    if Xrand.bits64 a = Xrand.bits64 b then incr matches
  done;
  Alcotest.(check bool) "split streams independent" true (!matches < 5)

let test_rng_exponential_mean () =
  let r = Xrand.create ~seed:5 () in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Xrand.exponential r ~mean:10.0 in
    Alcotest.(check bool) "positive" true (v > 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 10" true (mean > 9.0 && mean < 11.0)

let test_rng_zipf_skew () =
  let r = Xrand.create ~seed:13 () in
  let n = 1000 and samples = 50_000 in
  let counts = Array.make n 0 in
  for _ = 1 to samples do
    let v = Xrand.zipf r ~n ~theta:0.9 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < n);
    counts.(v) <- counts.(v) + 1
  done;
  (* head of the distribution should dominate the tail *)
  let head = Array.fold_left ( + ) 0 (Array.sub counts 0 (n / 10)) in
  Alcotest.(check bool) "skewed towards head" true
    (float_of_int head /. float_of_int samples > 0.5)

let test_rng_shuffle_permutation () =
  let r = Xrand.create ~seed:17 () in
  let arr = Array.init 100 (fun i -> i) in
  Xrand.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let test_heap_sorts () =
  let h = Heap.create ~cmp:compare in
  let r = Xrand.create ~seed:23 () in
  let input = List.init 500 (fun _ -> Xrand.int r 1000) in
  List.iter (Heap.push h) input;
  Alcotest.(check int) "length" 500 (Heap.length h);
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some x ->
        out := x :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  let out = List.rev !out in
  Alcotest.(check (list int)) "heap sort" (List.sort compare input) out

let test_heap_peek_pop () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check (option int)) "empty peek" None (Heap.peek h);
  Alcotest.(check (option int)) "empty pop" None (Heap.pop h);
  Heap.push h 5;
  Heap.push h 3;
  Heap.push h 8;
  Alcotest.(check (option int)) "peek min" (Some 3) (Heap.peek h);
  Alcotest.(check int) "peek does not remove" 3 (Heap.length h);
  Alcotest.(check (option int)) "pop min" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "next min" (Some 5) (Heap.pop h)

let test_heap_pop_exn () =
  let h = Heap.create ~cmp:compare in
  Alcotest.check_raises "pop_exn on empty"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_clear () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h)

let test_heap_custom_cmp () =
  (* max-heap via inverted comparison *)
  let h = Heap.create ~cmp:(fun a b -> compare b a) in
  List.iter (Heap.push h) [ 4; 9; 1 ];
  Alcotest.(check (option int)) "max first" (Some 9) (Heap.pop h)

let test_heap_drain_releases_memory () =
  (* regression: popping the last element used to leave it reachable
     through slot 0 of the backing array — in the engine that pinned the
     last executed event closure (and everything it captured) for the life
     of the heap *)
  let h = Heap.create ~cmp:(fun a b -> compare !a !b) in
  let w = Weak.create 3 in
  let fill () =
    List.iteri
      (fun i v ->
        let r = ref v in
        Weak.set w i (Some r);
        Heap.push h r)
      [ 3; 1; 2 ]
  in
  let rec drain () = match Heap.pop h with Some _ -> drain () | None -> () in
  fill ();
  drain ();
  Gc.full_major ();
  for i = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d collected after drain" i)
      false (Weak.check w i)
  done;
  (* the heap itself stays usable *)
  Heap.push h (ref 9);
  Alcotest.(check bool) "push after drain" true (Heap.pop h <> None)

let test_stats_basic () =
  let s = Stats.create () in
  Alcotest.(check bool) "empty" true (Stats.is_empty s);
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_val s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max_val s);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stats.total s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Stats.percentile s 99.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile s 0.0)

let test_stats_percentile_after_add () =
  (* adding after a percentile query must re-sort *)
  let s = Stats.create () in
  List.iter (Stats.add s) [ 5.0; 1.0 ];
  ignore (Stats.percentile s 50.0);
  Stats.add s 0.5;
  Alcotest.(check (float 1e-9)) "min after re-add" 0.5 (Stats.percentile s 0.0)

let test_stats_stddev () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  (* sample stddev of this classic set is ~2.138 *)
  let sd = Stats.stddev s in
  Alcotest.(check bool) "stddev" true (Float.abs (sd -. 2.138) < 0.01)

let test_stats_cdf () =
  let s = Stats.create () in
  for i = 1 to 10 do
    Stats.add s (float_of_int i)
  done;
  let cdf = Stats.cdf s ~points:10 in
  Alcotest.(check int) "cdf points" 10 (List.length cdf);
  let vs, fs = List.split cdf in
  Alcotest.(check bool) "values nondecreasing" true
    (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 9) vs) (List.tl vs));
  Alcotest.(check (float 1e-9)) "last fraction" 1.0 (List.nth fs 9)

let test_histogram () =
  let open Stats.Histogram in
  let h = create ~lo:0.0 ~hi:10.0 ~buckets:10 in
  add h (-5.0);
  add h 0.5;
  add h 9.99;
  add h 50.0;
  Alcotest.(check int) "total" 4 (total h);
  let c = counts h in
  Alcotest.(check int) "underflow into first" 2 c.(0);
  Alcotest.(check int) "overflow into last" 2 c.(9)

let test_stats_percentile_edges () =
  (* empty *)
  let s = Stats.create () in
  Alcotest.(check (float 1e-9)) "empty p50" 0.0 (Stats.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "empty p0" 0.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "empty p100" 0.0 (Stats.percentile s 100.0);
  (* n = 1: every percentile is the single sample *)
  Stats.add s 7.0;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "n=1 p%g" p)
        7.0 (Stats.percentile s p))
    [ 0.0; 1.0; 50.0; 99.0; 100.0 ];
  (* n = 2: nearest-rank picks the lower sample up to p50, upper above *)
  Stats.add s 9.0;
  Alcotest.(check (float 1e-9)) "n=2 p0" 7.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "n=2 p50" 7.0 (Stats.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "n=2 p51" 9.0 (Stats.percentile s 51.0);
  Alcotest.(check (float 1e-9)) "n=2 p100" 9.0 (Stats.percentile s 100.0);
  (* out-of-range p clamps rather than raising *)
  Alcotest.(check (float 1e-9)) "p<0 clamps" 7.0 (Stats.percentile s (-10.0));
  Alcotest.(check (float 1e-9)) "p>100 clamps" 9.0 (Stats.percentile s 250.0)

let test_stats_cdf_edges () =
  let s = Stats.create () in
  Alcotest.(check int) "empty cdf" 0 (List.length (Stats.cdf s ~points:10));
  Alcotest.(check int) "zero points" 0 (List.length (Stats.cdf s ~points:0));
  Stats.add s 3.0;
  let cdf = Stats.cdf s ~points:4 in
  Alcotest.(check int) "n=1 point count" 4 (List.length cdf);
  List.iter
    (fun (v, _) -> Alcotest.(check (float 1e-9)) "n=1 all points" 3.0 v)
    cdf;
  Alcotest.(check (float 1e-9)) "n=1 last frac" 1.0 (snd (List.nth cdf 3));
  Stats.add s 5.0;
  let cdf2 = Stats.cdf s ~points:2 in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "n=2 two points"
    [ (3.0, 0.5); (5.0, 1.0) ]
    cdf2

let test_histogram_bucket_clamp () =
  let open Stats.Histogram in
  (* regression: with a huge range, (x - lo) and (hi - lo) collapse to the
     same float for x just below hi, the ratio rounds to 1.0, and the raw
     bucket index lands out of bounds at n *)
  let h = create ~lo:(-1e16) ~hi:0.5 ~buckets:10 in
  add h 0.49;
  Alcotest.(check int) "clamped into last bucket" 1 (counts h).(9);
  (* any in-range x must land in a valid bucket *)
  let h2 = create ~lo:(-1e12) ~hi:1.0 ~buckets:7 in
  let r = Xrand.create ~seed:31 () in
  for _ = 1 to 10_000 do
    add h2 (Xrand.float r 2.0 -. 1e12 /. Xrand.float r 1e3)
  done;
  add h2 0.999999999;
  add h2 (Float.pred 1.0);
  Alcotest.(check int) "all samples binned" 10_002 (total h2)

let test_idgen () =
  let g = Idgen.create () in
  Alcotest.(check int) "first" 0 (Idgen.next g);
  Alcotest.(check int) "second" 1 (Idgen.next g);
  Alcotest.(check string) "prefixed" "v2" (Idgen.next_str g ~prefix:"v");
  Alcotest.(check int) "current" 2 (Idgen.current g);
  let g2 = Idgen.create ~start:100 () in
  Alcotest.(check int) "start offset" 100 (Idgen.next g2)

(* property tests *)

let prop_heap_pop_sorted =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun l ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) l;
      let rec drain acc =
        match Heap.pop h with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare l)

let prop_heap_churn_matches_oracle =
  (* interleaved push/pop churn against a sorted-list oracle — the
     drain-then-refill pattern the drain-release fix touches, not just the
     fill-once/drain-once shape of the sort test above *)
  QCheck.Test.make ~name:"heap matches sorted-list oracle under churn" ~count:200
    QCheck.(list (option small_int))
    (fun ops ->
      let h = Heap.create ~cmp:compare in
      let model = ref [] in
      List.for_all
        (function
          | Some x ->
              Heap.push h x;
              model := List.sort compare (x :: !model);
              Heap.length h = List.length !model
          | None -> (
              match (Heap.pop h, !model) with
              | None, [] -> true
              | Some v, m :: rest ->
                  model := rest;
                  v = m
              | _ -> false))
        ops)

let prop_stats_percentile_bounds =
  QCheck.Test.make ~name:"percentile within [min,max]" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (l, p) ->
      let s = Stats.create () in
      List.iter (Stats.add s) l;
      let v = Stats.percentile s p in
      v >= Stats.min_val s && v <= Stats.max_val s)

let prop_rng_zipf_in_range =
  QCheck.Test.make ~name:"zipf stays in range" ~count:500
    QCheck.(pair (int_range 1 1000) (float_bound_inclusive 1.5))
    (fun (n, theta) ->
      let r = Xrand.create ~seed:(n + int_of_float (theta *. 100.)) () in
      let v = Xrand.zipf r ~n ~theta in
      v >= 0 && v < n)

(* JSON printer: every tree reads back as itself. Strings mix quotes,
   backslashes, control characters and multi-byte UTF-8; numbers mix
   negatives, integers up to 2^53, tiny fractions and arbitrary finite
   floats. *)
let json_gen =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        map (String.make 1) printable;
        oneofl [ "\""; "\\"; "\n"; "\t"; "\r"; "\b"; "\012"; "é"; "€"; "😀" ];
        map (fun c -> String.make 1 (Char.chr c)) (int_range 0 31);
      ]
  in
  let str = map (String.concat "") (list_size (int_range 0 8) piece) in
  let limit = 1 lsl 53 in
  let number =
    oneof
      [
        map float_of_int (int_range (-limit) limit);
        map (fun x -> x *. 1e-12) (float_range (-1.0) 1.0);
        map (fun x -> if Float.is_finite x then x else 0.0) float;
      ]
  in
  sized_size (int_range 0 3)
  @@ fix (fun self depth ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun x -> Json.Num x) number;
               map (fun s -> Json.Str s) str;
             ]
         in
         if depth = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (2, map (fun l -> Json.List l) (list_size (int_range 0 5) (self (depth - 1))));
               ( 2,
                 map (fun l -> Json.Obj l)
                   (list_size (int_range 0 5) (pair str (self (depth - 1)))) );
             ])

let prop_json_round_trip =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:500 (QCheck.make json_gen)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let test_json_non_finite () =
  Alcotest.(check string) "nan and infinities print as null" "[null, null, null]"
    (Json.to_string (Json.List [ Json.Num Float.nan; Json.Num infinity; Json.Num neg_infinity ]))

(* 15, 16 and 17 significant digits: each number in as few as round-trip *)
let test_json_shortest_digits () =
  Alcotest.(check string)
    "fewest digits" "[0.1, 0.3333333333333333, 0.30000000000000004, 2.5e-07]"
    (Json.to_string
       (Json.List (List.map (fun x -> Json.Num x) [ 0.1; 1. /. 3.; 0.1 +. 0.2; 2.5e-7 ])))

let suites =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seed divergence" `Quick test_rng_seed_divergence;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int_in range" `Quick test_rng_int_in;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        QCheck_alcotest.to_alcotest prop_rng_zipf_in_range;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "sorts" `Quick test_heap_sorts;
        Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop;
        Alcotest.test_case "pop_exn" `Quick test_heap_pop_exn;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        Alcotest.test_case "custom cmp" `Quick test_heap_custom_cmp;
        Alcotest.test_case "drain releases memory" `Quick
          test_heap_drain_releases_memory;
        QCheck_alcotest.to_alcotest prop_heap_pop_sorted;
        QCheck_alcotest.to_alcotest prop_heap_churn_matches_oracle;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "basic" `Quick test_stats_basic;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "percentile after add" `Quick test_stats_percentile_after_add;
        Alcotest.test_case "stddev" `Quick test_stats_stddev;
        Alcotest.test_case "percentile edges" `Quick test_stats_percentile_edges;
        Alcotest.test_case "cdf" `Quick test_stats_cdf;
        Alcotest.test_case "cdf edges" `Quick test_stats_cdf_edges;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "histogram bucket clamp" `Quick test_histogram_bucket_clamp;
        QCheck_alcotest.to_alcotest prop_stats_percentile_bounds;
      ] );
    ("util.idgen", [ Alcotest.test_case "sequence" `Quick test_idgen ]);
    ( "util.json",
      [
        QCheck_alcotest.to_alcotest prop_json_round_trip;
        Alcotest.test_case "non-finite numbers print null" `Quick test_json_non_finite;
        Alcotest.test_case "numbers print in the fewest digits" `Quick test_json_shortest_digits;
      ] );
  ]
