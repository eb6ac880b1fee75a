type t = { epoch : int; origin : int; clocks : int array }
type order = Before | After | Concurrent | Equal

let zero ~n =
  assert (n > 0);
  { epoch = 0; origin = 0; clocks = Array.make n 0 }

let make ~epoch ~origin clocks =
  assert (origin >= 0 && origin < Array.length clocks);
  { epoch; origin; clocks = Array.copy clocks }

let dim t = Array.length t.clocks

let tick t ~origin =
  let clocks = Array.copy t.clocks in
  clocks.(origin) <- clocks.(origin) + 1;
  { epoch = t.epoch; origin; clocks }

let merge a b =
  assert (dim a = dim b);
  assert (a.epoch = b.epoch);
  let clocks = Array.mapi (fun i v -> max v b.clocks.(i)) a.clocks in
  { a with clocks }

(* [le]: no component of [a] exceeds [b]'s; [ge]: none falls below it.
   A top-level loop over plain ints allocates nothing; it stops early once
   both flags are false, since the answer is then [Concurrent]. *)
let rec hb_loop (ac : int array) (bc : int array) i le ge =
  if i = Array.length ac then
    if le then if ge then Equal else Before else if ge then After else Concurrent
  else begin
    let av = ac.(i) and bv = bc.(i) in
    let le = le && av <= bv and ge = ge && av >= bv in
    if le || ge then hb_loop ac bc (i + 1) le ge else Concurrent
  end

let compare_hb a b =
  if a.epoch < b.epoch then Before
  else if a.epoch > b.epoch then After
  else begin
    assert (dim a = dim b);
    hb_loop a.clocks b.clocks 0 true true
  end

let precedes a b = compare_hb a b = Before
let concurrent a b = compare_hb a b = Concurrent

(* [Array.for_all2] would allocate a closure per call; [equal] runs on
   every version-visibility check of a read ([Mgraph.at_or_before]) *)
let rec clocks_equal (ac : int array) (bc : int array) i =
  i = Array.length ac || (ac.(i) = bc.(i) && clocks_equal ac bc (i + 1))

let equal a b = a.epoch = b.epoch && dim a = dim b && clocks_equal a.clocks b.clocks 0

(* A stamp's identity is its epoch, origin and clock vector, the fields
   [key] spells out: two copies of one stamp are [identical]. *)
let identical a b = a == b || (a.origin = b.origin && equal a b)

(* 64-bit FNV-1a style mixing, word by word, of the fields [identical]
   compares *)
let[@inline] mix h x = (h lxor x) * 0x100000001b3

let fold_hash h t =
  let h = ref (mix (mix h t.epoch) t.origin) in
  let c = t.clocks in
  for i = 0 to Array.length c - 1 do
    h := mix !h c.(i)
  done;
  !h

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = identical

  let hash t =
    let h = fold_hash 0x2bf29ce484222325 t in
    (h lxor (h lsr 29)) land max_int
end)

let sum t = Array.fold_left ( + ) 0 t.clocks

(* Lexicographic order of equal-length clock arrays. *)
let rec lex_compare (ac : int array) (bc : int array) i =
  if i = Array.length ac then 0
  else
    let av = ac.(i) and bv = bc.(i) in
    if av <> bv then compare av bv else lex_compare ac bc (i + 1)

(* The polymorphic [compare] on two int arrays puts the shorter array
   first and compares equal lengths lexicographically; this is that order
   on ints, with no runtime call. *)
let total_compare a b =
  let c = compare a.epoch b.epoch in
  if c <> 0 then c
  else
    let c = compare (sum a) (sum b) in
    if c <> 0 then c
    else
      let c = compare (dim a) (dim b) in
      if c <> 0 then c
      else
        let c = lex_compare a.clocks b.clocks 0 in
        if c <> 0 then c else compare a.origin b.origin

let key t =
  let b = Buffer.create 32 in
  Buffer.add_string b (string_of_int t.epoch);
  Buffer.add_char b '@';
  Buffer.add_string b (string_of_int t.origin);
  Array.iter
    (fun v ->
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    t.clocks;
  Buffer.contents b

let pp fmt t =
  Format.fprintf fmt "e%d<%s>" t.epoch
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.clocks)))

let to_string t = Format.asprintf "%a" pp t

module Truetime = struct
  type tt = { earliest : float; latest : float }

  let now ~rng ~real ~eps =
    assert (eps >= 0.0);
    (* place the true instant uniformly inside the uncertainty interval *)
    let off = if eps > 0.0 then Weaver_util.Xrand.float rng eps else 0.0 in
    { earliest = real -. off; latest = real +. (eps -. off) }

  let after a b = a.earliest > b.latest
  let commit_wait tt = tt.latest -. tt.earliest
end
