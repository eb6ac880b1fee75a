(* The 64-bit state lives in 8 bytes rather than an [int64] field, which
   would be boxed: advancing it then allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ?(seed = 0x57eaf3f5) () = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t =
  let s = bits64 t in
  of_state (mix64 s)

let int t n =
  assert (n > 0);
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  (* 53 random bits mapped to [0,1) *)
  v /. 9007199254740992.0 *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

(* Zipf by inverse-CDF over the harmonic weights would be O(n) per sample;
   instead use the classic Gray/Jain approximation: precompute nothing and
   use the analytic inverse of the continuous approximation, then clamp.
   Accuracy is sufficient for workload skew purposes. *)
let zipf t ~n ~theta =
  assert (n > 0);
  if theta <= 0.0 then int t n
  else begin
    let alpha = 1.0 -. theta in
    let u = float t 1.0 in
    let u = if u <= 0.0 then 1e-12 else u in
    (* continuous zipf-like inverse: x = n^(u) biased towards 0 *)
    let x = Float.of_int n ** (u ** (1.0 /. alpha)) in
    let v = int_of_float x - 1 in
    if v < 0 then 0 else if v >= n then n - 1 else v
  end

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
