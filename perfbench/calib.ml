(* A reference kernel timed right after every measured slice and every
   set-up.

   On a shared host the simulator's CPU cost per op drifts by 20-40% over
   tens of seconds to minutes, with the cache, memory bandwidth and core
   time that other tenants leave it. This probe drifts with it: lookups of
   pseudo-random keys in an open-addressing table of 200,000 int keys,
   each followed to a byte of its value, so every lookup mixes hashing,
   branches and dependent loads much as the simulator does. The table is
   held outside the OCaml heap, so it adds nothing to the heap size or to
   the GC's work. Over repetitions of contended_write, log CPU per op and
   log probe time moved together with correlation 0.89 and slope 0.92;
   a plain 4 MiB pointer chase tracked worse (0.72) and ALU loops worse
   still. Multiplying a CPU time by [nominal_s /. probe ()] states it on a
   host where the probe takes [nominal_s]. *)

open Bigarray

let entries = 200_000
let slots = 1 lsl 19
let lookups = 40_000

(* the probe time scaled figures refer to: 120 ns a lookup *)
let nominal_s = 0.0048

type table = {
  keys : (int, int_elt, c_layout) Array1.t;  (** -1 marks a free slot *)
  offsets : (int, int_elt, c_layout) Array1.t;  (** where the slot's value starts in [bytes] *)
  bytes : (char, int8_unsigned_elt, c_layout) Array1.t;  (** key k's decimal digits at 8k *)
}

let table =
  lazy
    (let t =
       {
         keys = Array1.create int c_layout slots;
         offsets = Array1.create int c_layout slots;
         bytes = Array1.create char c_layout (entries * 8);
       }
     in
     Array1.fill t.keys (-1);
     for k = 0 to entries - 1 do
       let i = ref (Hashtbl.hash k land (slots - 1)) in
       while t.keys.{!i} >= 0 do
         i := (!i + 1) land (slots - 1)
       done;
       t.keys.{!i} <- k;
       t.offsets.{!i} <- k * 8;
       String.iteri (fun j c -> t.bytes.{(k * 8) + j} <- c) (string_of_int k)
     done;
     t)

(* the state of the key sequence, carried from probe to probe *)
let state = ref 12345

(* Build the table ahead of any measurement. *)
let init () = ignore (Lazy.force table)

(* CPU seconds of [lookups] lookups *)
let probe () =
  let t = Lazy.force table in
  let x = ref !state and sum = ref 0 in
  let t0 = Sys.time () in
  for _ = 1 to lookups do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x mod entries in
    let i = ref (Hashtbl.hash k land (slots - 1)) in
    while Array1.unsafe_get t.keys !i <> k do
      i := (!i + 1) land (slots - 1)
    done;
    sum := !sum + Char.code (Array1.unsafe_get t.bytes (Array1.unsafe_get t.offsets !i))
  done;
  let dt = Sys.time () -. t0 in
  ignore (Sys.opaque_identity !sum);
  state := !x;
  dt

(* [cpu] CPU seconds, measured beside a probe that took [probe_s], stated
   on the nominal host *)
let scale ~cpu ~probe_s = if probe_s > 0.0 then cpu *. nominal_s /. probe_s else cpu
