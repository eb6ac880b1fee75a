(* Load-heat attribution: which vertices and key ranges are hot, per shard.

   Two instruments, both deterministic and O(1) per touch:

   - a Space-Saving top-K heavy-hitter sketch per shard (Metwally et al.,
     "Efficient computation of frequent and top-k elements in data
     streams"): K counters in fixed memory; a touch of a tracked key
     increments its counter, a touch of an untracked key evicts the
     current minimum and inherits its count as the new key's error bound.
     Estimated counts never undercount (estimate >= true count) and
     overcount by at most the recorded error, so ranking by estimate
     recovers the true hottest keys under skew. Ties on eviction and in
     [top] ordering break on the key string, never on hash-table order,
     so two runs that issue the same touches report the same table.

   - per-key-range exponentially-decayed load accumulators, with reads,
     writes, and cross-shard transaction touches tracked separately (the
     three signals a split/merge or replication planner needs). A range is
     an FNV-1a hash bucket of the vertex handle — the same hash
     [Partition.hash_vertex] uses for placement, so when [ranges] is a
     multiple of the shard count every range nests inside one home shard
     ([range mod shards]) for unmigrated vertices. Decay is computed
     lazily from the timestamp of the last touch (half-life in virtual
     µs), so idle ranges cost nothing.

   Recording is pure bookkeeping: no events scheduled, no RNG, no
   messages — a run with heat enabled is bit-identical to one without
   (pinned by the counter-invisibility test in test/test_heat.ml). *)

module Sketch = struct
  type t = {
    k : int;
    slots : (string, int) Hashtbl.t;  (* tracked key -> slot index *)
    mutable size : int;
    keys : string array;
    counts : int array;
    errs : int array;
  }

  let create ~k =
    if k <= 0 then invalid_arg "Heat.Sketch.create: k must be positive";
    {
      k;
      slots = Hashtbl.create (4 * k);
      size = 0;
      keys = Array.make k "";
      counts = Array.make k 0;
      errs = Array.make k 0;
    }

  let capacity t = t.k
  let size t = t.size

  let touch ?(by = 1) t key =
    match Hashtbl.find_opt t.slots key with
    | Some i -> t.counts.(i) <- t.counts.(i) + by
    | None ->
        if t.size < t.k then begin
          let i = t.size in
          t.size <- t.size + 1;
          t.keys.(i) <- key;
          t.counts.(i) <- by;
          t.errs.(i) <- 0;
          Hashtbl.replace t.slots key i
        end
        else begin
          (* evict the minimum count; ties break towards the
             lexicographically larger key so the victim never depends on
             slot order *)
          let m = ref 0 in
          for i = 1 to t.k - 1 do
            if
              t.counts.(i) < t.counts.(!m)
              || (t.counts.(i) = t.counts.(!m)
                 && String.compare t.keys.(i) t.keys.(!m) > 0)
            then m := i
          done;
          let i = !m in
          Hashtbl.remove t.slots t.keys.(i);
          Hashtbl.replace t.slots key i;
          t.errs.(i) <- t.counts.(i);
          t.counts.(i) <- t.counts.(i) + by;
          t.keys.(i) <- key
        end

  let estimate t key =
    match Hashtbl.find_opt t.slots key with
    | Some i -> Some (t.counts.(i), t.errs.(i))
    | None -> None

  (* (key, estimated count, error bound), hottest first; count ties break
     on the key so the order is a pure function of the touch stream *)
  let top t =
    List.init t.size (fun i -> (t.keys.(i), t.counts.(i), t.errs.(i)))
    |> List.sort (fun (ka, ca, _) (kb, cb, _) ->
           if ca <> cb then compare cb ca else String.compare ka kb)
end

type kind = Read | Write | Cross

let kind_name = function Read -> "reads" | Write -> "writes" | Cross -> "cross"

(* an exponentially-decayed accumulator; the stored value is exact as of
   [c_at] and decays analytically when read *)
type cell = { mutable c_v : float; mutable c_at : float }

type t = {
  n_shards : int;
  n_ranges : int;
  half_life : float;
  sketches : Sketch.t array;  (* per shard: read+write vertex touches *)
  range_cells : cell array array;  (* [kind].[range] *)
  shard_cells : cell array array;  (* [kind].[shard] *)
  owner_cells : cell array array;  (* [shard].[range]: decayed r+w observed there *)
  totals : int array array;  (* [kind].[shard], cumulative (registry gauges) *)
}

let kind_index = function Read -> 0 | Write -> 1 | Cross -> 2

let default_half_life = 50_000.0

let create ~shards ~k ~ranges ~half_life =
  if shards <= 0 then invalid_arg "Heat.create: shards must be positive";
  if ranges <= 0 then invalid_arg "Heat.create: ranges must be positive";
  (* without nesting, [home_shard] (range mod shards) disagrees with the
     FNV-1a hashed placement and every range-heat row is mis-attributed *)
  if ranges mod shards <> 0 then
    invalid_arg "Heat.create: ranges must be a multiple of shards";
  if half_life <= 0.0 then invalid_arg "Heat.create: half_life must be positive";
  let cells n = Array.init 3 (fun _ -> Array.init n (fun _ -> { c_v = 0.0; c_at = 0.0 })) in
  {
    n_shards = shards;
    n_ranges = ranges;
    half_life;
    sketches = Array.init shards (fun _ -> Sketch.create ~k);
    range_cells = cells ranges;
    shard_cells = cells shards;
    owner_cells =
      Array.init shards (fun _ ->
          Array.init ranges (fun _ -> { c_v = 0.0; c_at = 0.0 }));
    totals = Array.make_matrix 3 shards 0;
  }

let shards t = t.n_shards
let ranges t = t.n_ranges
let half_life t = t.half_life
let sketch t ~shard = t.sketches.(shard)

let range_of t vid = Weaver_util.Fnv.hash vid mod t.n_ranges

(* the home shard of a range under pure hashed placement — exact because
   [create] enforces [ranges mod shards = 0], so
   [(h mod ranges) mod shards = h mod shards] *)
let home_shard t range = range mod t.n_shards

let decayed t c ~now =
  if now <= c.c_at then c.c_v else c.c_v *. (0.5 ** ((now -. c.c_at) /. t.half_life))

let bump t c ~now =
  c.c_v <- decayed t c ~now +. 1.0;
  c.c_at <- now

let touch t ~shard ~kind ~now vid =
  let ki = kind_index kind in
  let range = range_of t vid in
  t.totals.(ki).(shard) <- t.totals.(ki).(shard) + 1;
  (match kind with
  | Read | Write ->
      Sketch.touch t.sketches.(shard) vid;
      (* read/write touches arrive tagged with the shard that actually
         served them (routed via the live directory), so this per-
         (shard, range) cell tracks where a range's load REALLY lands —
         after migrations, not just under hashed placement *)
      bump t t.owner_cells.(shard).(range) ~now
  | Cross -> ());
  bump t t.range_cells.(ki).(range) ~now;
  bump t t.shard_cells.(ki).(shard) ~now

let top t ~shard = Sketch.top t.sketches.(shard)

let totals t ~shard = (t.totals.(0).(shard), t.totals.(1).(shard), t.totals.(2).(shard))

let total t ~shard ~kind = t.totals.(kind_index kind).(shard)

let range_load t ~range ~kind ~now = decayed t t.range_cells.(kind_index kind).(range) ~now

(* the shard observed to serve most of a range's recent read+write load;
   falls back to the hashed home while the range is cold. Ties break
   toward the lower shard index so the answer is a pure function of the
   touch stream. *)
let range_owner t ~range ~now =
  let best = ref (-1) and best_l = ref 0.0 in
  for s = 0 to t.n_shards - 1 do
    let l = decayed t t.owner_cells.(s).(range) ~now in
    if l > !best_l then begin
      best := s;
      best_l := l
    end
  done;
  if !best < 0 then home_shard t range else !best

let shard_load t ~shard ~now =
  decayed t t.shard_cells.(0).(shard) ~now +. decayed t t.shard_cells.(1).(shard) ~now

(* max/mean decayed read+write load across shards; 1.0 is perfectly
   balanced, [n_shards] is one shard carrying everything, 0.0 means idle *)
let skew t ~now =
  let max_l = ref 0.0 and sum = ref 0.0 in
  for s = 0 to t.n_shards - 1 do
    let l = shard_load t ~shard:s ~now in
    if l > !max_l then max_l := l;
    sum := !sum +. l
  done;
  let mean = !sum /. float_of_int t.n_shards in
  if mean <= 0.0 then 0.0 else !max_l /. mean
