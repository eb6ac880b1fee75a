(* The event queue is two inline binary min-heaps, each over three parallel
   arrays rather than a heap of {time; seq; action} records: [times] is a
   flat float array (unboxed), [seqs] and [slots] are int arrays. An
   action is written once, into a slot of the heap's [actions] array
   taken from a free list, and stays there until it fires; the sifts move
   only the time, the sequence number and the slot index, so no sift
   level writes a pointer into a major-heap array. Scheduling an event
   allocates nothing beyond the caller's closure, and the (time, seq)
   comparison is two machine compares instead of a polymorphic [compare]
   through a closure. Events at equal time fire in scheduling order via
   the sequence number.

   The two tiers: an event due more than [horizon] after the current time
   goes to the far heap, every other event to the near heap. Long timers
   (client request timeouts, mostly cancelled in effect by the reply that
   beats them) pile up by the tens of thousands, and in one heap every pop
   of a near event would sift through all of their levels. [step] pops
   whichever root is smaller by (time, seq). Both roots are the minima of
   their tiers and (time, seq) is a strict total order (seqs are unique),
   so the smaller root is the global minimum: the firing order is exactly
   the one-heap order, whatever the split. Events never move between
   tiers. *)

module Heap = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable slots : int array;  (** heap position -> slot in [actions] *)
    mutable actions : (unit -> unit) array;  (** by slot *)
    mutable free : int array;  (** a stack of the unused slots *)
    mutable n_free : int;
    mutable size : int;
  }

  let noop () = ()

  let create () =
    { times = [||]; seqs = [||]; slots = [||]; actions = [||]; free = [||]; n_free = 0; size = 0 }

  (* every slot is in use when the heap is full, so the free list is empty
     and the new slots [cap .. ncap - 1] all go onto it *)
  let grow h =
    let cap = Array.length h.seqs in
    if h.size = cap then begin
      let ncap = if cap = 0 then 64 else cap * 2 in
      let nt = Array.make ncap 0.0
      and ns = Array.make ncap 0
      and nsl = Array.make ncap 0
      and na = Array.make ncap noop in
      Array.blit h.times 0 nt 0 h.size;
      Array.blit h.seqs 0 ns 0 h.size;
      Array.blit h.slots 0 nsl 0 h.size;
      Array.blit h.actions 0 na 0 cap;
      h.times <- nt;
      h.seqs <- ns;
      h.slots <- nsl;
      h.actions <- na;
      h.free <- Array.init ncap (fun i -> ncap - 1 - i);
      h.n_free <- ncap - cap
    end

  (* Hole-based sifts: the moving element is held aside while parents (or
     children) shift into the hole, and written once at its final slot. *)
  let push h time seq action =
    grow h;
    h.n_free <- h.n_free - 1;
    let slot = h.free.(h.n_free) in
    h.actions.(slot) <- action;
    let times = h.times and seqs = h.seqs and slots = h.slots in
    let i = ref h.size in
    h.size <- h.size + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      let pt = times.(p) in
      if time < pt || (time = pt && seq < seqs.(p)) then begin
        times.(!i) <- pt;
        seqs.(!i) <- seqs.(p);
        slots.(!i) <- slots.(p);
        i := p
      end
      else continue := false
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- slot

  (* Remove the root and return its action; the root's time is read by the
     caller beforehand. *)
  let pop h =
    let times = h.times and seqs = h.seqs and slots = h.slots in
    let root = slots.(0) in
    let action = h.actions.(root) in
    (* a fired closure must not stay reachable *)
    h.actions.(root) <- noop;
    h.free.(h.n_free) <- root;
    h.n_free <- h.n_free + 1;
    let n = h.size - 1 in
    h.size <- n;
    if n > 0 then begin
      let time = times.(n) and seq = seqs.(n) and last = slots.(n) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= n then continue := false
        else begin
          let r = l + 1 in
          let c =
            if r < n
               && (times.(r) < times.(l)
                  || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
            then r
            else l
          in
          let ct = times.(c) in
          if ct < time || (ct = time && seqs.(c) < seq) then begin
            times.(!i) <- ct;
            seqs.(!i) <- seqs.(c);
            slots.(!i) <- slots.(c);
            i := c
          end
          else continue := false
        end
      done;
      times.(!i) <- time;
      seqs.(!i) <- seq;
      slots.(!i) <- last
    end;
    action
end

(* Events due further ahead than this (virtual µs) go to the far tier. *)
let horizon = 100_000.0

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable processed : int;
  mutable max_pending : int;
  near : Heap.t;
  far : Heap.t;
  rng : Weaver_util.Xrand.t;
}

let create ?(seed = 1) () =
  {
    clock = 0.0;
    seq = 0;
    processed = 0;
    max_pending = 0;
    near = Heap.create ();
    far = Heap.create ();
    rng = Weaver_util.Xrand.create ~seed ();
  }

let now t = t.clock
let rng t = t.rng
let pending t = t.near.Heap.size + t.far.Heap.size

let schedule_at t ~time action =
  let time = Float.max time t.clock in
  t.seq <- t.seq + 1;
  Heap.push (if time -. t.clock > horizon then t.far else t.near) time t.seq action;
  let n = pending t in
  if n > t.max_pending then t.max_pending <- n

let schedule t ~delay action =
  let delay = Float.max 0.0 delay in
  schedule_at t ~time:(t.clock +. delay) action

let every t ~period f =
  (* an [assert] here would vanish under -noassert and a non-positive
     period would then spin a zero-delay event loop forever *)
  if not (period > 0.0) then invalid_arg "Engine.every: period must be > 0";
  let rec tick () = if f () then schedule t ~delay:period tick in
  schedule t ~delay:period tick

(* The tier holding the earliest pending event; requires [pending t > 0]. *)
let[@inline] first t =
  let near = t.near and far = t.far in
  if far.Heap.size = 0 then near
  else if near.Heap.size = 0 then far
  else
    let nt = near.Heap.times.(0) and ft = far.Heap.times.(0) in
    if ft < nt || (ft = nt && far.Heap.seqs.(0) < near.Heap.seqs.(0)) then far
    else near

let step t =
  if pending t = 0 then false
  else begin
    let h = first t in
    t.clock <- h.Heap.times.(0);
    let action = Heap.pop h in
    t.processed <- t.processed + 1;
    action ();
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      let continue = ref true in
      while !continue do
        if pending t > 0 && (first t).Heap.times.(0) <= limit then ignore (step t)
        else begin
          t.clock <- Float.max t.clock limit;
          continue := false
        end
      done

let max_pending t = t.max_pending
let events_processed t = t.processed
