(* The event queue is one inline 4-ary min-heap over three parallel
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

   Cancellation is lazy. [ids] holds, by slot, the sequence number of
   the live event in that slot, or 0 once it is cancelled (or the slot is
   free). A cancelled event stays in the heap where it is, with its
   closure dropped, until it reaches the root, where it is discarded
   without firing and without moving the clock. A timer handle names the
   slot and the sequence number, so a handle whose event has fired or
   been cancelled, or whose slot now holds another event, matches nothing.
   The sifts never touch [ids]: cancelling costs ordinary events nothing
   but a check of the dead count at each step. Once dead entries
   outnumber live ones the heap is rebuilt without them, so the heap
   never holds more than twice the live events. (time, seq) is a strict
   total order, so neither the rebuild nor the heap's arity can change the
   firing order: any heap pops the same least entry. *)

module Heap = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable slots : int array;  (** heap position -> slot in [actions] *)
    mutable actions : (unit -> unit) array;  (** by slot *)
    mutable ids : int array;  (** by slot: the live event's seq, or 0 *)
    mutable free : int array;  (** a stack of the unused slots *)
    mutable n_free : int;
    mutable size : int;  (** entries in the heap, cancelled ones included *)
    mutable dead : int;  (** cancelled entries still in the heap *)
  }

  let noop () = ()

  let create () =
    {
      times = [||];
      seqs = [||];
      slots = [||];
      actions = [||];
      ids = [||];
      free = [||];
      n_free = 0;
      size = 0;
      dead = 0;
    }

  (* every slot is in use when the heap is full, so the free list is empty
     and the new slots [cap .. ncap - 1] all go onto it *)
  let grow h =
    let cap = Array.length h.seqs in
    if h.size = cap then begin
      let ncap = if cap = 0 then 64 else cap * 2 in
      let nt = Array.make ncap 0.0
      and ns = Array.make ncap 0
      and nsl = Array.make ncap 0
      and na = Array.make ncap noop
      and ni = Array.make ncap 0 in
      Array.blit h.times 0 nt 0 h.size;
      Array.blit h.seqs 0 ns 0 h.size;
      Array.blit h.slots 0 nsl 0 h.size;
      Array.blit h.actions 0 na 0 cap;
      Array.blit h.ids 0 ni 0 cap;
      h.times <- nt;
      h.seqs <- ns;
      h.slots <- nsl;
      h.actions <- na;
      h.ids <- ni;
      h.free <- Array.init ncap (fun i -> ncap - 1 - i);
      h.n_free <- ncap - cap
    end

  (* Hole-based sifts: the moving element is held aside while parents (or
     children) shift into the hole, and written once at its final slot.
     The heap is 4-ary: the children of position [i] are [4i + 1 .. 4i + 4]
     and its parent is [(i - 1) / 4], so a heap of a few hundred events is
     four or five levels deep instead of eight or nine, and a node's
     children are adjacent in each array. The sifts read and write only
     positions below [size] (or [n]), which never exceeds the arrays'
     length, so they skip the bounds checks. [push] is inlined into the
     engine's scheduling functions, so a time reaches the heap unboxed. *)
  let[@inline] push h time seq action =
    grow h;
    h.n_free <- h.n_free - 1;
    let slot = h.free.(h.n_free) in
    h.actions.(slot) <- action;
    h.ids.(slot) <- seq;
    let times = h.times and seqs = h.seqs and slots = h.slots in
    let i = ref h.size in
    h.size <- h.size + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) lsr 2 in
      let pt = Array.unsafe_get times p in
      if time < pt || (time = pt && seq < Array.unsafe_get seqs p) then begin
        Array.unsafe_set times !i pt;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
        Array.unsafe_set slots !i (Array.unsafe_get slots p);
        i := p
      end
      else continue := false
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i slot;
    slot

  (* Move the entry at position [src] into the hole at [i] of a heap of
     [n] entries whose subtrees below [i] are heaps. The entry is named by
     its position, not passed by value, so its time is never boxed. *)
  let sift_down h i ~src n =
    let times = h.times and seqs = h.seqs and slots = h.slots in
    let time = Array.unsafe_get times src
    and seq = Array.unsafe_get seqs src
    and slot = Array.unsafe_get slots src in
    let i = ref i in
    let continue = ref true in
    while !continue do
      let first = (4 * !i) + 1 in
      if first >= n then continue := false
      else begin
        (* the least of the (up to four) children *)
        let c = ref first and ct = ref (Array.unsafe_get times first) in
        let last = if first + 3 < n then first + 3 else n - 1 in
        for k = first + 1 to last do
          let kt = Array.unsafe_get times k in
          if kt < !ct || (kt = !ct && Array.unsafe_get seqs k < Array.unsafe_get seqs !c)
          then begin
            c := k;
            ct := kt
          end
        done;
        let c = !c and ct = !ct in
        if ct < time || (ct = time && Array.unsafe_get seqs c < seq) then begin
          Array.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i slot

  let release h slot =
    (* a fired or cancelled closure must not stay reachable *)
    h.actions.(slot) <- noop;
    h.ids.(slot) <- 0;
    h.free.(h.n_free) <- slot;
    h.n_free <- h.n_free + 1

  (* Remove the root and return its action; the root's time is read by the
     caller beforehand. *)
  let pop h =
    let root = h.slots.(0) in
    let action = h.actions.(root) in
    release h root;
    let n = h.size - 1 in
    h.size <- n;
    if n > 0 then sift_down h 0 ~src:n n;
    action

  (* Discard cancelled entries from the root down to the first live one. *)
  let drop_dead h =
    while h.size > 0 && h.ids.(h.slots.(0)) = 0 do
      let (_ : unit -> unit) = pop h in
      h.dead <- h.dead - 1
    done

  (* Keep the live entries, in place, and re-heapify them bottom-up. *)
  let rebuild h =
    let times = h.times and seqs = h.seqs and slots = h.slots in
    let n = ref 0 in
    for i = 0 to h.size - 1 do
      let slot = slots.(i) in
      if h.ids.(slot) = 0 then release h slot
      else begin
        times.(!n) <- times.(i);
        seqs.(!n) <- seqs.(i);
        slots.(!n) <- slot;
        incr n
      end
    done;
    let n = !n in
    h.size <- n;
    h.dead <- 0;
    for i = ((n + 2) / 4) - 1 downto 0 do
      sift_down h i ~src:i n
    done

  let cancel h ~slot ~seq =
    if h.ids.(slot) = seq then begin
      h.ids.(slot) <- 0;
      h.actions.(slot) <- noop;
      h.dead <- h.dead + 1;
      if 2 * h.dead > h.size then rebuild h
    end
end

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable processed : int;
  mutable max_pending : int;
  heap : Heap.t;
  rng : Weaver_util.Xrand.t;
}

type timer = { slot : int; seq : int }

let create ?(seed = 1) () =
  {
    clock = 0.0;
    seq = 0;
    processed = 0;
    max_pending = 0;
    heap = Heap.create ();
    rng = Weaver_util.Xrand.create ~seed ();
  }

let now t = t.clock
let rng t = t.rng
let pending t = t.heap.Heap.size - t.heap.Heap.dead

(* Queue [action] at [time] (clamped to now); returns its slot. A time
   past the clock is [Float.max]'s answer without its sign-bit calls. *)
let[@inline] push t ~time action =
  let time = if time > t.clock then time else Float.max time t.clock in
  t.seq <- t.seq + 1;
  let slot = Heap.push t.heap time t.seq action in
  let n = pending t in
  if n > t.max_pending then t.max_pending <- n;
  slot

let schedule_at t ~time action = ignore (push t ~time action)

let schedule t ~delay action =
  let delay = Float.max 0.0 delay in
  schedule_at t ~time:(t.clock +. delay) action

let timeout t ~delay action =
  let slot = push t ~time:(t.clock +. Float.max 0.0 delay) action in
  { slot; seq = t.seq }

let cancel t { slot; seq } = Heap.cancel t.heap ~slot ~seq

let every t ~period f =
  (* an [assert] here would vanish under -noassert and a non-positive
     period would then spin a zero-delay event loop forever *)
  if not (period > 0.0) then invalid_arg "Engine.every: period must be > 0";
  let rec tick () = if f () then schedule t ~delay:period tick in
  schedule t ~delay:period tick

let step t =
  let h = t.heap in
  if h.Heap.dead > 0 then Heap.drop_dead h;
  if h.Heap.size = 0 then false
  else begin
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
      let h = t.heap in
      let continue = ref true in
      while !continue do
        if h.Heap.dead > 0 then Heap.drop_dead h;
        if h.Heap.size > 0 && h.Heap.times.(0) <= limit then ignore (step t)
        else begin
          t.clock <- Float.max t.clock limit;
          continue := false
        end
      done

let max_pending t = t.max_pending
let events_processed t = t.processed
