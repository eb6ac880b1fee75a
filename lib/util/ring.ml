type t = { mutable buf : int array; mutable head : int; mutable len : int }

let create () = { buf = Array.make 16 0; head = 0; len = 0 }
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) 0 in
  let first = min t.len (cap - t.head) in
  Array.blit t.buf t.head buf 0 first;
  Array.blit t.buf 0 buf first (t.len - first);
  t.buf <- buf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  let cap = Array.length t.buf in
  let i = t.head + t.len in
  t.buf.(if i >= cap then i - cap else i) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let x = t.buf.(t.head) in
  let h = t.head + 1 in
  t.head <- (if h = Array.length t.buf then 0 else h);
  t.len <- t.len - 1;
  x

let clear t =
  t.head <- 0;
  t.len <- 0
