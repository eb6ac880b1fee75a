module Int = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

module Str = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Probe = Hashtbl.Make (struct
  type t = int

  let equal = Stdlib.Int.equal
  let hash h = h land max_int
end)
