(** Hash tables specialised to int and string keys.

    [Int] and [Str] keep [hash = Hashtbl.hash], the function the polymorphic
    [Hashtbl] uses. Given the same sequence of insertions, replacements
    and removals, a specialised table therefore has the same bucket
    layout as a polymorphic one, and [fold], [iter] and
    [filter_map_inplace] visit bindings in the same order. Only the key
    comparison changes: an inlined [Int.equal] or [String.equal] replaces
    the runtime's generic [compare]. *)

module Int : Hashtbl.S with type key = int
module Str : Hashtbl.S with type key = string

module Probe : Hashtbl.S with type key = int
(** Int keys hashed as themselves, for tables whose iteration order
    decides nothing (they are only probed, or every visit is independent
    of the others): no call into the runtime's generic hash. Dense keys
    such as vertex handles and request ids spread over the buckets with
    no mixing. *)
