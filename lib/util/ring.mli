(** A growable FIFO of ints in one circular array: a push allocates
    nothing (except when the array doubles), so a long-lived queue costs
    the garbage collector no per-element cells to promote and scan. *)

type t

val create : unit -> t
val is_empty : t -> bool
val push : t -> int -> unit

val pop : t -> int
(** The oldest element. @raise Invalid_argument when empty. *)

val clear : t -> unit
