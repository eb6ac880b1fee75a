(** A table keyed by dense int handles ({!Intern} handles): an array
    indexed by handle, [None] marking an absent key, with one flag bit per
    key and counts of bound and flagged keys.

    A probe is a bounds check and an array read, with no hashing and no
    allocation. The arrays grow to the largest handle ever bound, so a
    table costs a word and a byte per handle below that, bound or not.
    {!fold} visits the bound keys in ascending handle order, in time
    proportional to that span. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
(** Bound keys. *)

val flagged : 'a t -> int
(** Bound keys whose flag is set. *)

val mem : 'a t -> int -> bool
val find_opt : 'a t -> int -> 'a option

val is_flagged : 'a t -> int -> bool
(** [false] for an absent key. *)

val replace : 'a t -> int -> 'a -> flag:bool -> unit
(** Bind the key to the value with the given flag. *)

val update : 'a t -> int -> 'a -> unit
(** Rebind a bound key, keeping its flag.
    @raise Invalid_argument on an absent key. *)

val remove : 'a t -> int -> unit
(** Unbind the key (and clear its flag); a no-op when absent. *)

val reset : 'a t -> unit
(** Unbind every key, keeping the arrays. *)

val fold : (int -> 'a -> flag:bool -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Over the bound keys in ascending order. *)
