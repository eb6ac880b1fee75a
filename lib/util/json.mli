(** Minimal JSON printer, parser and document accessors.

    Every JSON document that [lib/], [bench/] and [bin/] write (metrics
    registries, Chrome trace events, timeline and heat exports, the
    [BENCH_*.json] files, the CLI's [--json] output) is built as a {!t} and
    printed by {!to_string}; [perfbench/] still has its own writer.
    {!parse} is the matching reader, used by tests to validate those
    documents round-trip and by tools that consume them. It is deliberately
    small: UTF-8 pass through, BMP [\u] escapes, no streaming. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in document order *)

exception Parse_error of string

val parse : string -> (t, string) result
(** Parse one complete JSON document; [Error] carries a message with the
    byte offset of the failure. *)

val parse_exn : string -> t
(** @raise Parse_error on malformed input. *)

(** {1 Accessors} — total, option-returning lookups for tests. *)

val member : string -> t -> t option
(** Object member by key; [None] on non-objects and missing keys. *)

val to_list : t -> t list option
val to_number : t -> float option

val string_member : string -> t -> string option
val number_member : string -> t -> float option

(** {1 Printer} *)

val to_string : t -> string
(** The document as text, with no trailing newline. Every string is
    escaped; non-finite numbers print as [null]; integral numbers below
    2{^53} print without a fraction, others in the fewest digits that
    parse back to the same float. A list or object stays on one line when
    it fits in 80 columns, and otherwise puts each element on its own
    line, indented by two spaces. *)

val int : int -> t
(** [Num] of an integer. *)

val fixed : int -> float -> t
(** [fixed d x] is [x] rounded to [d] decimals, the value
    [Printf.sprintf "%.*f" d x] shows. Non-finite [x] is kept (and prints
    as [null]). *)
