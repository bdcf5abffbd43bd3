(** A minimal JSON reader/writer for the serve wire protocol.

    The container has no JSON dependency, and the protocol needs very
    little: line-delimited objects of strings, numbers, booleans and flat
    nesting. This module covers exactly RFC 8259 syntax with two
    deliberate restrictions — integers outside OCaml's [int] range and
    [\uXXXX] surrogate pairs are out of scope (request ids and C source
    never need them; a lone [\uXXXX] escape is decoded as UTF-8).

    Printing is deterministic: object fields are emitted in the order
    given, floats through [%.12g], strings with the minimal escapes —
    the serve smoke leg byte-diffs normalized responses, so the printer
    must never have two spellings for one value. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact rendering (no whitespace), fields in given order. *)
val to_string : t -> string

(** Deepest array/object nesting {!of_string} accepts: 64. *)
val max_depth : int

(** Parse one JSON document; trailing garbage is an error, and so is
    nesting deeper than {!max_depth} (reported without reading past the
    offending bracket). *)
val of_string : string -> (t, string) result

(** [member name j] — field of an [Obj], [None] otherwise. *)
val member : string -> t -> t option

val to_str : t -> string option
val to_int : t -> int option
val to_float : t -> float option
