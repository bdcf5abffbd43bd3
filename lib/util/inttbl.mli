(** A hash table from [int] keys to [float] values, for the A* search's
    fingerprint tables: open addressing over flat arrays, so adding an
    entry allocates nothing but the occasional doubling, and the GC
    never scans the entries. Not thread-safe. *)

type t

val create : unit -> t
val length : t -> int
val mem : t -> int -> bool

(** [replace t k v] binds [k] to [v], replacing any binding. *)
val replace : t -> int -> float -> unit

(** [find t k ~default] — [k]'s value, or [default] when unbound. *)
val find : t -> int -> default:float -> float
