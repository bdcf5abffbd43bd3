(** Imperative min-priority queue (binary heap) keyed by [float].

    Used as the frontier of both A* searches (paper Algorithms 1 and 2).
    Ties are broken by a sequence number (FIFO by default), which makes
    the searches deterministic and keeps them faithful to the paper's
    "queue" phrasing. *)

type 'a t

(** [create ~dummy] — an empty queue. [dummy] is written into every slot
    not currently holding a live element (vacated by {!pop}, or allocated
    ahead by growth), so popped values become unreachable as soon as the
    caller drops them instead of lingering in the backing array. Pick a
    cheap constant of the element type (an immediate constructor, [0],
    [""], …). *)
val create : dummy:'a -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int

(** [push q priority v] inserts [v] with the given priority; the
    tie-break sequence is drawn from the queue's internal counter. *)
val push : 'a t -> float -> 'a -> unit

(** [push_seq q priority seq v] inserts [v] with a caller-supplied
    tie-break sequence and leaves the internal counter untouched. Lets a
    caller share one sequence numbering across several structures (the
    admission-mode A* numbers its frontier and its suppressed ledger from
    one counter so interleaving matches the baseline pop order). Do not
    mix with {!push} on the same queue unless the caller guarantees the
    sequences stay unique. *)
val push_seq : 'a t -> float -> int -> 'a -> unit

(** [pop q] removes and returns a minimum-priority element, with its
    priority. [None] on an empty queue. *)
val pop : 'a t -> (float * 'a) option

(** [peek q] returns a minimum element without removing it. *)
val peek : 'a t -> (float * 'a) option

(** The minimum element's priority / tie-break sequence, without
    allocating. Undefined (raises) on an empty queue — guard with
    {!is_empty}. *)
val top_prio : 'a t -> float

val top_seq : 'a t -> int

val clear : 'a t -> unit
