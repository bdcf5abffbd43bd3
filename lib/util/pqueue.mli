(** Imperative min-priority queue (binary heap) of [int] values keyed by
    [float].

    Used as the frontier of both A* searches (paper Algorithms 1 and 2).
    Ties are broken by a sequence number (FIFO by default), which makes
    the searches deterministic and keeps them faithful to the paper's
    "queue" phrasing. Values are plain ints — the searches store an
    index into a table of their own, or a fingerprint — so the heap is
    three unboxed arrays the collector never scans, and neither a push
    nor a {!drop} allocates or pays a write barrier. *)

type t

(** An empty queue. *)
val create : unit -> t

val is_empty : t -> bool
val length : t -> int

(** [push q priority v] inserts [v] with the given priority; the
    tie-break sequence is drawn from the queue's internal counter. *)
val push : t -> float -> int -> unit

(** [push_seq q priority seq v] inserts [v] with a caller-supplied
    tie-break sequence and leaves the internal counter untouched. Lets a
    caller share one sequence numbering across several queues: the A*
    search keeps its frontier and the keys of its admission-suppressed
    children in two queues numbered from one counter, so comparing the
    two heads gives the pop order of a single queue holding both. Do not
    mix with {!push} on the same queue unless the caller guarantees the
    sequences stay unique. *)
val push_seq : t -> float -> int -> int -> unit

(** The minimum element's priority, tie-break sequence and value, read
    without removing it. Undefined (raises) on an empty queue — guard
    with {!is_empty}. *)
val top_prio : t -> float

val top_seq : t -> int
val top_value : t -> int

(** [precedes a b] — [a]'s head pops before [b]'s in one queue holding
    both: its (priority, sequence) key is the smaller. Two queues fed
    from one sequence counter pop like one queue by taking the head that
    precedes. Undefined (raises) when either queue is empty. *)
val precedes : t -> t -> bool

(** [drop q] removes the minimum element (the one the [top_*]
    accessors read). Raises [Invalid_argument] on an empty queue. *)
val drop : t -> unit
