(** A fixed-size domain pool with an ordered [map] / [map_reduce] API.

    Each call builds a pool of worker domains over a shared work queue
    (an atomic cursor into the input array) and a result-slot array
    indexed by input position. Workers pull the next unclaimed index and
    write into their own slot, so the output list has the same order and
    content as [List.map f xs] regardless of scheduling.

    [~jobs:1] (or a singleton/empty input) runs [f] sequentially on the
    calling domain — no domain is spawned — and is therefore behaviourally
    identical to [List.map f xs].

    [f] must not touch mutable state shared with other tasks: every task
    runs concurrently with the others when more than one domain runs. An
    exception raised by any task poisons the work queue: no domain claims
    further tasks (those already in flight finish), and after all workers
    have stopped the lowest-index failure among the tasks that ran is
    re-raised (with its backtrace) on the calling domain. *)

(** [default_jobs ()] is [Domain.recommended_domain_count () - 1], at
    least 1 — leave one core to the spawning domain's own bookkeeping. *)
val default_jobs : unit -> int

(** [map ?jobs f xs] — [List.map f xs], computed on several domains:
    [min jobs (length xs) - 1] helper domains are spawned, [jobs]
    defaulting to {!default_jobs}. Values below 1 are clamped to 1. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [map_reduce ?jobs ~map ~init ~reduce xs] — parallel [map] followed by
    an in-order left fold on the calling domain, so the reduction sees
    results in input order and needs no synchronisation of its own. *)
val map_reduce :
  ?jobs:int -> map:('a -> 'b) -> init:'acc -> reduce:('acc -> 'b -> 'acc) -> 'a list -> 'acc
