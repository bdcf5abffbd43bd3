(** A bounded least-recently-used cache: a hash table over an intrusive
    doubly-linked recency list. O(1) [find] (which promotes the hit to
    most-recent), O(1) [add] (which evicts the least-recent binding once
    the capacity is reached and returns it to the caller, so eviction is
    observable — counters, resource release).

    NOT thread-safe: callers either confine an instance to one domain
    (the validator's per-domain compiled-template cache) or guard it with
    their own lock (the serve result cache holds its mutex across every
    cache operation). *)

type ('k, 'v) t

(** [create ~cap] — an empty cache evicting beyond [cap] bindings
    ([cap >= 1]; values below are clamped to 1). *)
val create : cap:int -> ('k, 'v) t

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

(** [find t k] — the bound value, promoted to most-recently-used. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [mem t k] — membership without promotion (an advisory peek). *)
val mem : ('k, 'v) t -> 'k -> bool

(** [add t k v] binds [k] to [v] as the most-recently-used entry,
    replacing any existing binding (a replacement never evicts). When the
    insertion pushes the cache past capacity the least-recently-used
    binding is removed and returned. *)
val add : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option

(** [remove t k] drops the binding if present. *)
val remove : ('k, 'v) t -> 'k -> unit
