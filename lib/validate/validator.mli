(** The template validator (paper §6, Fig. 8).

    Given a complete template from the search, enumerates every sound
    substitution of the legacy program's arguments (and source constants)
    for the template's symbols and executes the resulting concrete TACO
    program on the I/O examples. The first instantiation that satisfies
    every example — and, when a [verify] hook is supplied, passes bounded
    verification (§7: on verification failure the validator keeps exploring
    substitutions) — is returned.

    Execution is staged ({!Stagg_taco.Compile}) and, by default,
    {e batched}: the whole template is compiled once (plan + closure tree,
    via a per-domain compiled-template cache shared across pops and
    sweeps), and each substitution is a [rebind] — slot retargeting plus a
    constant-cell write over shared allocation-free scratch — instead of an
    instantiate + compile. Batched and per-candidate validation test the
    same substitutions in the same order with the same memo keys, so their
    results, counts, and memo contents are observably identical (the
    [@smoke] differential and a QCheck suite enforce this). Examples are
    checked cheapest-first with an early exit at the first mismatching
    cell. *)

open Stagg_util

type solution = {
  template : Stagg_taco.Ast.program;
  subst : Stagg_template.Subst.t;
  concrete : Stagg_taco.Ast.program;  (** over the C parameter names *)
}

val pp_solution : Format.formatter -> solution -> unit

(** Number of instantiations executed by the last [validate] call on any
    domain (observability for sequential callers and tests; under a domain
    pool use {!validate_counted} for a race-free per-call count). *)
val last_instantiations : unit -> int

(** A prepared example set — per-example tensor environments (assoc list
    and slot-resolved table), expected outputs and cheapest-first ordering
    — computed once per (signature, examples) and reused across every
    template and candidate checked against those examples. *)
type checker

val prepare :
  signature:Stagg_minic.Signature.t -> examples:Examples.example list -> checker

(** [validate ~signature ~examples ~consts ?verify ?memo_key ?batched
    template] — first substitution (if any) whose instantiation reproduces
    every example and passes [verify]. Convenience wrapper over
    {!validate_counted} that prepares the examples itself; callers
    validating many templates against the same examples should [prepare]
    once instead.

    [memo_key] opts into the process-wide validation memo: example
    verdicts are cached under [(memo_key, printed concrete program)] and
    shared across the campaign's method sweeps (and worker domains). The
    key must determine the examples — the harness uses
    ["bench#example-seed"]. Verdicts are deterministic functions of the
    key, so memoized and recomputed runs are observably identical. The
    [verify] outcome is never memoized.

    [batched] (default [true]) selects template-level compilation +
    rebind; [false] forces the per-candidate instantiate + compile path.
    The two are observably identical. Production callers keep the
    default; [false] is the reference the tests compare against (the
    per-candidate arm is also the batched path's rank-overflow
    fallback). *)
val validate :
  signature:Stagg_minic.Signature.t ->
  examples:Examples.example list ->
  consts:Rat.t list ->
  ?verify:(Stagg_taco.Ast.program -> bool) ->
  ?memo_key:string ->
  ?batched:bool ->
  Stagg_taco.Ast.program ->
  solution option

(** As {!validate}, over a prepared [checker], and also returns how many
    instantiations this call executed (race-free under the domain pool,
    unlike {!last_instantiations}). *)
val validate_counted :
  signature:Stagg_minic.Signature.t ->
  checker:checker ->
  consts:Rat.t list ->
  ?verify:(Stagg_taco.Ast.program -> bool) ->
  ?memo_key:string ->
  ?batched:bool ->
  Stagg_taco.Ast.program ->
  solution option * int

(** Globally enable/disable the validation memo (default: enabled). The
    determinism test runs the suite both ways and compares. *)
val set_memo_enabled : bool -> unit

val clear_memo : unit -> unit
val memo_size : unit -> int

(** [check ck p] — does the {e concrete} TACO program [p] (over the C
    parameter names) reproduce every example? *)
val check : checker -> Stagg_taco.Ast.program -> bool

(** [check_concrete ~signature ~examples p] = [check (prepare ...) p]. *)
val check_concrete :
  signature:Stagg_minic.Signature.t ->
  examples:Examples.example list ->
  Stagg_taco.Ast.program ->
  bool

(** Validator telemetry: process-wide counters over the verdict memo
    (hits, misses, and entries evicted by generation rotation — the memo
    is bounded at ~500k entries but keeps admitting, unlike the old
    reject-on-full backstop) and the batched path's per-domain LRU
    compiled-template cache. *)
type stats = {
  memo_hits : int;
  memo_misses : int;
  memo_evictions : int;
  template_compiles : int;
  template_cache_hits : int;
  template_cache_evictions : int;
  template_overflows : int;
      (** templates whose LHS rank exceeds {!Stagg_taco.Shape.max_rank}:
          validated on the per-candidate fallback path *)
}

(** Counters since the last {!reset_stats} (process start if never
    reset). The underlying totals are monotonic; two [stats] snapshots
    subtract to an exact interval delta even while other domains keep
    validating — how the serve path meters per-request telemetry. *)
val stats : unit -> stats

(** Re-baseline {!stats} to zero. Safe to call concurrently with
    in-flight validation: implemented as baseline capture over monotonic
    counters, so increments are never lost (the previous implementation
    zeroed the counters and could drop racing increments). *)
val reset_stats : unit -> unit
