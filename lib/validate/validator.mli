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
    same substitutions in the same order, so their results and counts are
    observably identical (the [@smoke] differential and a QCheck suite
    enforce this). Examples are checked cheapest-first with an early exit
    at the first mismatching cell. Every substitution is checked: no
    verdict is remembered between calls. *)

open Stagg_util

type solution = {
  template : Stagg_taco.Ast.program;
  subst : Stagg_template.Subst.t;
  concrete : Stagg_taco.Ast.program;  (** over the C parameter names *)
}

(** A prepared example set — per-example tensor environments (assoc list
    and slot-resolved table), expected outputs and cheapest-first ordering
    — computed once per (signature, examples) and reused across every
    template and candidate checked against those examples. *)
type checker

val prepare :
  signature:Stagg_minic.Signature.t -> examples:Examples.example list -> checker

(** [validate ~signature ~examples ~consts ?verify ?batched template] —
    first substitution (if any) whose instantiation reproduces every
    example and passes [verify]. Convenience wrapper over
    {!validate_counted} that prepares the examples itself; callers
    validating many templates against the same examples should [prepare]
    once instead.

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
  ?batched:bool ->
  Stagg_taco.Ast.program ->
  solution option

(** As {!validate}, over a prepared [checker], and also returns how many
    instantiations this call executed.

    [memo_key] is ignored: kept only because liftbench passes it; goes
    with ROADMAP item 1. *)
val validate_counted :
  signature:Stagg_minic.Signature.t ->
  checker:checker ->
  consts:Rat.t list ->
  ?verify:(Stagg_taco.Ast.program -> bool) ->
  ?memo_key:string ->
  ?batched:bool ->
  Stagg_taco.Ast.program ->
  solution option * int

(** A no-op: kept only because liftbench calls it; goes with ROADMAP
    item 1. *)
val clear_memo : unit -> unit

(** [check ck p] — does the {e concrete} TACO program [p] (over the C
    parameter names) reproduce every example? *)
val check : checker -> Stagg_taco.Ast.program -> bool

(** [check_concrete ~signature ~examples p] = [check (prepare ...) p]. *)
val check_concrete :
  signature:Stagg_minic.Signature.t ->
  examples:Examples.example list ->
  Stagg_taco.Ast.program ->
  bool

(** Validator telemetry: process-wide counters over the batched path's
    per-domain LRU compiled-template cache. *)
type stats = {
  memo_hits : int;
      (** always 0: kept only because liftbench reads it; goes with
          ROADMAP item 1 *)
  memo_misses : int;
      (** always 0: kept only because liftbench reads it; goes with
          ROADMAP item 1 *)
  template_compiles : int;
  template_cache_hits : int;
  template_cache_evictions : int;
  template_overflows : int;
      (** templates whose LHS rank exceeds {!Stagg_taco.Shape.max_rank}:
          validated on the per-candidate fallback path *)
}

(** Counter totals since process start. They only grow, so two
    snapshots subtract to the traffic in between (process-wide: other
    domains' validation counts too). *)
val stats : unit -> stats
