(** The acceptance path: the one place that decides whether a candidate
    counts, and the one constructor of a lift's {!Result_.t}.

    A candidate is accepted only after it reproduces I/O examples drawn
    from the requester's own kernel and, when the method verifies, passes
    bounded verification against that kernel. {!Pipeline}, the serve
    remap and the baselines all decide through this module, so they draw
    the same examples for the same (seed, query) and key the shared
    validation memo the same way: a memoized verdict recorded by one
    caller is only sound for another if both agree on the examples
    behind the key. *)

type t
(** One lift in progress: its start time and instantiation count. *)

(** [start ~bench ~method_label] reads the clock once; the final
    [time_s] is measured from here. *)
val start : bench:string -> method_label:string -> t

(** Seconds since {!start}. *)
val elapsed : t -> float

(** [checker ~seed ~qname ~func ~signature] draws the query's I/O examples
    from its example seed, a function of [seed] and [qname] only, and
    prepares them for checking. [Error] when the kernel cannot be run on
    generated inputs. *)
val checker :
  seed:int ->
  qname:string ->
  func:Stagg_minic.Ast.func ->
  signature:Stagg_minic.Signature.t ->
  (Stagg_validate.Validator.checker, string) result

(** [equivalent ~func ~signature p]: bounded verification proves [p]
    equivalent to [func] ([Not_equivalent] and [Inconclusive] reject). *)
val equivalent :
  func:Stagg_minic.Ast.func ->
  signature:Stagg_minic.Signature.t ->
  Stagg_taco.Ast.program ->
  bool

(** [validator t ~seed ~func ~signature ~consts ~verify] prepares the
    lift's checker (as {!checker}, with [qname] the lift's [bench]) and
    returns the template validator the search and the baselines call.
    Each call runs {!Stagg_validate.Validator.validate_counted} under the
    lift's validation memo key and adds its instantiations to the record;
    with [verify], each example-passing instantiation must also be
    {!equivalent}.

    [memo_scope] (default [""]) prefixes the memo key but does not enter
    the example seed: a scoped lift draws the same examples, and so
    reaches the same results, as an unscoped one, while sharing no
    memoized verdict with other scopes. *)
val validator :
  t ->
  ?memo_scope:string ->
  seed:int ->
  func:Stagg_minic.Ast.func ->
  signature:Stagg_minic.Signature.t ->
  consts:Stagg_util.Rat.t list ->
  verify:bool ->
  ?batched:bool ->
  unit ->
  (Stagg_taco.Ast.program -> Stagg_validate.Validator.solution option, string) result

(** [check t checker p] checks one concrete program against prepared
    examples; it counts as one instantiation. *)
val check : t -> Stagg_validate.Validator.checker -> Stagg_taco.Ast.program -> bool

(** [finish t ~attempts outcome] reads the clock for [time_s] and builds
    the lift's record: solved with [Ok solution], unsolved with
    [Error failure]. The search-only counts default to zero. *)
val finish :
  t ->
  ?expansions:int ->
  ?suppressed:int ->
  ?peak_frontier:int ->
  ?n_candidates:int ->
  ?traced:bool ->
  ?trace_templates:int ->
  ?warnings:string list ->
  attempts:int ->
  (Stagg_validate.Validator.solution, string) result ->
  Result_.t
