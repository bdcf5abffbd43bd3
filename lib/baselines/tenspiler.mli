(** Reimplementation of the Tenspiler baseline [Qiu et al., ECOOP 2024]:
    verified lifting driven by a fixed library of solution templates.

    Tenspiler searches a hand-curated space of tensor-operation patterns
    (its "user-provided templates", which the paper cites as the kind of
    hard-wired heuristic STAGG avoids) and proves the winner equivalent —
    it has a verifier, so like STAGG its answers are verified. Coverage is
    bounded by the library: kernels with literal constants or shapes
    outside the pattern set are unsupported. Following the paper, it is
    only run on the 67 real-world benchmarks. *)

val label : string

(** The template library, as TACO template source strings. Exposed so the
    tests can check each entry parses and stays inside the template
    space. *)
val library : string list

val run : seed:int -> Stagg_benchsuite.Bench.t -> Stagg.Result_.t

(** [jobs] defaults to {!Stagg_util.Pool.default_jobs}; output order and
    content are independent of it (modulo [time_s]). *)
val run_suite :
  ?jobs:int ->
  seed:int ->
  Stagg_benchsuite.Bench.t list ->
  Stagg.Result_.t list
