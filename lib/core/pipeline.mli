(** The end-to-end STAGG pipeline (paper Fig. 1).

    ① query the LLM for candidate translations → ② templatize and learn a
    probabilistic grammar of templates (refined by the predicted dimension
    list, LHS dimension from static analysis) → ③ search the template
    space with weighted A* (top-down or bottom-up) → validate complete
    templates against I/O examples → ④ bounded verification of the
    surviving instantiation. *)

(** Intermediate artifacts, exposed for the CLI, the examples and the
    tests. *)
type prepared = {
  candidates : Stagg_taco.Ast.program list;  (** parsed LLM candidates *)
  templates : Stagg_taco.Ast.program list;  (** templatized candidates *)
  dim_list : int list;  (** predicted L, LHS overridden by static analysis *)
  pcfg : Stagg_grammar.Pcfg.t;
  penalty_ctx : Stagg_search.Penalty.ctx;
}

(** A lifting query: everything the pipeline needs about one legacy
    program. Suite benchmarks are one source of queries ({!query_of_bench});
    arbitrary C files with a signature spec and a recorded LLM transcript
    are another (the CLI's [lift-file]). *)
type query = {
  qname : string;
  func : Stagg_minic.Ast.func;
  signature : Stagg_minic.Signature.t;
  c_source : string;
  client : (module Stagg_oracle.Llm_client.S);
  oracle : Method_.oracle;
      (** candidate source for stage ① ({!Method_.Oracle_llm}: the paper's
          LLM-only pipeline; [Oracle_trace]: {!Stagg_oracle.Trace} only —
          the client is never consulted; [Oracle_trace_llm]: union, trace
          templates first). Baked into the query, and hence into its
          {!prefix}, so the method passed to {!lift_prefixed} need not
          repeat it. *)
}

(** [llm_client ~seed b] — a suite benchmark's mock LLM: one
    deterministic response stream per (seed, benchmark), shared by every
    method of a campaign and by the LLM-only baseline. A benchmark
    without a ground truth gets a client that answers nothing. *)
val llm_client : seed:int -> Stagg_benchsuite.Bench.t -> (module Stagg_oracle.Llm_client.S)

(** [query_of_bench m b] packages a suite benchmark with its mock LLM
    ({!llm_client} at [m.seed]). *)
val query_of_bench : Method_.t -> Stagg_benchsuite.Bench.t -> query

(** The method-independent prefix of preparation: parsed LLM candidates,
    templatized candidates, predicted dimension list, and the candidate
    statistics (operators, tensor counts, ranks, index counts) that the
    per-method grammar construction consumes. Depends only on the
    (seed, benchmark) pair baked into the query's client, so a campaign
    computes it once per benchmark and reuses it across every method
    sweep. *)
type prefix

(** [prefix_of_query q] runs stage ① and the method-independent half of
    stage ② — it consumes the query's LLM client (unless
    [q.oracle = Oracle_trace]) and, per [q.oracle], the trace oracle.
    [Error reason] when no oracle yields a usable candidate; under
    [Oracle_trace] the reason is the tracer's structured refusal, and
    under [Oracle_trace_llm] the reason names both sources and ends with
    that refusal, if the tracer refused. *)
val prefix_of_query : query -> (prefix, string) result

(** [prepared_of_prefix m p] finishes stage ② for one method: grammar
    generation, probability learning, penalty context. Cheap relative to
    {!prefix_of_query}. *)
val prepared_of_prefix : Method_.t -> prefix -> prepared

(** [prepare_query m q] runs stages ①–② and builds the grammar that stage
    ③ will search — {!prefix_of_query} composed with
    {!prepared_of_prefix}. [Error reason] when the LLM yields no usable
    candidate. *)
val prepare_query : Method_.t -> query -> (prepared, string) result

(** [prepare m bench] — {!prepare_query} on a suite benchmark. *)
val prepare : Method_.t -> Stagg_benchsuite.Bench.t -> (prepared, string) result

(** The analysis-guided rule-doom table for one prepared method, or
    [None] when the method disables the analysis. [consts] is the
    kernel's literal-constant pool ({!Stagg_minic.Ast.constants}): an
    empty pool dooms every [Const] rule. Exposed for the CLI's [analyze]
    command; {!lift} applies it internally. *)
val prune_of :
  Method_.t -> query -> consts:'a list -> prepared -> Stagg_grammar.Prune.t option

(** [lift m q] — the whole pipeline on an arbitrary query; never raises.

    Candidates are accepted through {!Accept.validator}. The result's
    [time_s] is the whole lift's wall time: the prefix stage
    ({!prefix_of_query}: the oracle, templatization and dimension
    prediction) plus stages ③–④. [memo_scope] is ignored: kept only
    because liftbench passes it; goes with ROADMAP item 1. *)
val lift : ?memo_scope:string -> Method_.t -> query -> Result_.t

(** [lift_prefixed m q prefix] — stages ③–④ on a precomputed prefix
    (see {!prefix_of_query}); the query's client is not consulted.
    [lift m q] gives the result of [lift_prefixed m q (prefix_of_query q)]
    except for [time_s]: here it covers only the per-method stages, from
    grammar construction on, since the §8 campaign computes a prefix once
    and shares it across every method sweep. [memo_scope] is ignored, as
    on {!lift}. *)
val lift_prefixed :
  ?memo_scope:string -> Method_.t -> query -> (prefix, string) result -> Result_.t

(** [run m bench] — the whole pipeline; never raises. *)
val run : Method_.t -> Stagg_benchsuite.Bench.t -> Result_.t

(** [run_suite ?jobs m benches] — [run] over a list; the output is
    ordered and bit-identical to the sequential run for any [jobs]
    (modulo [time_s]). [jobs] defaults to
    {!Stagg_util.Pool.default_jobs}; [~jobs:1] runs sequentially on the
    calling domain. *)
val run_suite : ?jobs:int -> Method_.t -> Stagg_benchsuite.Bench.t list -> Result_.t list
