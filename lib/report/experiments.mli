(** Experiment drivers regenerating every table and figure of paper §8.

    [run_all] executes every method/configuration over the suite once;
    the [table*] / [fig*] renderers then slice that single set of runs,
    exactly as the paper's tables slice one evaluation campaign. *)

open Stagg

(** One entry of the per-sweep measurement log. *)
type sweep = {
  sw_label : string;
  sw_wall_s : float;
  sw_heap_words : int;  (** major-heap words at sweep end (compacted start) *)
  sw_instantiations : int;  (** validator instantiations summed over the sweep *)
  sw_validate_s : float;  (** in-validator seconds summed over the sweep *)
}

type runs = {
  seed : int;
  td : Result_.t list;  (** STAGG^TD on all 77 *)
  bu : Result_.t list;
  llm : Result_.t list;
  c2taco : Result_.t list;
  c2taco_noh : Result_.t list;
  tenspiler : Result_.t list;  (** 67 real-world only, as in the paper *)
  td_drop_all : Result_.t list;
  td_drops : (Stagg_search.Penalty.criterion * Result_.t list) list;
  bu_drop_all : Result_.t list;
  bu_drops : (Stagg_search.Penalty.criterion * Result_.t list) list;
  td_equal : Result_.t list;
  td_llm_grammar : Result_.t list;
  td_full_grammar : Result_.t list;
  bu_equal : Result_.t list;
  bu_llm_grammar : Result_.t list;
  bu_full_grammar : Result_.t list;
  trace : Result_.t list;
      (** the [Trace] method row: STAGG^TD drawing candidates from the
          trace oracle ({!Stagg_oracle.Trace}) with no LLM in the loop.
          Swept LAST (with [trace_llm]) so the cross-sweep validation
          memo leaves every pre-existing row byte-identical. *)
  trace_llm : Result_.t list;  (** the [Trace+LLM] union-oracle row *)
  sweeps : sweep list;  (** per-sweep measurement log, in execution order *)
}

(** [run_all ()] — the full campaign (≈20 suite sweeps). [progress] is
    called with a short message as each sweep finishes.

    The method-independent preparation (mock-LLM query, candidate
    parsing, templatization, dimension prediction) is computed once per
    benchmark and shared across every sweep; individual (method,
    benchmark) runs are dispatched onto a domain pool of [jobs] workers
    ({!Stagg_util.Pool}). Results are deterministic and independent of
    [jobs] (modulo the [time_s] fields); [~jobs:1] runs everything on
    the calling domain. [jobs] defaults to
    {!Stagg_util.Pool.default_jobs}.

    [analysis] (default [true]) toggles the static liftability analysis
    ({!Stagg_minic.Facts} fail-fast + {!Stagg_grammar.Prune} search
    pruning) on the STAGG methods; solved/attempt outcomes are
    byte-identical either way — only expansions and time drop — so
    [~analysis:false] is the differential baseline behind the bench
    driver's [--no-analysis] flag. [prune_mode] (default
    [Prune_admission]) picks how the prune absorbs doomed children
    ({!Stagg_search.Astar.prune_mode}); it too leaves solved/attempt
    outcomes byte-identical. [batched_validate] (default [true]) selects
    template-level compilation in the validator — a third knob with the
    same contract: solved/attempt/instantiation outcomes are
    byte-identical on and off (the [@smoke] differential enforces it). *)
val run_all :
  ?seed:int ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?analysis:bool ->
  ?prune_mode:Stagg_search.Astar.prune_mode ->
  ?batched_validate:bool ->
  unit ->
  runs

(** Core methods only (Table 1 / Figs. 9–10), without the ablations. *)
val run_core :
  ?seed:int ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?analysis:bool ->
  ?prune_mode:Stagg_search.Astar.prune_mode ->
  ?batched_validate:bool ->
  unit ->
  runs

val table1 : runs -> string
val table2 : runs -> string
val table3 : runs -> string
val fig9 : runs -> string
val fig10 : runs -> string
val fig11 : runs -> string
val fig12 : runs -> string

(** Machine-readable summary (one line per method row of each table) for
    EXPERIMENTS.md bookkeeping. *)
val summary : runs -> string

(** The (label, results) rows behind {!summary}, in summary order. *)
val summary_rows : runs -> (string * Result_.t list) list

(** Version of the JSON layouts emitted by this harness ({!json_summary}
    and the smoke summary in [bench/main.ml]). Bump when a field is
    added, removed, or changes meaning, so downstream consumers of the
    perf-trajectory files can dispatch instead of guessing. *)
val schema_version : int

(** [json_summary ~jobs ~wall_s runs] — the {!summary} data as a JSON
    document (per method: solved count, suite size, avg time and
    attempts over solved queries, total attempts/expansions/pruned/
    suppressed), the per-sweep wall/heap/instantiations-per-second log
    ([sweeps]), the cumulative validator counters
    ({!Stagg_validate.Validator.stats}: memo hits/misses/evictions,
    template-compilation cache traffic), plus the harness wall time and
    the [jobs] the campaign ran with. Written by [bench/main.exe --json
    FILE] so successive PRs can track the perf trajectory. *)
val json_summary : ?jobs:int -> wall_s:float -> runs -> string
