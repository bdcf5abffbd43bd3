(** Method configurations: which search, which grammar, which penalties —
    the knobs behind every row of Tables 1–3 and Figures 9–12. *)

open Stagg_search

type search_kind = Top_down | Bottom_up

type oracle =
  | Oracle_llm  (** candidates come from the (mock) LLM only — the paper *)
  | Oracle_trace  (** candidates come from the trace oracle only — no LLM *)
  | Oracle_trace_llm  (** union: trace templates first, then LLM responses *)

let oracle_to_string = function
  | Oracle_llm -> "llm"
  | Oracle_trace -> "trace"
  | Oracle_trace_llm -> "trace+llm"

let oracle_of_string = function
  | "llm" -> Some Oracle_llm
  | "trace" -> Some Oracle_trace
  | "trace+llm" | "trace-llm" -> Some Oracle_trace_llm
  | _ -> None

type grammar_mode =
  | Refined  (** dimension-list-refined grammar, learned probabilities (STAGG) *)
  | Equal_probability  (** refined grammar, uniform probabilities *)
  | Llm_grammar  (** full TACO grammar, learned probabilities *)
  | Full_grammar  (** full TACO grammar, uniform probabilities *)

type t = {
  label : string;
  search : search_kind;
  grammar : grammar_mode;
  penalties : Penalty.criterion list;
  budget : Astar.budget;
  max_depth : int;  (** top-down depth limit (§5.1) *)
  dedup : Astar.dedup;  (** frontier/seen dedup scheme (fingerprints by default) *)
  verify : bool;  (** bounded verification of validated candidates (§7) *)
  analysis : bool;
      (** static liftability analysis: fail fast on unliftable kernels and
          prune provably-doomed templates from the search. Solved/attempt
          outcomes are byte-identical either way (only expansions/time
          drop); [false] reproduces the pre-analysis behaviour for
          differential testing. *)
  prune_mode : Astar.prune_mode;
      (** how the analysis prune absorbs doomed children when [analysis]
          is on: [Prune_replay] enqueues tree-less replay items,
          [Prune_admission] (default) never enqueues them and charges
          their budget ticks through the admission ledger. Irrelevant
          when [analysis = false]. *)
  batched_validate : bool;
      (** template-level compilation in the validator: compile each popped
          template once and [rebind] per substitution (default). Solutions,
          counts and memo keys are byte-identical either way; [false] forces
          the per-candidate instantiate + compile path for the on/off
          differential. *)
  search_domains : int;
      (** always [1]: the searches run on the calling domain. Kept only
          because the lifting benchmark passes it on as
          [Astar.search_*]'s [?domains], which accepts nothing else. *)
  seed : int;  (** drives the mock LLM and example generation *)
  oracle : oracle;
      (** where candidate templates come from ({!Oracle_llm} by default).
          Orthogonal to every other knob: with [Oracle_llm] the pipeline
          is byte-identical to a build without the trace oracle. *)
}

(* The attempt/expansion caps are the binding limits: they are
   deterministic, so solve/fail outcomes do not flip with machine load.
   The wall-clock limit is a backstop (the paper used 60 minutes). *)
let default_budget = { Astar.max_attempts = 60_000; max_expansions = 300_000; timeout_s = 10. }

let base search grammar penalties label =
  {
    label;
    search;
    grammar;
    penalties;
    budget = default_budget;
    max_depth = 6;
    dedup = Astar.Fingerprint;
    verify = true;
    analysis = true;
    prune_mode = Astar.Prune_admission;
    batched_validate = true;
    search_domains = 1;
    seed = 20250604;
    oracle = Oracle_llm;
  }

(** The same method without the static-analysis layer (the [--no-analysis]
    differential mode); the label is unchanged so sweep outputs diff
    cleanly against analysis-on runs. *)
let without_analysis m = { m with analysis = false }

(** The same method with the given doomed-child absorption mode; label
    unchanged so sweep outputs diff cleanly across modes. *)
let with_prune_mode m prune_mode = { m with prune_mode }

(** The same method with batched (template-level) validation forced on or
    off; label unchanged so the [--batched-validate off] differential
    diffs cleanly against default runs. *)
let with_batched_validate m batched_validate = { m with batched_validate }

(** The same method drawing candidates from the given oracle; label
    unchanged, for differential runs ([--oracle llm] must diff cleanly
    against a default run). *)
let with_oracle m oracle = { m with oracle }

let stagg_td = base Top_down Refined Penalty.all_topdown "STAGG^TD"
let stagg_bu = base Bottom_up Refined Penalty.all_bottomup "STAGG^BU"

(* The trace-oracle method rows: STAGG^TD with candidates extracted from
   the kernel's own execution trace — alone, and unioned with the LLM. *)
let td_trace = { stagg_td with label = "Trace"; oracle = Oracle_trace }
let td_trace_llm = { stagg_td with label = "Trace+LLM"; oracle = Oracle_trace_llm }

(* Table 2: penalty ablations *)
let drop_penalty m (c : Penalty.criterion) =
  {
    m with
    label = Printf.sprintf "%s.Drop(%s)" m.label (Penalty.criterion_to_string c);
    penalties = List.filter (fun x -> x <> c) m.penalties;
  }

let drop_all_penalties m suffix = { m with label = m.label ^ ".Drop(" ^ suffix ^ ")"; penalties = [] }

(* Table 3: grammar ablations *)
let with_grammar m g suffix = { m with label = m.label ^ "." ^ suffix; grammar = g }

let td_equal_probability = with_grammar stagg_td Equal_probability "EqualProbability"
let td_llm_grammar = with_grammar stagg_td Llm_grammar "LLMGrammar"
let td_full_grammar = with_grammar stagg_td Full_grammar "FullGrammar"
let bu_equal_probability = with_grammar stagg_bu Equal_probability "EqualProbability"
let bu_llm_grammar = with_grammar stagg_bu Llm_grammar "LLMGrammar"
let bu_full_grammar = with_grammar stagg_bu Full_grammar "FullGrammar"
