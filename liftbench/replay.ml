(* The traced lift: the stages [Pipeline.lift] runs, replayed call for
   call through the same public functions, with a span around each call
   and the layer counters read at the same boundaries. The replay must
   reach exactly the outcome of the untraced [Pipeline] run; the caller
   asserts that it does. *)

open Stagg_util
module Pipeline = Stagg.Pipeline
module Method_ = Stagg.Method_
module Astar = Stagg_search.Astar
module Validator = Stagg_validate.Validator
module Examples = Stagg_validate.Examples
module Bmc = Stagg_verify.Bmc

(* What a lift decided: every field the divergence check compares. *)
type outcome = {
  solved : bool;
  answer : string option;  (** the printed TACO solution *)
  attempts : int;
  expansions : int;
  instantiations : int;
}

let print_answer (s : Validator.solution) = Stagg_taco.Pretty.program_to_string s.concrete

let outcome_of_result (r : Stagg.Result_.t) =
  {
    solved = r.solved;
    answer = Option.map print_answer r.solution;
    attempts = r.attempts;
    expansions = r.expansions;
    instantiations = r.instantiations;
  }

let outcome_to_string o =
  Printf.sprintf "solved=%b attempts=%d expansions=%d instantiations=%d answer=%s" o.solved
    o.attempts o.expansions o.instantiations
    (Option.value o.answer ~default:"-")

let unsolved = { solved = false; answer = None; attempts = 0; expansions = 0; instantiations = 0 }

type counters = {
  mutable oracle_calls : int;
  mutable oracle_refusals : int;
  mutable oracle_candidates : int;
  mutable grammar_rules : int;
  mutable search_expansions : int;
  mutable search_suppressed : int;
  mutable search_attempts : int;
  mutable validate_calls : int;
  mutable validate_solutions : int;
  mutable validate_instantiations : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable template_compiles : int;
  mutable template_cache_hits : int;
  mutable verify_calls : int;
  mutable verify_equivalent : int;
}

let counters () =
  {
    oracle_calls = 0;
    oracle_refusals = 0;
    oracle_candidates = 0;
    grammar_rules = 0;
    search_expansions = 0;
    search_suppressed = 0;
    search_attempts = 0;
    validate_calls = 0;
    validate_solutions = 0;
    validate_instantiations = 0;
    memo_hits = 0;
    memo_misses = 0;
    template_compiles = 0;
    template_cache_hits = 0;
    verify_calls = 0;
    verify_equivalent = 0;
  }

let lift sp c ~lift ~memo_scope (m : Method_.t) (q : Pipeline.query) =
  let span name f = Spans.with_span sp ~lift name f in
  Spans.with_span sp ~label:(q.qname ^ " " ^ m.label) ~lift "lift" @@ fun () ->
  let prefix = span "oracle" (fun () -> Pipeline.prefix_of_query q) in
  c.oracle_calls <- c.oracle_calls + 1;
  if Result.is_error prefix then c.oracle_refusals <- c.oracle_refusals + 1;
  let facts =
    if m.analysis then Some (span "minic.facts" (fun () -> Stagg_minic.Facts.analyze q.func))
    else None
  in
  match (facts, prefix) with
  | Some { Stagg_minic.Facts.ft_verdict = Error _; _ }, _ | _, Error _ -> unsolved
  | _, Ok prefix -> (
      let func = q.func and signature = q.signature in
      let consts = Stagg_minic.Ast.constants func in
      let prep, prune =
        span "grammar" (fun () ->
            let prep = Pipeline.prepared_of_prefix m prefix in
            (prep, Pipeline.prune_of m q ~consts prep))
      in
      c.oracle_candidates <- c.oracle_candidates + List.length prep.candidates;
      c.grammar_rules <-
        c.grammar_rules + Array.length (Stagg_grammar.Cfg.rules (Stagg_grammar.Pcfg.cfg prep.pcfg));
      let example_seed = m.seed lxor Hashtbl.hash (q.qname, "examples") in
      let checker =
        span "examples" (fun () ->
            Examples.generate ~func ~signature ~prng:(Prng.create ~seed:example_seed) ()
            |> Result.map (fun examples -> Validator.prepare ~signature ~examples))
      in
      match checker with
      | Error _ -> unsolved
      | Ok checker ->
          let verify concrete =
            (not m.verify)
            || span "verify" (fun () ->
                   c.verify_calls <- c.verify_calls + 1;
                   match Bmc.check ~func ~signature ~candidate:concrete () with
                   | Bmc.Equivalent ->
                       c.verify_equivalent <- c.verify_equivalent + 1;
                       true
                   | Bmc.Not_equivalent _ | Bmc.Inconclusive _ -> false)
          in
          let memo_key = Printf.sprintf "%s%s#%d" memo_scope q.qname example_seed in
          let instantiations = ref 0 in
          let validate template =
            span "validate" (fun () ->
                let v0 = Validator.stats () in
                let sol, n =
                  Validator.validate_counted ~signature ~checker ~consts ~verify ~memo_key
                    ~batched:m.batched_validate template
                in
                let v1 = Validator.stats () in
                instantiations := !instantiations + n;
                c.validate_calls <- c.validate_calls + 1;
                if sol <> None then c.validate_solutions <- c.validate_solutions + 1;
                c.validate_instantiations <- c.validate_instantiations + n;
                c.memo_hits <- c.memo_hits + v1.memo_hits - v0.memo_hits;
                c.memo_misses <- c.memo_misses + v1.memo_misses - v0.memo_misses;
                c.template_compiles <-
                  c.template_compiles + v1.template_compiles - v0.template_compiles;
                c.template_cache_hits <-
                  c.template_cache_hits + v1.template_cache_hits - v0.template_cache_hits;
                sol)
          in
          let outcome =
            span "search" (fun () ->
                match m.search with
                | Method_.Top_down ->
                    Astar.search_topdown ~pcfg:prep.pcfg ~penalty_ctx:prep.penalty_ctx
                      ~max_depth:m.max_depth ~dedup:m.dedup ?prune ~prune_mode:m.prune_mode
                      ~domains:m.search_domains ~budget:m.budget ~validate ()
                | Method_.Bottom_up ->
                    Astar.search_bottomup ~pcfg:prep.pcfg ~penalty_ctx:prep.penalty_ctx
                      ~dim_list:prep.dim_list ~dedup:m.dedup ?prune ~prune_mode:m.prune_mode
                      ~domains:m.search_domains ~budget:m.budget ~validate ())
          in
          let st = Astar.stats_of outcome in
          c.search_expansions <- c.search_expansions + st.expansions;
          c.search_suppressed <- c.search_suppressed + st.suppressed;
          c.search_attempts <- c.search_attempts + st.attempts;
          let answer =
            match outcome with
            | Astar.Solved (s, _) -> Some (print_answer s)
            | Astar.Exhausted _ | Astar.Budget_exceeded _ -> None
          in
          {
            solved = answer <> None;
            answer;
            attempts = st.attempts;
            expansions = st.expansions;
            instantiations = !instantiations;
          })
