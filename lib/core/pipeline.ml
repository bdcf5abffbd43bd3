open Stagg_util
open Stagg_grammar
open Stagg_search
open Stagg_template
module Bench = Stagg_benchsuite.Bench

type prepared = {
  candidates : Stagg_taco.Ast.program list;
  templates : Stagg_taco.Ast.program list;
  dim_list : int list;
  pcfg : Pcfg.t;
  penalty_ctx : Penalty.ctx;
}

type query = {
  qname : string;
  func : Stagg_minic.Ast.func;
  signature : Stagg_minic.Signature.t;
  c_source : string;
  client : (module Stagg_oracle.Llm_client.S);
  oracle : Method_.oracle;
}

let llm_client ~seed (b : Bench.t) : (module Stagg_oracle.Llm_client.S) =
  (* one deterministic mock-LLM stream per (seed, benchmark) *)
  let prng = Prng.create ~seed:(seed lxor Hashtbl.hash b.name) in
  match Bench.truth b with
  | Some ground_truth -> Stagg_oracle.Mock_llm.client ~prng ~ground_truth ~quality:b.llm_quality
  | None -> Stagg_oracle.Replay.of_lines []

let query_of_bench (m : Method_.t) (b : Bench.t) : query =
  {
    qname = b.name;
    func = Bench.func b;
    signature = b.signature;
    c_source = b.c_source;
    client = llm_client ~seed:m.seed b;
    oracle = m.oracle;
  }

let ops_in_templates templates =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  List.iter
    (fun t ->
      List.iter
        (fun op ->
          if not (Hashtbl.mem seen op) then begin
            Hashtbl.add seen op ();
            acc := op :: !acc
          end)
        (Stagg_taco.Ast.ops_used t.Stagg_taco.Ast.rhs))
    templates;
  List.rev !acc

let grammar_has_const (cfg : Cfg.t) =
  Array.exists
    (fun (r : Cfg.rule) -> List.exists (fun s -> s = Cfg.T Cfg.Tok_const) r.rhs)
    (Cfg.rules cfg)

type prefix = {
  pf_candidates : Stagg_taco.Ast.program list;
  pf_templates : Stagg_taco.Ast.program list;
  pf_dim_list : int list;
  pf_ops : Stagg_taco.Ast.op list;
  pf_n_rhs_tensors : int;
  pf_max_rank : int;
  pf_n_indices : int;
  pf_traced : bool;
  pf_trace_templates : int;
  pf_trace_warning : string option;
}

let prefix_of_query (q : query) : (prefix, string) result =
  (* Stage ① per the method's oracle. The trace oracle's programs enter
     the very same funnel as parsed LLM responses: candidates →
     templatize → dimension prediction → grammar statistics. Under
     [Oracle_llm] the trace oracle is never consulted, keeping that path
     byte-identical to a build without it. *)
  let trace_result =
    match q.oracle with
    | Method_.Oracle_llm -> None
    | Method_.Oracle_trace | Method_.Oracle_trace_llm ->
        Some (Stagg_oracle.Trace.skeletons q.func q.signature)
  in
  let trace_candidates =
    match trace_result with Some (Ok ps) -> ps | Some (Error _) | None -> []
  in
  let pf_trace_warning =
    match trace_result with
    | Some (Error r) -> Some (Stagg_oracle.Trace.refusal_to_string r)
    | _ -> None
  in
  let llm_candidates () =
    let (module Llm) = q.client in
    let responses = Llm.query ~prompt:(Stagg_oracle.Prompt.build ~c_source:q.c_source) in
    Stagg_oracle.Response.parse_all responses
  in
  let candidates, empty_reason =
    match q.oracle with
    | Method_.Oracle_llm -> (llm_candidates (), "no syntactically valid LLM candidates")
    | Method_.Oracle_trace -> (
        ( trace_candidates,
          match pf_trace_warning with
          | Some w -> w
          | None -> "trace oracle emitted no candidates" ))
    | Method_.Oracle_trace_llm ->
        (trace_candidates @ llm_candidates (), "no candidates from trace or LLM")
  in
  let pf_traced = trace_candidates <> [] in
  let pf_trace_templates = List.length trace_candidates in
  (* an [Error] prefix has no warning field, so under [Oracle_trace_llm]
     the failure itself carries the trace refusal *)
  let fail reason =
    match (q.oracle, pf_trace_warning) with
    | Method_.Oracle_trace_llm, Some w -> Error (reason ^ "; " ^ w)
    | _ -> Error reason
  in
  if candidates = [] then fail empty_reason
  else begin
    let templates = List.filter_map Templatize.templatize candidates in
    if templates = [] then
      fail
        (match q.oracle with
        | Method_.Oracle_llm -> "no templatizable LLM candidates"
        | Method_.Oracle_trace -> "no templatizable trace candidates"
        | Method_.Oracle_trace_llm -> "no templatizable trace or LLM candidates")
    else begin
      match Dimlist.predict templates with
      | None -> Error "dimension prediction failed"
      | Some predicted ->
          (* static analysis takes precedence for the LHS (§4.2.3) *)
          let dim_list =
            match Stagg_minic.Dims.lhs_dim q.func with
            | Some d -> Dimlist.override_lhs predicted d
            | None -> predicted
          in
          (* The LLMGrammar/FullGrammar ablations drop the §4.2.4 dimension
             refinement but keep the §4.2.2 symbol restriction: tensor
             names, maximal rank and index variables still come from the
             candidate set (the paper restricts the base grammar to "the
             names we have chosen as symbolic tensor variables" before any
             dimension reasoning). *)
          let n_rhs_tensors =
            max 1
              (List.fold_left
                 (fun acc t -> max acc (List.length (Templatize.symbols t) - 1))
                 0 templates)
          in
          let max_rank =
            max 1
              (List.fold_left
                 (fun acc t ->
                   List.fold_left (fun a (_, r) -> max a r) acc (Templatize.symbols t))
                 0 templates)
          in
          Ok
            {
              pf_candidates = candidates;
              pf_templates = templates;
              pf_dim_list = dim_list;
              pf_ops = ops_in_templates templates;
              pf_n_rhs_tensors = n_rhs_tensors;
              pf_max_rank = max_rank;
              pf_n_indices = Genlib.unique_index_count templates;
              pf_traced;
              pf_trace_templates;
              pf_trace_warning;
            }
    end
  end

let prepared_of_prefix (m : Method_.t) (p : prefix) : prepared =
  let dim_list = p.pf_dim_list and templates = p.pf_templates in
  let cfg =
    match (m.search, m.grammar) with
    | _, (Method_.Refined | Method_.Equal_probability) -> (
        match m.search with
        | Method_.Top_down -> Gen_topdown.generate ~dim_list ~templates
        | Method_.Bottom_up -> Gen_bottomup.generate ~dim_list ~templates)
    | Method_.Top_down, (Method_.Llm_grammar | Method_.Full_grammar) ->
        Taco_grammar.generate ~n_rhs_tensors:p.pf_n_rhs_tensors ~max_rank:p.pf_max_rank
          ~n_indices:p.pf_n_indices ()
    | Method_.Bottom_up, (Method_.Llm_grammar | Method_.Full_grammar) ->
        Gen_bottomup.generate_full ~n_rhs_tensors:p.pf_n_rhs_tensors ~max_rank:p.pf_max_rank
          ~n_indices:p.pf_n_indices ()
  in
  let pcfg =
    match m.grammar with
    | Method_.Refined | Method_.Llm_grammar ->
        Pcfg.of_weights cfg (Derive.weights_of_templates cfg templates)
    | Method_.Equal_probability | Method_.Full_grammar -> Pcfg.uniform cfg
  in
  let penalty_ctx =
    {
      Penalty.dim_list;
      ops_available = p.pf_ops;
      grammar_has_const = grammar_has_const cfg;
      enabled = m.penalties;
    }
  in
  { candidates = p.pf_candidates; templates; dim_list; pcfg; penalty_ctx }

let prepare_query (m : Method_.t) (q : query) : (prepared, string) result =
  Result.map (prepared_of_prefix m) (prefix_of_query q)

let prepare m b = prepare_query m (query_of_bench m b)

(* The static-analysis half of stage ② bis: facts for fail-fast and
   warnings, plus the sound grammar restriction handed to the search.
   The prune context is built from the SIGNATURE (the validator's own
   rank source), never from inferred ranks — inferred-vs-signature
   disagreements are recorded as warnings instead. *)
let facts_warnings (q : query) (facts : Stagg_minic.Facts.t) ~(dim_list : int list option) :
    string list =
  let sig_out_rank = Stagg_minic.Signature.rank_of_spec (Stagg_minic.Signature.out_spec q.signature) in
  let extra = ref [] in
  (match facts.ft_out_rank with
  | Some r when r <> sig_out_rank ->
      extra :=
        Printf.sprintf "analysis: inferred output rank %d disagrees with signature rank %d" r
          sig_out_rank
        :: !extra
  | _ -> ());
  (match dim_list with
  | Some (lhs :: _) when lhs <> sig_out_rank ->
      extra :=
        Printf.sprintf "analysis: predicted LHS dimension %d disagrees with signature output rank %d"
          lhs sig_out_rank
        :: !extra
  | _ -> ());
  facts.ft_warnings @ List.rev !extra

let prune_of (m : Method_.t) (q : query) ~(consts : 'a list) (prep : prepared) :
    Stagg_grammar.Prune.t option =
  if not m.analysis then None
  else
    let module Sig = Stagg_minic.Signature in
    Some
      (Prune.restrict (Pcfg.cfg prep.pcfg)
         {
           Prune.out_rank = Some (Sig.rank_of_spec (Sig.out_spec q.signature));
           arg_ranks = Some (List.map (fun (_, s) -> Sig.rank_of_spec s) q.signature.Sig.args);
           no_consts = consts = [];
           lhs_name = Genlib.tensor_name 0;
         })

(* Stages ③–④ on [prefix_r], in the lift [acc] whose clock the caller
   started: before the prefix stage in {!lift}, after it in
   {!lift_prefixed}. *)
let lift_from acc (m : Method_.t) (q : query) (prefix_r : (prefix, string) result) : Result_.t =
  let facts = if m.analysis then Some (Stagg_minic.Facts.analyze q.func) else None in
  let traced, trace_templates, trace_warning =
    match prefix_r with
    | Ok p -> (p.pf_traced, p.pf_trace_templates, p.pf_trace_warning)
    | Error _ -> (false, 0, None)
  in
  let finish ?expansions ?suppressed ?peak_frontier ?n_candidates ?(warnings = []) ?(attempts = 0)
      outcome =
    (* a trace refusal is a warning, not a failure: the search still
       runs on whatever candidates remain (none, under Oracle_trace) *)
    Accept.finish acc ?expansions ?suppressed ?peak_frontier ?n_candidates ~traced ~trace_templates
      ~warnings:(warnings @ Option.to_list trace_warning)
      ~attempts outcome
  in
  match facts with
  | Some ({ ft_verdict = Error diag; _ } as f) ->
      (* fail fast: no grammar, no search — the diagnostic is the result *)
      finish ~warnings:(facts_warnings q f ~dim_list:None) (Error ("not liftable: " ^ diag))
  | _ -> (
  match Result.map (prepared_of_prefix m) prefix_r with
  | Error reason ->
      let warnings =
        match facts with None -> [] | Some f -> facts_warnings q f ~dim_list:None
      in
      finish ~warnings (Error reason)
  | Ok prep -> (
      let n_candidates = List.length prep.candidates in
      let func = q.func in
      let warnings =
        match facts with
        | None -> []
        | Some f -> facts_warnings q f ~dim_list:(Some prep.dim_list)
      in
      let consts = Stagg_minic.Ast.constants func in
      match
        Accept.validator acc ~seed:m.seed ~func ~signature:q.signature ~consts
          ~verify:m.verify ~batched:m.batched_validate ()
      with
      | Error msg -> finish ~n_candidates ~warnings (Error msg)
      | Ok validate -> (
          let prune = prune_of m q ~consts prep in
          let outcome =
            match m.search with
            | Method_.Top_down ->
                Astar.search_topdown ~pcfg:prep.pcfg ~penalty_ctx:prep.penalty_ctx
                  ~max_depth:m.max_depth ?prune ~prune_mode:m.prune_mode
                  ~budget:m.budget ~validate ()
            | Method_.Bottom_up ->
                Astar.search_bottomup ~pcfg:prep.pcfg ~penalty_ctx:prep.penalty_ctx
                  ~dim_list:prep.dim_list ?prune ~prune_mode:m.prune_mode
                  ~budget:m.budget ~validate ()
          in
          let stats = Astar.stats_of outcome in
          finish ~expansions:stats.expansions ~suppressed:stats.suppressed
            ~peak_frontier:stats.peak_frontier ~n_candidates ~warnings
            ~attempts:stats.attempts
            (match outcome with
            | Astar.Solved (sol, _) -> Ok sol
            | Astar.Exhausted _ -> Error "search space exhausted"
            | Astar.Budget_exceeded (Astar.Timeout, _) -> Error "timeout"
            | Astar.Budget_exceeded (_, _) -> Error "budget exceeded"))))

let lift_prefixed ?memo_scope:_ (m : Method_.t) (q : query) (prefix_r : (prefix, string) result) :
    Result_.t =
  lift_from (Accept.start ~bench:q.qname ~method_label:m.label) m q prefix_r

let lift ?memo_scope:_ (m : Method_.t) (q : query) : Result_.t =
  (* the clock starts before the prefix stage, so [time_s] covers the
     oracle, templatization and dimension prediction too *)
  let acc = Accept.start ~bench:q.qname ~method_label:m.label in
  lift_from acc m q (prefix_of_query q)

let run (m : Method_.t) (b : Bench.t) : Result_.t = lift m (query_of_bench m b)

let run_suite ?jobs m benches = Pool.map ?jobs (run m) benches
