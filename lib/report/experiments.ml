open Stagg
module Pool = Stagg_util.Pool
module Clock = Stagg_util.Clock
module Penalty = Stagg_search.Penalty
module Suite = Stagg_benchsuite.Suite

type runs = {
  seed : int;
  td : Result_.t list;
  bu : Result_.t list;
  llm : Result_.t list;
  c2taco : Result_.t list;
  c2taco_noh : Result_.t list;
  tenspiler : Result_.t list;
  td_drop_all : Result_.t list;
  td_drops : (Penalty.criterion * Result_.t list) list;
  bu_drop_all : Result_.t list;
  bu_drops : (Penalty.criterion * Result_.t list) list;
  td_equal : Result_.t list;
  td_llm_grammar : Result_.t list;
  td_full_grammar : Result_.t list;
  bu_equal : Result_.t list;
  bu_llm_grammar : Result_.t list;
  bu_full_grammar : Result_.t list;
  trace : Result_.t list;
  trace_llm : Result_.t list;
}

let default_seed = 20250604

(* ---- the shared preparation cache ----

   The mock-LLM stream, candidate parsing, templatization and dimension
   prediction depend only on (seed, benchmark) — not on the method — so
   one campaign computes that prefix once per benchmark and shares it
   across every sweep; only grammar/probability/penalty construction
   stays per-method (inside [Pipeline.lift_prefixed]). *)

type prep = (Pipeline.query * (Pipeline.prefix, string) result) list

let prepare_suite ?jobs ?(oracle = Method_.Oracle_llm) ~seed benches : prep =
  (* the oracle is baked into the query (and hence the prefix), so each
     oracle gets its own preparation cache; everything else about the
     prefix is still method-independent *)
  let m = { Method_.stagg_td with seed; oracle } in
  Pool.map ?jobs
    (fun b ->
      let q = Pipeline.query_of_bench m b in
      (q, Pipeline.prefix_of_query q))
    benches

let sweep_prepared ?jobs m (cache : prep) =
  Pool.map ?jobs (fun (q, pr) -> Pipeline.lift_prefixed m q pr) cache

let sweep_timed ~progress label f =
  (* settle the heap before timing: without this, a sweep pays major-GC
     marking for the previous sweep's garbage (frontiers run to ~10⁶ live
     entries), and the per-sweep times depend on sweep order *)
  Gc.compact ();
  let t0 = Clock.now () in
  let r = f () in
  let dt = Clock.now () -. t0 in
  progress
    (Printf.sprintf "%-28s %2d solved  (%.1fs)" label
       (List.length (List.filter (fun (x : Result_.t) -> x.solved) r))
       dt);
  r

let run_core_cached ?jobs ?(analysis = true) ~seed ~progress (cache : prep) =
  let all = Suite.all and rw = Suite.real_world in
  let sweep = sweep_timed ~progress in
  let with_seed m = { m with Method_.seed; analysis } in
  let sweep_m m = sweep m.Method_.label (fun () -> sweep_prepared ?jobs (with_seed m) cache) in
  let td = sweep_m Method_.stagg_td in
  let bu = sweep_m Method_.stagg_bu in
  let llm = sweep "LLM" (fun () -> Stagg_baselines.Llm_only.run_suite ?jobs ~seed all) in
  let c2taco =
    sweep "C2TACO" (fun () -> Stagg_baselines.C2taco.run_suite ?jobs ~seed ~heuristics:true all)
  in
  let c2taco_noh =
    sweep "C2TACO.NoHeuristics" (fun () ->
        Stagg_baselines.C2taco.run_suite ?jobs ~seed ~heuristics:false all)
  in
  let tenspiler = sweep "Tenspiler" (fun () -> Stagg_baselines.Tenspiler.run_suite ?jobs ~seed rw) in
  {
    seed;
    td;
    bu;
    llm;
    c2taco;
    c2taco_noh;
    tenspiler;
    td_drop_all = [];
    td_drops = [];
    bu_drop_all = [];
    bu_drops = [];
    td_equal = [];
    td_llm_grammar = [];
    td_full_grammar = [];
    bu_equal = [];
    bu_llm_grammar = [];
    bu_full_grammar = [];
    trace = [];
    trace_llm = [];
  }

(* The trace-oracle sweeps, run after every other sweep of a campaign. *)
let run_trace_sweeps ?jobs ?(analysis = true) ~seed ~progress () =
  let with_seed m = { m with Method_.seed; analysis } in
  let sweep m ~oracle =
    sweep_timed ~progress m.Method_.label (fun () ->
        sweep_prepared ?jobs (with_seed m)
          (prepare_suite ?jobs ~oracle ~seed Suite.all))
  in
  let trace = sweep Method_.td_trace ~oracle:Method_.Oracle_trace in
  let trace_llm = sweep Method_.td_trace_llm ~oracle:Method_.Oracle_trace_llm in
  (trace, trace_llm)

let run_core ?(seed = default_seed) ?(progress = fun _ -> ()) ?jobs ?analysis () =
  let core = run_core_cached ?jobs ?analysis ~seed ~progress (prepare_suite ?jobs ~seed Suite.all) in
  let trace, trace_llm = run_trace_sweeps ?jobs ?analysis ~seed ~progress () in
  { core with trace; trace_llm }

let run_all ?(seed = default_seed) ?(progress = fun _ -> ()) ?jobs ?(analysis = true) () =
  let cache = prepare_suite ?jobs ~seed Suite.all in
  let core = run_core_cached ?jobs ~analysis ~seed ~progress cache in
  let with_seed m = { m with Method_.seed; analysis } in
  let sweep m =
    sweep_timed ~progress m.Method_.label (fun () ->
        sweep_prepared ?jobs (with_seed m) cache)
  in
  let drop base c = sweep (Method_.drop_penalty base c) in
  (* bound one by one, not in the record below, so the sweeps (and their
     progress lines) run in this order *)
  let td_drop_all = sweep (Method_.drop_all_penalties Method_.stagg_td "A") in
  let td_drops = List.map (fun c -> (c, drop Method_.stagg_td c)) Penalty.all_topdown in
  let bu_drop_all = sweep (Method_.drop_all_penalties Method_.stagg_bu "B") in
  let bu_drops = List.map (fun c -> (c, drop Method_.stagg_bu c)) Penalty.all_bottomup in
  let td_equal = sweep Method_.td_equal_probability in
  let td_llm_grammar = sweep Method_.td_llm_grammar in
  let td_full_grammar = sweep Method_.td_full_grammar in
  let bu_equal = sweep Method_.bu_equal_probability in
  let bu_llm_grammar = sweep Method_.bu_llm_grammar in
  let bu_full_grammar = sweep Method_.bu_full_grammar in
  let trace, trace_llm = run_trace_sweeps ?jobs ~analysis ~seed ~progress () in
  {
    core with
    td_drop_all;
    td_drops;
    bu_drop_all;
    bu_drops;
    td_equal;
    td_llm_grammar;
    td_full_grammar;
    bu_equal;
    bu_llm_grammar;
    bu_full_grammar;
    trace;
    trace_llm;
  }

(* ---- statistics ---- *)

let solved (rs : Result_.t list) = List.filter (fun r -> r.Result_.solved) rs
let n_solved rs = List.length (solved rs)

let avg f = function [] -> 0. | xs -> List.fold_left (fun a x -> a +. f x) 0. xs /. float_of_int (List.length xs)

(* averages over solved queries, as the paper reports *)
let avg_time rs = avg (fun (r : Result_.t) -> r.time_s) (solved rs)
let avg_attempts rs = avg (fun (r : Result_.t) -> float_of_int r.attempts) (solved rs)

let restrict names (rs : Result_.t list) = List.filter (fun r -> List.mem r.Result_.bench names) rs

let real_world_names = List.map (fun (b : Stagg_benchsuite.Bench.t) -> b.name) Suite.real_world

let fmt_t t = Printf.sprintf "%.3f" t
let fmt_n = string_of_int
let fmt_pct n total = Printf.sprintf "%.2f%%" (100. *. float_of_int n /. float_of_int total)

(* ---- Table 1 ---- *)

let table1 runs =
  let solved_by_c2taco = Result_.solved_names runs.c2taco in
  let solved_by_tenspiler = Result_.solved_names runs.tenspiler in
  let row label rs ~full =
    let rw = restrict real_world_names rs in
    let c2 = restrict solved_by_c2taco rs in
    let ts = restrict solved_by_tenspiler rs in
    [
      label;
      fmt_n (n_solved rw);
      fmt_t (avg_time rw);
      (if full then fmt_n (n_solved rs) else "");
      (if full then fmt_t (avg_time rs) else "");
      (if full then Printf.sprintf "%.2f" (avg_attempts rs) else "");
      fmt_n (n_solved c2);
      fmt_t (avg_time c2);
      fmt_n (n_solved ts);
      fmt_t (avg_time ts);
    ]
  in
  "Table 1: benchmark-solving performance across methods\n"
  ^ Table.render
      ~headers:
        [
          "Method"; "RW(67) #"; "time"; "RW+Art(77) #"; "time"; "attempts"; "C2TACO-set #";
          "time"; "Tenspiler-set #"; "time";
        ]
      ~aligns:[ Left; Right; Right; Right; Right; Right; Right; Right; Right; Right ]
      [
        row "STAGG^TD" runs.td ~full:true;
        row "STAGG^BU" runs.bu ~full:true;
        row "LLM" runs.llm ~full:true;
        row "C2TACO" runs.c2taco ~full:true;
        row "C2TACO.NoHeuristics" runs.c2taco_noh ~full:true;
        row "Tenspiler" runs.tenspiler ~full:false;
      ]

(* ---- Table 2 ---- *)

let table2 runs =
  let total = 77 in
  let row label rs = [ label; fmt_n (n_solved rs); fmt_pct (n_solved rs) total; fmt_t (avg_time rs) ] in
  let drop_rows prefix drops =
    List.map
      (fun (c, rs) -> row (Printf.sprintf "%s.Drop(%s)" prefix (Penalty.criterion_to_string c)) rs)
      drops
  in
  "Table 2: impact of the penalty rules (77 queries)\n"
  ^ Table.render
      ~headers:[ "Method"; "#"; "%"; "time" ]
      ~aligns:[ Left; Right; Right; Right ]
      ((row "STAGG^TD" runs.td :: row "STAGG^TD.Drop(A)" runs.td_drop_all
        :: drop_rows "STAGG^TD" runs.td_drops)
      @ (row "STAGG^BU" runs.bu :: row "STAGG^BU.Drop(B)" runs.bu_drop_all
         :: drop_rows "STAGG^BU" runs.bu_drops))

(* ---- Table 3 ---- *)

let table3 runs =
  let total = 77 in
  let row label rs =
    [
      label;
      fmt_n (n_solved rs);
      fmt_pct (n_solved rs) total;
      fmt_t (avg_time rs);
      Printf.sprintf "%.2f" (avg_attempts rs);
    ]
  in
  "Table 3: grammar configurations (77 queries)\n"
  ^ Table.render
      ~headers:[ "Method"; "#"; "%"; "time"; "attempts" ]
      ~aligns:[ Left; Right; Right; Right; Right ]
      [
        row "STAGG^TD" runs.td;
        row "STAGG^TD.Drop(A)" runs.td_drop_all;
        row "STAGG^TD.EqualProbability" runs.td_equal;
        row "STAGG^TD.LLMGrammar" runs.td_llm_grammar;
        row "STAGG^TD.FullGrammar" runs.td_full_grammar;
        row "STAGG^BU" runs.bu;
        row "STAGG^BU.Drop(B)" runs.bu_drop_all;
        row "STAGG^BU.EqualProbability" runs.bu_equal;
        row "STAGG^BU.LLMGrammar" runs.bu_llm_grammar;
        row "STAGG^BU.FullGrammar" runs.bu_full_grammar;
        row "LLM" runs.llm;
        row "C2TACO" runs.c2taco;
        row "C2TACO.NoHeuristics" runs.c2taco_noh;
      ]

(* ---- figures ---- *)

let fig9 runs =
  let series =
    List.map
      (fun (label, rs) -> Cactus.series_of_results ~label (restrict real_world_names rs))
      [
        ("STAGG^TD", runs.td);
        ("STAGG^BU", runs.bu);
        ("LLM", runs.llm);
        ("C2TACO", runs.c2taco);
        ("C2TACO.NoHeuristics", runs.c2taco_noh);
        ("Tenspiler", runs.tenspiler);
      ]
  in
  "Figure 9: cactus plot, 67 real-world benchmarks\n" ^ Cactus.to_ascii series ^ "\ndata:\n"
  ^ Cactus.to_data series

let bar_chart rows total =
  let buf = Buffer.create 256 in
  List.iter
    (fun (label, n) ->
      let pct = 100. *. float_of_int n /. float_of_int total in
      Buffer.add_string buf
        (Printf.sprintf "%-28s %s %5.1f%% (%d/%d)\n" label
           (String.make (int_of_float (pct /. 2.)) '#')
           pct n total))
    rows;
  Buffer.contents buf

let fig10 runs =
  let rw rs = n_solved (restrict real_world_names rs) in
  "Figure 10: success rates, 67 real-world benchmarks\n"
  ^ bar_chart
      [
        ("STAGG^TD", rw runs.td);
        ("STAGG^BU", rw runs.bu);
        ("LLM", rw runs.llm);
        ("C2TACO", rw runs.c2taco);
        ("C2TACO.NoHeuristics", rw runs.c2taco_noh);
        ("Tenspiler", n_solved runs.tenspiler);
      ]
      67

let fig11 runs =
  "Figure 11: grammar configurations, success rates on all 77\n"
  ^ bar_chart
      [
        ("STAGG^TD", n_solved runs.td);
        ("STAGG^TD.EqualProbability", n_solved runs.td_equal);
        ("STAGG^TD.LLMGrammar", n_solved runs.td_llm_grammar);
        ("STAGG^TD.FullGrammar", n_solved runs.td_full_grammar);
        ("STAGG^BU", n_solved runs.bu);
        ("STAGG^BU.EqualProbability", n_solved runs.bu_equal);
        ("STAGG^BU.LLMGrammar", n_solved runs.bu_llm_grammar);
        ("STAGG^BU.FullGrammar", n_solved runs.bu_full_grammar);
      ]
      77

let fig12 runs =
  let configs =
    [
      ("STAGG^TD", runs.td);
      ("STAGG^TD.EqualProbability", runs.td_equal);
      ("STAGG^TD.LLMGrammar", runs.td_llm_grammar);
      ("STAGG^TD.FullGrammar", runs.td_full_grammar);
      ("STAGG^BU", runs.bu);
      ("STAGG^BU.EqualProbability", runs.bu_equal);
      ("STAGG^BU.LLMGrammar", runs.bu_llm_grammar);
      ("STAGG^BU.FullGrammar", runs.bu_full_grammar);
    ]
  in
  "Figure 12: per-configuration solved count vs average time/attempts (77 queries)\n"
  ^ Table.render
      ~headers:[ "Configuration"; "#"; "avg time (s)"; "avg attempts" ]
      ~aligns:[ Left; Right; Right; Right ]
      (List.map
         (fun (label, rs) ->
           [ label; fmt_n (n_solved rs); fmt_t (avg_time rs); Printf.sprintf "%.2f" (avg_attempts rs) ])
         configs)

let summary_rows runs =
  [
    ("STAGG_TD", runs.td);
    ("STAGG_BU", runs.bu);
    ("LLM", runs.llm);
    ("C2TACO", runs.c2taco);
    ("C2TACO_NoH", runs.c2taco_noh);
    ("Tenspiler", runs.tenspiler);
  ]
  @ (if runs.td_drops = [] then []
     else
       [
         ("TD_DropA", runs.td_drop_all);
         ("BU_DropB", runs.bu_drop_all);
         ("TD_Equal", runs.td_equal);
         ("TD_LLMGrammar", runs.td_llm_grammar);
         ("TD_FullGrammar", runs.td_full_grammar);
         ("BU_Equal", runs.bu_equal);
         ("BU_LLMGrammar", runs.bu_llm_grammar);
         ("BU_FullGrammar", runs.bu_full_grammar);
       ])
  @
  (* last, mirroring sweep execution order *)
  if runs.trace = [] then []
  else [ ("Trace", runs.trace); ("Trace_LLM", runs.trace_llm) ]

let summary runs =
  String.concat "\n"
    (List.map
       (fun (label, rs) ->
         Printf.sprintf "%s\t%d\t%.3f\t%.2f" label (n_solved rs) (avg_time rs) (avg_attempts rs))
       (summary_rows runs)
    @ [ "" ])
