open Stagg
module Pool = Stagg_util.Pool
module Clock = Stagg_util.Clock
module Penalty = Stagg_search.Penalty
module Suite = Stagg_benchsuite.Suite

type sweep = {
  sw_label : string;
  sw_wall_s : float;
  sw_heap_words : int;
  sw_instantiations : int;
  sw_validate_s : float;
}

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
  sweeps : sweep list;
      (** per-sweep measurement log, in execution order: wall seconds,
          [Gc.quick_stat] major-heap size in words when the sweep
          finished, total validator instantiations and in-validator
          seconds summed over the sweep's results. Each sweep starts from
          a compacted heap ({!sweep_timed}) and the heap only grows
          between compactions, so the end-of-sweep size approximates the
          sweep's own high-water mark. *)
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

let sweep_timed ?log ~progress label f =
  (* settle the heap before timing: without this, a sweep pays major-GC
     marking for the previous sweep's garbage (frontiers run to ~10⁶ live
     entries), and the per-sweep times depend on sweep order *)
  Gc.compact ();
  let t0 = Clock.now () in
  let r = f () in
  let dt = Clock.now () -. t0 in
  (* heap size BEFORE the next sweep's compaction: with a compacted
     start, this is the sweep's own high-water footprint *)
  (match log with
  | Some l ->
      l :=
        {
          sw_label = label;
          sw_wall_s = dt;
          sw_heap_words = (Gc.quick_stat ()).Gc.heap_words;
          sw_instantiations =
            List.fold_left (fun a (x : Result_.t) -> a + x.instantiations) 0 r;
          sw_validate_s = List.fold_left (fun a (x : Result_.t) -> a +. x.validate_s) 0. r;
        }
        :: !l
  | None -> ());
  progress
    (Printf.sprintf "%-28s %2d solved  (%.1fs)" label
       (List.length (List.filter (fun (x : Result_.t) -> x.solved) r))
       dt);
  r

let run_core_cached ?jobs ?(analysis = true) ~seed ~progress (cache : prep) =
  let all = Suite.all and rw = Suite.real_world in
  let sweep_log = ref [] in
  let sweep = sweep_timed ~log:sweep_log ~progress in
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
    sweeps = List.rev !sweep_log;
  }

(* The trace-oracle sweeps. These MUST run after every other sweep of a
   campaign: the cross-sweep validation memo is shared process-wide, so
   running them earlier would warm it with trace-sourced entries and
   silently shift the instantiation counts of the pre-existing rows —
   the byte-identity contract is that those rows do not move when the
   trace oracle is off. *)
let run_trace_sweeps ?jobs ?(analysis = true) ~seed ~progress ~sweep_log () =
  let with_seed m = { m with Method_.seed; analysis } in
  let sweep m ~oracle =
    sweep_timed ~log:sweep_log ~progress m.Method_.label (fun () ->
        sweep_prepared ?jobs (with_seed m)
          (prepare_suite ?jobs ~oracle ~seed Suite.all))
  in
  let trace = sweep Method_.td_trace ~oracle:Method_.Oracle_trace in
  let trace_llm = sweep Method_.td_trace_llm ~oracle:Method_.Oracle_trace_llm in
  (trace, trace_llm)

let run_core ?(seed = default_seed) ?(progress = fun _ -> ()) ?jobs ?analysis () =
  let core = run_core_cached ?jobs ?analysis ~seed ~progress (prepare_suite ?jobs ~seed Suite.all) in
  let sweep_log = ref [] in
  let trace, trace_llm = run_trace_sweeps ?jobs ?analysis ~seed ~progress ~sweep_log () in
  { core with trace; trace_llm; sweeps = core.sweeps @ List.rev !sweep_log }

let run_all ?(seed = default_seed) ?(progress = fun _ -> ()) ?jobs ?(analysis = true) () =
  let cache = prepare_suite ?jobs ~seed Suite.all in
  let core = run_core_cached ?jobs ~analysis ~seed ~progress cache in
  let with_seed m = { m with Method_.seed; analysis } in
  let sweep_log = ref [] in
  let sweep m =
    sweep_timed ~log:sweep_log ~progress m.Method_.label (fun () ->
        sweep_prepared ?jobs (with_seed m) cache)
  in
  let drop base c = sweep (Method_.drop_penalty base c) in
  (* ablation sweeps run in this binding order, so the sweep log stays in
     execution order regardless of record-field evaluation order *)
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
  (* trace sweeps last — see [run_trace_sweeps] on why the order matters *)
  let trace, trace_llm = run_trace_sweeps ?jobs ~analysis ~seed ~progress ~sweep_log () in
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
    sweeps = core.sweeps @ List.rev !sweep_log;
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

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let schema_version = 4

let json_summary ?(jobs = 1) ~wall_s runs =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "{\n  \"schema_version\": %d,\n  \"seed\": %d,\n  \"jobs\": %d,\n  \"wall_time_s\": %.3f,\n"
    schema_version runs.seed jobs wall_s;
  Buffer.add_string buf "  \"methods\": [\n";
  let rows = summary_rows runs in
  let last = List.length rows - 1 in
  let sum f rs = List.fold_left (fun a r -> a +. f r) 0. rs in
  List.iteri
    (fun i (label, rs) ->
      Printf.bprintf buf
        "    {\"method\": \"%s\", \"solved\": %d, \"total\": %d, \"avg_time_s\": %.6f, \
         \"avg_attempts\": %.2f, \"total_attempts\": %d, \"total_expansions\": %d, \
         \"total_suppressed\": %d, \"pruned_rules\": %d, \
         \"search_s\": %.3f, \"validate_s\": %.3f, \"verify_s\": %.3f, \
         \"instantiations\": %d}%s\n"
        (json_escape label) (n_solved rs) (List.length rs) (avg_time rs) (avg_attempts rs)
        (List.fold_left (fun a (r : Result_.t) -> a + r.attempts) 0 rs)
        (List.fold_left (fun a (r : Result_.t) -> a + r.expansions) 0 rs)
        (List.fold_left (fun a (r : Result_.t) -> a + r.suppressed) 0 rs)
        (List.fold_left (fun a (r : Result_.t) -> a + r.pruned_rules) 0 rs)
        (sum Result_.search_s rs)
        (sum (fun (r : Result_.t) -> r.validate_s) rs)
        (sum (fun (r : Result_.t) -> r.verify_s) rs)
        (List.fold_left (fun a (r : Result_.t) -> a + r.instantiations) 0 rs)
        (if i = last then "" else ","))
    rows;
  Buffer.add_string buf "  ],\n  \"sweeps\": [\n";
  let nsweeps = List.length runs.sweeps in
  List.iteri
    (fun i s ->
      let inst_per_s =
        if s.sw_validate_s > 0. then float_of_int s.sw_instantiations /. s.sw_validate_s else 0.
      in
      Printf.bprintf buf
        "    {\"sweep\": \"%s\", \"wall_s\": %.3f, \"heap_words\": %d, \
         \"instantiations\": %d, \"validate_s\": %.3f, \"inst_per_s\": %.0f}%s\n"
        (json_escape s.sw_label) s.sw_wall_s s.sw_heap_words s.sw_instantiations
        s.sw_validate_s inst_per_s
        (if i = nsweeps - 1 then "" else ","))
    runs.sweeps;
  Buffer.add_string buf "  ],\n";
  (* trace-oracle telemetry, present when the campaign ran the trace
     sweeps: how many kernels the tracer produced templates for, how many
     templates it emitted, and which solves the trace row gets that the
     plain LLM row does not *)
  (if runs.trace <> [] then begin
     let traced =
       List.length (List.filter (fun (r : Result_.t) -> r.traced) runs.trace)
     in
     let templates =
       List.fold_left (fun a (r : Result_.t) -> a + r.trace_templates) 0 runs.trace
     in
     let llm_solved = Result_.solved_names runs.llm in
     let trace_only =
       List.filter (fun n -> not (List.mem n llm_solved)) (Result_.solved_names runs.trace)
     in
     Printf.bprintf buf
       "  \"trace\": {\"kernels_traced\": %d, \"trace_templates\": %d, \
        \"trace_solved\": %d, \"trace_llm_solved\": %d, \"trace_only_solved\": %d, \
        \"trace_only\": [%s]},\n"
       traced templates (n_solved runs.trace) (n_solved runs.trace_llm)
       (List.length trace_only)
       (String.concat ", " (List.map (fun n -> "\"" ^ json_escape n ^ "\"") trace_only))
   end);
  (* validator telemetry: process-wide counters at report time (memo
     traffic including generation-rotation evictions, and the batched
     path's LRU template-compilation cache) *)
  let vs = Stagg_validate.Validator.stats () in
  Printf.bprintf buf
    "\
    \  \"validator\": {\"memo_hits\": %d, \"memo_misses\": %d, \"memo_evictions\": %d, \
     \"template_compiles\": %d, \"template_cache_hits\": %d, \"template_cache_evictions\": %d, \
     \"template_overflows\": %d}\n\
     }\n"
    vs.memo_hits vs.memo_misses vs.memo_evictions vs.template_compiles vs.template_cache_hits
    vs.template_cache_evictions vs.template_overflows;
  Buffer.contents buf
