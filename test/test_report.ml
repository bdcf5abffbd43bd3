(* Tests for stagg_report: table rendering, cactus series, and experiment
   slicing over synthetic results. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains_sub sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- Table ---- *)

let test_table_render () =
  let t =
    Stagg_report.Table.render ~headers:[ "name"; "n" ]
      ~aligns:[ Stagg_report.Table.Left; Stagg_report.Table.Right ]
      [ [ "alpha"; "1" ]; [ "b"; "100" ] ]
  in
  let lines = String.split_on_char '\n' t in
  check_int "header + rule + 2 rows + trailing" 5 (List.length lines);
  (* right-aligned numbers end at the same column *)
  let row1 = List.nth lines 2 and row2 = List.nth lines 3 in
  check_int "rows same width" (String.length row1) (String.length row2);
  check_bool "contains data" true (contains_sub "alpha" t && contains_sub "100" t)

let test_table_missing_cells () =
  let t = Stagg_report.Table.render ~headers:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  check_bool "missing cells tolerated" true (contains_sub "1" t)

(* ---- Cactus ---- *)

let fake name solved time =
  {
    Stagg.Result_.bench = name;
    method_label = "m";
    solved;
    solution = None;
    time_s = time;
    attempts = 1;
    expansions = 1;
    suppressed = 0;
    peak_frontier = 0;
    n_candidates = 0;
    instantiations = 1;
    traced = false;
    trace_templates = 0;
    warnings = [];
    failure = None;
  }

let test_cactus_series () =
  let rs = [ fake "a" true 3.0; fake "b" false 9.0; fake "c" true 1.0 ] in
  let s = Stagg_report.Cactus.series_of_results ~label:"test" rs in
  check_int "only solved counted" 2 (List.length s.times);
  check_bool "sorted ascending" true (s.times = [ 1.0; 3.0 ]);
  let data = Stagg_report.Cactus.to_data [ s ] in
  check_bool "data block lists points" true
    (contains_sub "test\t1\t1.0" data && contains_sub "test\t2\t3.0" data)

let test_cactus_ascii () =
  let s1 = { Stagg_report.Cactus.label = "fast"; times = [ 0.01; 0.02; 0.05 ] } in
  let s2 = { Stagg_report.Cactus.label = "slow"; times = [ 1.0; 5.0 ] } in
  let art = Stagg_report.Cactus.to_ascii ~width:40 ~height:8 [ s1; s2 ] in
  check_bool "legend present" true (contains_sub "fast (3 solved)" art && contains_sub "slow (2 solved)" art);
  check_bool "marks present" true (contains_sub "A" art && contains_sub "B" art);
  check_bool "empty handled" true
    (contains_sub "no solved"
       (Stagg_report.Cactus.to_ascii [ { Stagg_report.Cactus.label = "none"; times = [] } ]))

(* ---- Experiments slicing (synthetic runs; no pipeline execution) ---- *)

let synthetic_runs () =
  let suite = Stagg_benchsuite.Suite.all in
  let rs solved_pred time =
    List.map (fun (b : Stagg_benchsuite.Bench.t) -> fake b.name (solved_pred b) time) suite
  in
  let rw = List.filter Stagg_benchsuite.Bench.is_real_world suite in
  let rw_results = List.map (fun (b : Stagg_benchsuite.Bench.t) -> fake b.name true 0.5) rw in
  {
    Stagg_report.Experiments.seed = 1;
    td = rs (fun _ -> true) 1.0;
    bu = rs (fun b -> b.name <> "dk_mse") 2.0;
    llm = rs (fun b -> b.llm_quality = Stagg_oracle.Llm_client.Exact) 0.1;
    c2taco = rs (fun b -> b.category <> Stagg_benchsuite.Bench.Llama) 5.0;
    c2taco_noh = rs (fun b -> b.category <> Stagg_benchsuite.Bench.Llama) 9.0;
    tenspiler = rw_results;
    td_drop_all = rs (fun _ -> true) 0.5;
    td_drops = [];
    bu_drop_all = rs (fun _ -> true) 0.5;
    bu_drops = [];
    td_equal = rs (fun _ -> true) 1.0;
    td_llm_grammar = rs (fun _ -> false) 1.0;
    td_full_grammar = rs (fun _ -> false) 1.0;
    bu_equal = rs (fun _ -> true) 1.0;
    bu_llm_grammar = rs (fun _ -> false) 1.0;
    bu_full_grammar = rs (fun _ -> false) 1.0;
    trace = [];
    trace_llm = [];
  }

let test_table1_slicing () =
  let runs = synthetic_runs () in
  let t1 = Stagg_report.Experiments.table1 runs in
  (* TD solves everything: 67 real-world, 77 overall *)
  check_bool "TD full coverage" true (contains_sub "67" t1 && contains_sub "77" t1);
  check_bool "headers" true (contains_sub "C2TACO-set" t1 && contains_sub "Tenspiler-set" t1)

let test_fig10_shape () =
  let f = Stagg_report.Experiments.fig10 (synthetic_runs ()) in
  check_bool "bars rendered" true (contains_sub "STAGG^TD" f && contains_sub "%" f)

let test_summary_lines () =
  let s = Stagg_report.Experiments.summary (synthetic_runs ()) in
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s) in
  (* the synthetic runs carry no per-criterion ablations, so only the six
     core rows appear *)
  check_int "six core summary rows" 6 (List.length lines)

let () =
  Alcotest.run "stagg_report"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "missing cells" `Quick test_table_missing_cells;
        ] );
      ( "cactus",
        [
          Alcotest.test_case "series" `Quick test_cactus_series;
          Alcotest.test_case "ascii" `Quick test_cactus_ascii;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1 slicing" `Quick test_table1_slicing;
          Alcotest.test_case "fig10" `Quick test_fig10_shape;
          Alcotest.test_case "summary" `Quick test_summary_lines;
        ] );
    ]
