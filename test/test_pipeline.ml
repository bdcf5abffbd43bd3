(* End-to-end pipeline tests: representative benchmarks solve with both
   searches, the solutions verify, runs are deterministic, and the
   intermediate artifacts are coherent. *)

module Suite = Stagg_benchsuite.Suite
module Bench = Stagg_benchsuite.Bench

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

let bench name = Option.get (Suite.find name)

let run_td name = Stagg.Pipeline.run Stagg.Method_.stagg_td (bench name)
let run_bu name = Stagg.Pipeline.run Stagg.Method_.stagg_bu (bench name)

let expect_solution run name expected =
  let r = run name in
  check_bool (name ^ " solved") true r.Stagg.Result_.solved;
  match r.solution with
  | Some sol ->
      check_string (name ^ " lifting") expected (Stagg_taco.Pretty.program_to_string sol.concrete)
  | None -> Alcotest.fail "no solution recorded"

let test_td_representatives () =
  expect_solution run_td "art_copy" "R(i) = A(i)";
  expect_solution run_td "art_gemv" "R(i) = A(i, j) * X(j)";
  expect_solution run_td "art_gemm" "R(i, j) = A(i, k) * B(k, j)";
  expect_solution run_td "dsp_mean8" "R = X(i) / 8";
  expect_solution run_td "sa_const_sub" "R(i) = 10 - A(i)"

let test_td_semantic_equivalents_accepted () =
  (* the pipeline may land on any verified-equivalent form; check it
     verifies rather than insisting on syntax *)
  List.iter
    (fun name ->
      let r = run_td name in
      check_bool (name ^ " solved") true r.Stagg.Result_.solved;
      match r.solution with
      | Some sol ->
          let b = bench name in
          check_bool (name ^ " verifies") true
            (Stagg_verify.Bmc.check ~func:(Bench.func b) ~signature:b.signature
               ~candidate:sol.concrete ()
            = Stagg_verify.Bmc.Equivalent)
      | None -> Alcotest.fail "no solution")
    [ "blas_syrk_lt"; "dk_mse"; "mf_vec_lerp"; "blas_saxpy"; "art_ttv" ]

let test_bu_representatives () =
  expect_solution run_bu "art_copy" "R(i) = A(i)";
  expect_solution run_bu "art_gemv" "R(i) = A(i, j) * X(j)";
  (* the bottom-up search solves left-leaning chains *)
  let r = run_bu "dk_normalize" in
  check_bool "dk_normalize solved bottom-up" true r.Stagg.Result_.solved

let test_bu_structural_limits () =
  (* right-nested and repeated-symbol solutions are outside the
     right-linear template space (paper RQ2) *)
  List.iter
    (fun name -> check_bool (name ^ " fails bottom-up") false (run_bu name).Stagg.Result_.solved)
    [ "dk_mse"; "mf_vec_lerp"; "blas_syrk_lt" ]

let test_five_index_unsolvable () =
  check_bool "dk_conv1x1 unsolvable top-down" false (run_td "dk_conv1x1").Stagg.Result_.solved;
  check_bool "dk_conv1x1 unsolvable bottom-up" false (run_bu "dk_conv1x1").Stagg.Result_.solved

(* Under the trace oracle the five-index query is refused before any
   search: nothing is traced, nothing is attempted, and the refusal is
   the failure. *)
let test_five_index_trace_refused () =
  let r = Stagg.Pipeline.run Stagg.Method_.td_trace (bench "dk_conv1x1") in
  check_bool "unsolved" false r.Stagg.Result_.solved;
  check_bool "not traced" false r.traced;
  check_int "no trace templates" 0 r.trace_templates;
  check_int "no attempts" 0 r.attempts;
  match r.failure with
  | Some f ->
      check_bool ("failure is the trace refusal: " ^ f) true
        (String.starts_with ~prefix:"trace:" f)
  | None -> Alcotest.fail "no failure recorded"

let test_parallel_determinism () =
  (* a domain pool must not change what is computed: run_suite with 1 and
     4 workers agree on every field except wall-clock time *)
  let benches =
    List.filter_map Suite.find
      [ "art_copy"; "art_gemv"; "art_gemm"; "dsp_mean8"; "sa_const_sub"; "dk_mse" ]
  in
  let strip (r : Stagg.Result_.t) = { r with time_s = 0. } in
  let seq = List.map strip (Stagg.Pipeline.run_suite ~jobs:1 Stagg.Method_.stagg_td benches) in
  let par = List.map strip (Stagg.Pipeline.run_suite ~jobs:4 Stagg.Method_.stagg_td benches) in
  check_bool "jobs:1 and jobs:4 agree modulo time_s" true (seq = par)

let test_determinism () =
  let norm (r : Stagg.Result_.t) =
    ( r.solved,
      r.attempts,
      r.expansions,
      Option.map (fun s -> Stagg_taco.Pretty.program_to_string s.Stagg_validate.Validator.concrete) r.solution )
  in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " deterministic") true (norm (run_td name) = norm (run_td name)))
    [ "art_gemv"; "dk_mse"; "blas_saxpy" ]

let test_prepare_artifacts () =
  match Stagg.Pipeline.prepare Stagg.Method_.stagg_td (bench "art_gemv") with
  | Error e -> Alcotest.fail e
  | Ok prep ->
      check_bool "candidates parsed" true (List.length prep.candidates >= 8);
      check_bool "templates exist" true (prep.templates <> []);
      Alcotest.(check (list int)) "gemv dimension list" [ 1; 2; 1 ] prep.dim_list;
      (* LHS templatized symbol is a; templates use canonical indices *)
      List.iter
        (fun t ->
          check_string "LHS symbol" "a" (fst t.Stagg_taco.Ast.lhs))
        prep.templates

let test_solution_substitution_sound () =
  let r = run_td "blas_sgemm" in
  match r.solution with
  | Some sol ->
      (* every bound argument is a real parameter of the benchmark *)
      let b = bench "blas_sgemm" in
      let params = List.map fst b.signature.args in
      List.iter
        (fun (_, arg) -> check_bool (arg ^ " is a parameter") true (List.mem arg params))
        sol.subst.tensor_binding
  | None -> Alcotest.fail "sgemm not solved"

let test_ablation_configs_run () =
  (* each grammar configuration completes on an easy benchmark *)
  List.iter
    (fun m ->
      let r = Stagg.Pipeline.run m (bench "art_gemv") in
      check_bool (m.Stagg.Method_.label ^ " solves gemv") true r.Stagg.Result_.solved)
    [
      Stagg.Method_.td_equal_probability;
      Stagg.Method_.td_llm_grammar;
      Stagg.Method_.td_full_grammar;
      Stagg.Method_.bu_equal_probability;
      Stagg.Method_.bu_llm_grammar;
      Stagg.Method_.bu_full_grammar;
    ]

let test_no_verify_mode () =
  let m = { Stagg.Method_.stagg_td with verify = false } in
  let r = Stagg.Pipeline.run m (bench "art_dot") in
  check_bool "validation-only mode solves" true r.Stagg.Result_.solved

(* The per-candidate validator path is the reference for the batched
   one: over the smoke methods and the artificial suite, both must agree
   per kernel on every count and on the first solution. The wall-clock
   backstop is off so that only the deterministic caps can stop a
   search. *)
let test_batched_matches_per_candidate () =
  let run (m : Stagg.Method_.t) batched_validate =
    Stagg.Pipeline.run_suite
      {
        m with
        batched_validate;
        budget = { m.budget with Stagg_search.Astar.timeout_s = Float.infinity };
      }
      Suite.artificial
  in
  let first (r : Stagg.Result_.t) =
    Option.map (fun s -> Stagg_taco.Pretty.program_to_string s.Stagg_validate.Validator.concrete)
      r.solution
  in
  List.iter
    (fun (m : Stagg.Method_.t) ->
      List.iter2
        (fun (b : Stagg.Result_.t) (p : Stagg.Result_.t) ->
          let lbl = m.label ^ "/" ^ b.bench in
          let check_int what f = Alcotest.(check int) (lbl ^ " " ^ what) (f b) (f p) in
          check_bool (lbl ^ " solved") b.solved p.solved;
          check_int "attempts" (fun r -> r.attempts);
          check_int "instantiations" (fun r -> r.instantiations);
          check_int "expansions" (fun r -> r.expansions);
          check_int "suppressed" (fun r -> r.suppressed);
          Alcotest.(check (option string)) (lbl ^ " first solution") (first b) (first p))
        (run m true) (run m false))
    Stagg.Method_.[ stagg_td; stagg_bu; td_full_grammar; bu_full_grammar ]

(* The A* searches accept only grammars whose child metrics extend
   incrementally, and top-down also needs static depth tables. Every
   grammar a method row builds on the suite must meet that contract. *)
let test_grammars_fit_search_contract () =
  let audited = ref 0 in
  List.iter
    (fun (m : Stagg.Method_.t) ->
      List.iter
        (fun (b : Bench.t) ->
          match Stagg.Pipeline.prepare m b with
          | Error _ -> ()
          | Ok prep ->
              incr audited;
              let lbl = m.label ^ "/" ^ b.name in
              let g = Stagg_grammar.Pcfg.cfg prep.pcfg in
              check_bool (lbl ^ " incremental-safe") true (Stagg_search.Node.incremental_safe g);
              if m.search = Stagg.Method_.Top_down then
                check_bool (lbl ^ " depth-static") true
                  (Stagg_search.Node.depth_static (Stagg_search.Node.fingerprints g)))
        Suite.all)
    Stagg.Method_.
      [
        stagg_td;
        stagg_bu;
        td_trace;
        td_trace_llm;
        td_equal_probability;
        td_llm_grammar;
        td_full_grammar;
        bu_equal_probability;
        bu_llm_grammar;
        bu_full_grammar;
      ];
  Alcotest.(check int) "grammars audited" 760 !audited

let () =
  Alcotest.run "stagg_pipeline"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "top-down representatives" `Slow test_td_representatives;
          Alcotest.test_case "semantic equivalents verified" `Slow test_td_semantic_equivalents_accepted;
          Alcotest.test_case "bottom-up representatives" `Slow test_bu_representatives;
          Alcotest.test_case "bottom-up structural limits" `Slow test_bu_structural_limits;
          Alcotest.test_case "five-index query unsolvable" `Slow test_five_index_unsolvable;
          Alcotest.test_case "five-index query refused by the trace oracle" `Quick
            test_five_index_trace_refused;
          Alcotest.test_case "determinism" `Slow test_determinism;
          Alcotest.test_case "parallel determinism" `Slow test_parallel_determinism;
          Alcotest.test_case "prepared artifacts" `Quick test_prepare_artifacts;
          Alcotest.test_case "substitutions bind parameters" `Slow test_solution_substitution_sound;
          Alcotest.test_case "ablation configurations" `Slow test_ablation_configs_run;
          Alcotest.test_case "validation-only mode" `Quick test_no_verify_mode;
          Alcotest.test_case "batched validation matches per-candidate" `Slow
            test_batched_matches_per_candidate;
          Alcotest.test_case "grammars fit the search contract" `Quick
            test_grammars_fit_search_contract;
        ] );
    ]
