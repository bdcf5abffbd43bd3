(** The [stagg] command-line interface.

    - [stagg list] — enumerate the benchmark suite;
    - [stagg lift NAME] — run the full pipeline on one benchmark;
    - [stagg show NAME] — dump the pipeline's intermediate artifacts
      (LLM candidates, templates, dimension list, learned pCFG);
    - [stagg kernel NAME] — print the TACO-compiled loop nest of a
      benchmark's lifting;
    - [stagg suite] — run a method over the whole suite;
    - [stagg experiments] — regenerate the paper's tables and figures. *)

open Cmdliner
module Suite = Stagg_benchsuite.Suite
module Bench = Stagg_benchsuite.Bench

let find_bench_exn name =
  match Suite.find name with
  | Some b -> b
  | None ->
      Printf.eprintf "unknown benchmark %s (try `stagg list`)\n" name;
      exit 2

let method_of_string = function
  | "td" -> Stagg.Method_.stagg_td
  | "bu" -> Stagg.Method_.stagg_bu
  | "td-equal" -> Stagg.Method_.td_equal_probability
  | "td-llm-grammar" -> Stagg.Method_.td_llm_grammar
  | "td-full-grammar" -> Stagg.Method_.td_full_grammar
  | "bu-equal" -> Stagg.Method_.bu_equal_probability
  | "bu-llm-grammar" -> Stagg.Method_.bu_llm_grammar
  | "bu-full-grammar" -> Stagg.Method_.bu_full_grammar
  | "trace" -> Stagg.Method_.td_trace
  | "trace+llm" | "trace-llm" -> Stagg.Method_.td_trace_llm
  | s ->
      Printf.eprintf "unknown method %s\n" s;
      exit 2

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun (b : Bench.t) ->
        Printf.printf "%-22s %-12s llm=%-5s %s\n" b.name
          (Bench.category_to_string b.category)
          (Stagg_oracle.Llm_client.quality_to_string b.llm_quality)
          b.ground_truth)
      Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the 77 benchmarks with their ground-truth liftings.")
    Term.(const run $ const ())

(* ---- lift ---- *)

let name_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK")

let method_arg =
  Arg.(
    value
    & opt string "td"
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:
          "Search method: td, bu, td-equal, td-llm-grammar, td-full-grammar, bu-equal, ..., \
           trace, trace+llm")

let lift_cmd =
  let run name meth no_analysis oracle =
    let b = find_bench_exn name in
    let r =
      Stagg.Pipeline.run
        (Cli_flags.with_oracle oracle (Cli_flags.with_analysis no_analysis (method_of_string meth)))
        b
    in
    Format.printf "%a@." Stagg.Result_.pp r;
    (match r.solution with
    | Some sol ->
        Format.printf "  template: %s@." (Stagg_taco.Pretty.program_to_string sol.template);
        Format.printf "  substitution: %a@." Stagg_template.Subst.pp sol.subst
    | None -> ());
    exit (if r.solved then 0 else 1)
  in
  Cmd.v
    (Cmd.info "lift" ~doc:"Lift one benchmark to TACO and print the verified solution.")
    Term.(const run $ name_arg $ method_arg $ Cli_flags.no_analysis $ Cli_flags.oracle)

(* ---- show ---- *)

let show_cmd =
  let run name meth =
    let b = find_bench_exn name in
    let m = method_of_string meth in
    Printf.printf "=== C source ===%s\n" b.c_source;
    (match Stagg.Pipeline.prepare m b with
    | Error e -> Printf.printf "pipeline failed during preparation: %s\n" e
    | Ok prep ->
        Printf.printf "=== LLM candidates (parsed) ===\n";
        List.iter
          (fun c -> Printf.printf "  %s\n" (Stagg_taco.Pretty.program_to_string c))
          prep.candidates;
        Printf.printf "=== templatized ===\n";
        List.iter
          (fun t -> Printf.printf "  %s\n" (Stagg_taco.Pretty.program_to_string t))
          prep.templates;
        Printf.printf "=== predicted dimension list: %s ===\n"
          (Stagg_template.Dimlist.to_string prep.dim_list);
        Format.printf "=== probabilistic grammar ===@.%a@." Stagg_grammar.Pcfg.pp prep.pcfg)
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Dump the pipeline's intermediate artifacts for one benchmark (Fig. 1 stages ①–②).")
    Term.(const run $ name_arg $ method_arg)

(* ---- analyze ---- *)

let analyze_cmd =
  let run name meth =
    let b = find_bench_exn name in
    let m = method_of_string meth in
    let facts = Stagg_minic.Facts.analyze (Bench.func b) in
    Format.printf "%a@." Stagg_minic.Facts.pp facts;
    (match facts.ft_verdict with
    | Error _ -> ()
    | Ok () -> (
        (* the analysis passed: show what it buys the search *)
        match Stagg.Pipeline.prepare m b with
        | Error e -> Printf.printf "grammar pruning: n/a (preparation failed: %s)\n" e
        | Ok prep ->
            let q = Stagg.Pipeline.query_of_bench m b in
            let consts = Stagg_minic.Ast.constants (Bench.func b) in
            (match Stagg.Pipeline.prune_of m q ~consts prep with
            | None -> Printf.printf "grammar pruning: off (analysis or fingerprint dedup disabled)\n"
            | Some pr ->
                Printf.printf "grammar pruning (%s): %d/%d rules doomed%s\n" m.label
                  (Stagg_grammar.Prune.n_doomed pr) (Stagg_grammar.Prune.n_rules pr)
                  (if Stagg_grammar.Prune.tracks_arity pr then ", arity tracking on" else "");
                List.iter
                  (fun (reason, n) -> Printf.printf "  %-28s %d\n" reason n)
                  (Stagg_grammar.Prune.doomed_counts pr))));
    exit (match facts.ft_verdict with Ok () -> 0 | Error _ -> 1)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static liftability analysis on one benchmark: access patterns, dependence \
          classes, operator facts, warnings, verdict, and the grammar rules it dooms.")
    Term.(const run $ name_arg $ method_arg)

(* ---- kernel ---- *)

let kernel_cmd =
  let run name =
    let b = find_bench_exn name in
    match Bench.truth b with
    | None -> Printf.printf "%s has no TACO-expressible lifting\n" b.name
    | Some p -> (
        Printf.printf "TACO: %s\n\n" (Stagg_taco.Pretty.program_to_string p);
        match Stagg_taco.Lower.lower p with
        | Error e -> Printf.printf "lowering failed: %s\n" e
        | Ok k -> print_string (Stagg_taco.Ir.kernel_to_c ~name:b.name k))
  in
  Cmd.v
    (Cmd.info "kernel"
       ~doc:"Compile a benchmark's ground-truth TACO program to a loop-nest kernel and print it.")
    Term.(const run $ name_arg)

(* ---- suite ---- *)

let suite_cmd =
  let run meth jobs no_analysis oracle =
    let results =
      match meth with
      | "llm" ->
          Stagg_baselines.Llm_only.run_suite ~jobs ~seed:20250604 Suite.all
      | "c2taco" ->
          Stagg_baselines.C2taco.run_suite ~jobs ~seed:20250604 ~heuristics:true Suite.all
      | "c2taco-noh" ->
          Stagg_baselines.C2taco.run_suite ~jobs ~seed:20250604 ~heuristics:false Suite.all
      | "tenspiler" ->
          Stagg_baselines.Tenspiler.run_suite ~jobs ~seed:20250604 Suite.real_world
      | m ->
          Stagg.Pipeline.run_suite ~jobs
            (Cli_flags.with_oracle oracle (Cli_flags.with_analysis no_analysis (method_of_string m)))
            Suite.all
    in
    List.iter (fun r -> Format.printf "%a@." Stagg.Result_.pp r) results;
    let solved = List.filter (fun r -> r.Stagg.Result_.solved) results in
    Printf.printf "\nsolved %d/%d\n" (List.length solved) (List.length results)
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"Run one method over the whole suite and print per-query results.")
    Term.(const run $ method_arg $ Cli_flags.jobs $ Cli_flags.no_analysis $ Cli_flags.oracle)

(* ---- lift-file: arbitrary C + signature spec + recorded LLM transcript ---- *)

let lift_file_cmd =
  let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c") in
  let sig_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "s"; "sig" ] ~docv:"SPEC"
          ~doc:
            "Tensor signature of the function's parameters, e.g. \
             'N:size,M:size,A:arr[N,M],X:arr[M],R:out[N]'.")
  in
  let replay_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "r"; "llm-replay" ] ~docv:"TRANSCRIPT"
          ~doc:
            "File of recorded LLM response lines (one candidate per line; # comments ignored). \
             Record it by sending the paper's Prompt 1 to any model.")
  in
  let run path spec replay meth =
    let read_file p =
      let ic = open_in p in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let c_source = read_file path in
    match Stagg_minic.Parser.parse_function c_source with
    | Error e ->
        Printf.eprintf "C parse error: %s\n" e;
        exit 2
    | Ok func -> (
        match Stagg_minic.Sigspec.parse spec with
        | Error e ->
            Printf.eprintf "signature spec error: %s\n" e;
            exit 2
        | Ok signature ->
            let m = method_of_string meth in
            let q =
              {
                Stagg.Pipeline.qname = Filename.basename path;
                func;
                signature;
                c_source;
                client = Stagg_oracle.Replay.of_file replay;
                oracle = m.Stagg.Method_.oracle;
              }
            in
            let r = Stagg.Pipeline.lift m q in
            Format.printf "%a@." Stagg.Result_.pp r;
            (match r.solution with
            | Some sol ->
                Format.printf "  template: %s@."
                  (Stagg_taco.Pretty.program_to_string sol.template);
                Format.printf "  substitution: %a@." Stagg_template.Subst.pp sol.subst
            | None -> ());
            exit (if r.solved then 0 else 1))
  in
  Cmd.v
    (Cmd.info "lift-file"
       ~doc:
         "Lift an arbitrary C file using a recorded LLM transcript as the candidate oracle.")
    Term.(const run $ file_arg $ sig_arg $ replay_arg $ method_arg)

(* ---- export: lifted program to NumPy / PyTorch / TACO C++ ---- *)

let export_cmd =
  let backend_arg =
    Arg.(
      value
      & opt string "numpy"
      & info [ "b"; "backend" ] ~docv:"BACKEND" ~doc:"Target: numpy, pytorch, or taco-cpp.")
  in
  let run name backend meth =
    let b = find_bench_exn name in
    let r = Stagg.Pipeline.run (method_of_string meth) b in
    match r.solution with
    | None ->
        Printf.eprintf "%s was not lifted (%s)\n" name (Option.value ~default:"?" r.failure);
        exit 1
    | Some sol -> (
        let export =
          match backend with
          | "numpy" -> Stagg_taco.Export.to_numpy ~name
          | "pytorch" -> Stagg_taco.Export.to_pytorch ~name
          | "taco-cpp" -> Stagg_taco.Export.to_taco_cpp ~name
          | b ->
              Printf.eprintf "unknown backend %s\n" b;
              exit 2
        in
        match export sol.concrete with
        | Ok code -> print_string code
        | Error e ->
            Printf.eprintf "export failed: %s\n" e;
            exit 1)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Lift a benchmark and render the result for a high-performance backend.")
    Term.(const run $ name_arg $ backend_arg $ method_arg)

(* ---- experiments ---- *)

let experiments_cmd =
  let core_flag =
    Arg.(value & flag & info [ "core" ] ~doc:"Only Table 1 and Figures 9–10 (skip ablations).")
  in
  let run core jobs =
    let progress msg = Printf.eprintf "[experiments] %s\n%!" msg in
    let runs =
      if core then Stagg_report.Experiments.run_core ~progress ~jobs ()
      else Stagg_report.Experiments.run_all ~progress ~jobs ()
    in
    print_string (Stagg_report.Experiments.table1 runs);
    print_newline ();
    print_string (Stagg_report.Experiments.fig9 runs);
    print_newline ();
    print_string (Stagg_report.Experiments.fig10 runs);
    if not core then begin
      print_newline ();
      print_string (Stagg_report.Experiments.table2 runs);
      print_newline ();
      print_string (Stagg_report.Experiments.table3 runs);
      print_newline ();
      print_string (Stagg_report.Experiments.fig11 runs);
      print_newline ();
      print_string (Stagg_report.Experiments.fig12 runs)
    end
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper's tables and figures (§8).")
    Term.(const run $ core_flag $ Cli_flags.jobs)

(* ---- serve ---- *)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve a Unix-domain socket at $(docv) (line-delimited JSON requests and \
             responses; serial accept). Without this flag the server speaks stdin/stdout.")
  in
  let stdio_arg =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Serve stdin → stdout (the default; explicit flag for scripts' clarity).")
  in
  let serve_jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Process up to $(docv) requests concurrently. Identical concurrent requests \
             single-flight through the result cache; 1 (the default) is fully \
             deterministic: responses depend only on the request stream.")
  in
  let cache_max_arg =
    Arg.(
      value & opt int 1024
      & info [ "cache-max" ] ~docv:"M"
          ~doc:"Result-cache capacity (ready entries; least-recently-used eviction).")
  in
  let no_verify_arg =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"Skip bounded verification of lifted (and remapped) results.")
  in
  let run socket stdio jobs cache_max no_verify =
    ignore stdio;
    let config = { Stagg_serve.Server.jobs; cache_max; verify = not no_verify } in
    let server = Stagg_serve.Server.create ~config () in
    match socket with
    | Some path -> Stagg_serve.Server.run_socket server ~path
    | None -> Stagg_serve.Server.run_stdio server
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the lifting server: line-delimited JSON requests ($(b,{\"c\": ..., \"sig\": \
          ...})) in, lifted TACO programs out, with a canonical-fingerprint result cache \
          (single-flight, LRU) in front of the search.")
    Term.(const run $ socket_arg $ stdio_arg $ serve_jobs_arg $ cache_max_arg $ no_verify_arg)

(* ---- lint ---- *)

let lint_cmd =
  let roots_arg =
    Arg.(
      value & opt_all string []
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Directory tree to scan for .cmt files (repeatable). Defaults to \
             $(b,_build/default/lib) when it exists, else $(b,lib) — i.e. the compiled \
             libraries of this repository.")
  in
  let allow_arg =
    Arg.(
      value
      & opt string "lint.allow"
      & info [ "allow" ] ~docv:"FILE"
          ~doc:
            "Suppression file: each intentional finding carries a rule, a source location \
             and a one-line justification; $(b,protocol-module) lines declare the modules \
             allowed to use raw claim/done/taken atomics.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Print only violations, not suppressions.")
  in
  let run roots allow_file quiet =
    let roots =
      match roots with
      | [] -> if Sys.file_exists "_build/default/lib" then [ "_build/default/lib" ] else [ "lib" ]
      | rs -> rs
    in
    let allow =
      if Sys.file_exists allow_file then
        match Stagg_lint.Report.load allow_file with
        | Ok a -> a
        | Error e ->
            Printf.eprintf "lint: bad allow file %s: %s\n" allow_file e;
            exit 2
      else Stagg_lint.Report.empty
    in
    let cmt_files = List.concat_map Stagg_lint.Engine.scan_dir roots in
    if cmt_files = [] then begin
      Printf.eprintf
        "lint: no .cmt files under %s (build the tree first: dune build)\n"
        (String.concat ", " roots);
      exit 2
    end;
    let verdict, stats = Stagg_lint.Engine.analyze ~cmt_files ~allow in
    if not quiet then
      List.iter
        (fun ((f : Stagg_lint.Report.finding), (e : Stagg_lint.Report.entry)) ->
          Printf.printf "allowed: %s -- %s\n" (Stagg_lint.Report.finding_to_string f) e.e_just)
        verdict.suppressed;
    List.iter
      (fun (e : Stagg_lint.Report.entry) ->
        Printf.printf "warning: unused allow entry (line %d): %s %s:%s\n" e.e_line
          (Stagg_lint.Report.rule_id e.e_rule) e.e_file e.e_context)
      verdict.unused_entries;
    List.iter
      (fun f -> Printf.printf "VIOLATION: %s\n" (Stagg_lint.Report.finding_to_string f))
      verdict.violations;
    Printf.printf "lint: %d modules, %d findings (%d suppressed, %d violations)\n"
      stats.modules stats.findings
      (List.length verdict.suppressed)
      (List.length verdict.violations);
    if verdict.violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Domain-safety static analysis over this repository's compiled libraries: \
          domain-crossing access to unguarded mutable state, raw atomic protocol ops \
          outside protocol modules, non-toplevel DLS keys, blocking calls under a mutex, \
          and nondeterminism sources.")
    Term.(const run $ roots_arg $ allow_arg $ quiet_arg)

let () =
  let info =
    Cmd.info "stagg" ~version:"1.0.0"
      ~doc:"Guided tensor lifting: synthesize TACO programs from legacy C (PLDI 2025 reproduction)."
  in
  exit (Cmd.eval (Cmd.group info
       [ list_cmd; lift_cmd; lift_file_cmd; export_cmd; show_cmd; analyze_cmd; kernel_cmd;
         suite_cmd; serve_cmd; experiments_cmd; lint_cmd ]))
