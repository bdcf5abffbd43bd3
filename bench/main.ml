(** The benchmark harness: regenerates every table and figure of the
    paper's evaluation (§8) and runs Bechamel micro-benchmarks — one
    [Test.make] per experiment — timing a representative query for each.

    Run with [dune exec bench/main.exe]; [-- --help] lists the flags.
    [--skip-ablations] produces only Table 1 and Figures 9–10;
    [--skip-bechamel] skips the micro-benchmark pass; [--jobs N] (or
    [-j N]) runs the sweeps on a pool of N domains (default:
    [Domain.recommended_domain_count () - 1]; [--jobs 1] reproduces the
    sequential harness exactly, modulo timing); [--json FILE] also
    writes the machine-readable summary as JSON for perf-trajectory
    tracking; [--no-analysis] runs the STAGG methods without the static
    analysis, the reference its pruning is checked against. [--smoke]
    is the <60s artificial-suite CI sweep ([dune build @smoke] runs it
    and diffs the JSON against the committed expectations), steered by
    [--oracle] and [--heap-ceiling WORDS]; [--serve-smoke] replays a
    deterministic request mix through an in-process server.

    [--jobs], [--no-analysis] and [--oracle] are defined once, in
    {!Cli_flags}, and shared with the [stagg] CLI. Serve throughput and
    latency under load are the lifting benchmark's serve-mix workload
    ([sh liftbench/run.sh --workload serve-mix]). *)

module Experiments = Stagg_report.Experiments

let representative name =
  match Stagg_benchsuite.Suite.find name with
  | Some b -> b
  | None -> failwith ("missing benchmark " ^ name)

(* ---- Bechamel micro-benchmarks: one per table/figure ---- *)

(* The staged evaluator vs the reference interpreter on the validation
   hot path: gemv at the validator's own example sizes (N=3, M=4). The
   compiled program is built once outside the timed closure, as the
   validator compiles once per instantiation and evaluates per example. *)
let evaluator_tests () =
  let open Bechamel in
  let module T = Stagg_taco.Tensor in
  let module I = Stagg_taco.Interp.Make (Stagg_util.Value.Rat_value) in
  let module C = Stagg_taco.Compile.Make (Stagg_util.Value.Rat_value) in
  let p = Stagg_taco.Parser.parse_program_exn "R(i) = A(i, j) * X(j)" in
  let r = Stagg_util.Rat.of_int in
  let env =
    [
      ("A", T.of_flat_array [| 3; 4 |] (Array.init 12 (fun k -> r (k + 1))));
      ("X", T.of_flat_array [| 4 |] (Array.init 4 (fun k -> r (k + 2))));
    ]
  in
  let lhs_shape = [| 3 |] in
  let expected =
    match I.run ~env ~lhs_shape p with
    | Ok t -> T.to_flat_array t
    | Error e -> failwith e
  in
  let compiled = C.compile p in
  (* the same kernel as the validator sees it: a template whose symbols
     are substituted per candidate — once by instantiate+compile (the
     per-candidate path), once by rebind over the shared template
     compilation (the batched path) *)
  let template = Stagg_taco.Parser.parse_program_exn "a(i) = b(i, j) * c(j)" in
  let mapping = [ ("a", "R"); ("b", "A"); ("c", "X") ] in
  let template_compiled = C.compile_template template in
  [
    Test.make ~name:"validator kernel: gemv Interp.run"
      (Staged.stage (fun () -> ignore (I.run ~env ~lhs_shape p)));
    Test.make ~name:"validator kernel: gemv Compile.run_equal"
      (Staged.stage (fun () -> ignore (C.run_equal compiled ~env ~lhs_shape ~expected)));
    Test.make ~name:"validator kernel: gemv instantiate+compile+run_equal"
      (Staged.stage (fun () ->
           let concrete = Stagg_template.Templatize.rename template ~mapping ~const:None in
           let c = C.compile concrete in
           ignore (C.run_equal c ~env ~lhs_shape ~expected)));
    Test.make ~name:"validator kernel: gemv rebind+run_equal (batched)"
      (Staged.stage (fun () ->
           C.rebind template_compiled ~mapping ~const:None;
           ignore (C.run_equal template_compiled ~env ~lhs_shape ~expected)));
  ]

(* Per-layer rows for the mini-C interpreter under each of its value
   domains: traced DAGs (the candidate oracle), rationals (I/O example
   generation) and rational functions (bounded verification).
   [dk_conv1x1] is the suite's slowest kernel to trace. *)
let interpreter_tests () =
  let open Bechamel in
  let module Bench = Stagg_benchsuite.Bench in
  let skeletons name =
    let b = representative name in
    let func = Bench.func b in
    Test.make ~name:("oracle: Trace.skeletons " ^ name)
      (Staged.stage (fun () -> ignore (Stagg_oracle.Trace.skeletons func b.Bench.signature)))
  in
  let gemv = representative "art_gemv" in
  let func = Bench.func gemv and signature = gemv.Bench.signature in
  let candidate = Option.get (Bench.truth gemv) in
  [
    skeletons "dk_conv1x1";
    skeletons "art_ttm";
    Test.make ~name:"examples: Examples.generate art_gemv"
      (Staged.stage (fun () ->
           ignore
             (Stagg_validate.Examples.generate ~func ~signature
                ~prng:(Stagg_util.Prng.create ~seed:1) ())));
    Test.make ~name:"verify: Bmc.check art_gemv"
      (Staged.stage (fun () -> ignore (Stagg_verify.Bmc.check ~func ~signature ~candidate ())));
  ]

let bechamel_tests () =
  let open Bechamel in
  let gemv = representative "art_gemv" in
  let run_method m () = ignore (Stagg.Pipeline.run m gemv) in
  let staged f = Staged.stage f in
  evaluator_tests () @ interpreter_tests ()
  @ [
    (* Table 1 / Fig 9 / Fig 10: the head-to-head methods *)
    Test.make ~name:"table1/fig9/fig10 STAGG_TD" (staged (run_method Stagg.Method_.stagg_td));
    Test.make ~name:"table1/fig9/fig10 STAGG_BU" (staged (run_method Stagg.Method_.stagg_bu));
    Test.make ~name:"table1 LLM-only"
      (staged (fun () -> ignore (Stagg_baselines.Llm_only.run ~seed:1 gemv)));
    Test.make ~name:"table1 C2TACO"
      (staged (fun () -> ignore (Stagg_baselines.C2taco.run ~seed:1 ~heuristics:true gemv)));
    Test.make ~name:"table1 Tenspiler"
      (staged (fun () -> ignore (Stagg_baselines.Tenspiler.run ~seed:1 gemv)));
    (* Table 2: the penalty machinery *)
    Test.make ~name:"table2 STAGG_TD.Drop(A)"
      (staged (run_method (Stagg.Method_.drop_all_penalties Stagg.Method_.stagg_td "A")));
    (* Table 3 / Figs 11-12: grammar configurations *)
    Test.make ~name:"table3/fig11 TD.EqualProbability"
      (staged (run_method Stagg.Method_.td_equal_probability));
    Test.make ~name:"table3/fig11 TD.LLMGrammar" (staged (run_method Stagg.Method_.td_llm_grammar));
    Test.make ~name:"table3/fig12 TD.FullGrammar"
      (staged (run_method Stagg.Method_.td_full_grammar));
    ]

(* Each Bechamel test is self-contained, so the micro-benchmark pass runs
   on the same domain pool as the experiment sweeps; workers return their
   report lines and the caller prints them in test order. Expect a little
   more measurement noise at [jobs > 1] — worker domains share the
   machine while measuring. *)
let run_bechamel ~jobs () =
  let open Bechamel in
  let open Toolkit in
  print_endline "== Bechamel micro-benchmarks (one per experiment; gemv query) ==";
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.5) () in
  let measure test =
    let buf = Buffer.create 128 in
    let results = Benchmark.all cfg instances test in
    Hashtbl.iter
      (fun name raw ->
        match
          Analyze.one
            (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
            Instance.monotonic_clock raw
        with
        | ols -> (
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Printf.bprintf buf "  %-44s %14.0f ns/run\n" name est
            | _ -> Printf.bprintf buf "  %-44s (no estimate)\n" name)
        | exception _ -> Printf.bprintf buf "  %-44s (analysis failed)\n" name)
      results;
    Buffer.contents buf
  in
  List.iter print_string (Stagg_util.Pool.map ~jobs measure (bechamel_tests ()))

(* ---- smoke mode: a <60s CI sweep over the artificial suite ----

   Runs the two head-to-head methods plus the (slowest) FullGrammar
   configurations over the 10 artificial queries only. Everything
   emitted — solved counts, attempt totals — is deterministic, so the
   [--json] output can be diffed byte-for-byte against the committed
   [bench/smoke_expected.json] (the [@smoke] dune alias does exactly
   that); a drift means a search-behavior change, not noise. *)

let smoke_methods =
  [
    Stagg.Method_.stagg_td;
    Stagg.Method_.stagg_bu;
    Stagg.Method_.td_full_grammar;
    Stagg.Method_.bu_full_grammar;
  ]

let smoke_json rows =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "{\n  \"schema_version\": %d,\n  \"suite\": \"artificial\",\n  \"methods\": [\n"
    Stagg_report.Experiments.schema_version;
  let n = List.length rows in
  List.iteri
    (fun i (label, rs) ->
      let solved = List.length (List.filter (fun (r : Stagg.Result_.t) -> r.solved) rs) in
      let sum f = List.fold_left (fun a (r : Stagg.Result_.t) -> a + f r) 0 rs in
      Printf.bprintf buf
        "    { \"method\": %S, \"solved\": %d, \"total\": %d, \"total_attempts\": %d, \
         \"total_instantiations\": %d, \"total_expansions\": %d, \"total_suppressed\": %d }%s\n"
        label solved (List.length rs)
        (sum (fun r -> r.attempts))
        (sum (fun r -> r.instantiations))
        (sum (fun r -> r.expansions))
        (sum (fun r -> r.suppressed))
        (if i = n - 1 then "" else ","))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let run_smoke ~json_file ~heap_ceiling ~tune () =
  let benches = Stagg_benchsuite.Suite.artificial in
  let t0 = Unix.gettimeofday () in
  let rows =
    List.map
      (fun (m : Stagg.Method_.t) -> (m.label, Stagg.Pipeline.run_suite (tune m) benches))
      smoke_methods
  in
  Printf.printf "== smoke sweep (artificial suite, %d queries) ==\n" (List.length benches);
  List.iter
    (fun (label, rs) ->
      let solved = List.length (List.filter (fun (r : Stagg.Result_.t) -> r.solved) rs) in
      Printf.printf "  %-24s solved %2d/%d\n" label solved (List.length rs))
    rows;
  Printf.printf "smoke wall: %.1fs\n" (Unix.gettimeofday () -. t0);
  (match json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (smoke_json rows);
      close_out oc;
      Printf.eprintf "[bench] wrote %s\n%!" file);
  (* memory regression gate: the process-lifetime major-heap high-water
     mark must stay under the recorded ceiling. Reported on stderr (and
     asserted), never in the byte-diffed JSON — heap words are
     deterministic for a given runtime build but not across them. *)
  match heap_ceiling with
  | None -> ()
  | Some ceiling ->
      let peak = (Gc.quick_stat ()).Gc.top_heap_words in
      Printf.eprintf "[bench] peak heap: %d words (ceiling %d)\n%!" peak ceiling;
      if peak > ceiling then begin
        Printf.eprintf "[bench] FAIL: smoke peak heap %d words exceeds ceiling %d\n%!" peak
          ceiling;
        exit 1
      end

(* ---- liftability diagnostics: the analyzer's fail-fast path ----

   Runs STAGG^TD over the deliberately-unliftable demo kernels
   ([Suite.diagnostics], not part of the 77): each is rejected by the
   static analysis before any search, with a diagnostic naming the
   offending construct. Kept out of the smoke sweep (and of every
   table) — this is a demonstration, not a measurement. *)
let run_diagnostics () =
  print_endline "== liftability diagnostics (unliftable demo kernels, rejected before search) ==";
  List.iter
    (fun b ->
      let r = Stagg.Pipeline.run Stagg.Method_.stagg_td b in
      Format.printf "%a@." Stagg.Result_.pp r)
    Stagg_benchsuite.Suite.diagnostics;
  print_newline ()

(* ---- serve modes: the lift-as-a-service bench legs ----

   [--serve-smoke] replays a small deterministic request mix — distinct
   kernels, an exact repeat, an alpha-renamed variant, a
   constant-renamed variant, an unliftable kernel, two malformed
   requests and a stats probe — through one in-process server, cold
   then warm, at jobs = 1. Every response field except per-request wall
   time is deterministic, so the normalized output is byte-diffed
   against committed expectations by the third @smoke leg: a drift
   means the cache/single-flight/remap behavior changed, not noise. *)

module J = Stagg_serve.Json

(* Per-request wall time is the only nondeterministic response field;
   drop it, keep everything else byte-exact. *)
let normalize_response line =
  match J.of_string line with
  | Ok (J.Obj fields) ->
      J.to_string (J.Obj (List.filter (fun (k, _) -> not (String.equal k "time_s")) fields))
  | Ok j -> J.to_string j
  | Error _ -> line

let serve_smoke_requests () =
  let req fields = J.to_string (J.Obj fields) in
  let lift id c sg = req [ ("id", J.String id); ("c", J.String c); ("sig", J.String sg) ] in
  let mul3 = "void f(int n, int *a, int *r) { int i; for (i = 0; i < n; i++) r[i] = a[i] * 3; }" in
  let mul3_alpha =
    "void g(int m, int *x, int *y) { int j; for (j = 0; j < m; j++) y[j] = x[j] * 3; }"
  in
  let mul9 = "void f(int n, int *a, int *r) { int i; for (i = 0; i < n; i++) r[i] = a[i] * 9; }" in
  let add2 =
    "void h(int n, int *a, int *b, int *r) { int i; for (i = 0; i < n; i++) r[i] = a[i] + b[i]; }"
  in
  let diag = List.hd Stagg_benchsuite.Suite.diagnostics in
  [
    lift "mul3" mul3 "n:size,a:arr[n],r:out[n]" (* miss: searched *);
    lift "mul3" mul3 "n:size,a:arr[n],r:out[n]" (* identical repeat: exact-key hit *);
    lift "mul3-alpha" mul3_alpha "m:size,x:arr[m],y:out[m]" (* alpha variant: remap *);
    lift "mul9" mul9 "n:size,a:arr[n],r:out[n]" (* constant variant: remap *);
    lift "add2" add2 "n:size,a:arr[n],b:arr[n],r:out[n]" (* distinct kernel: miss *);
    lift diag.Stagg_benchsuite.Bench.name diag.c_source
      (Stagg_minic.Sigspec.to_string diag.signature) (* unliftable: unsolved *);
    req [ ("id", J.String "bad-c"); ("c", J.String "void f(int n { }"); ("sig", J.String "n:size") ];
    req [ ("id", J.String "no-sig"); ("c", J.String mul3) ];
    req [ ("op", J.String "stats") ];
  ]

let run_serve_smoke ~jobs ~json_file () =
  (* jobs > 1 (the TSan CI leg) races the mix through the single-flight
     cache — useful under the race detector, but which request becomes
     owner is then scheduling-dependent, so only the jobs = 1 output is
     byte-diffable *)
  let server =
    Stagg_serve.Server.create ~config:{ Stagg_serve.Server.jobs; cache_max = 64; verify = true } ()
  in
  let lines = serve_smoke_requests () in
  let buf = Buffer.create 4096 in
  let replay label =
    Printf.bprintf buf "== %s ==\n" label;
    List.iter
      (fun resp ->
        Buffer.add_string buf (normalize_response resp);
        Buffer.add_char buf '\n')
      (Stagg_serve.Server.run_lines server lines)
  in
  let t0 = Unix.gettimeofday () in
  replay "cold";
  replay "warm";
  Printf.printf "== serve smoke (%d requests, cold + warm replay) ==\n" (List.length lines);
  Printf.printf "serve smoke wall: %.1fs\n" (Unix.gettimeofday () -. t0);
  match json_file with
  | None -> print_string (Buffer.contents buf)
  | Some file ->
      let oc = open_out file in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.eprintf "[bench] wrote %s\n%!" file

let run_campaign ~skip_ablations ~skip_bechamel ~analysis ~jobs ~json_file () =
  let progress msg = Printf.eprintf "[bench] %s\n%!" msg in
  let t0 = Unix.gettimeofday () in
  let runs =
    if skip_ablations then Experiments.run_core ~progress ~jobs ~analysis ()
    else Experiments.run_all ~progress ~jobs ~analysis ()
  in
  Printf.printf "Guided Tensor Lifting — experiment harness (suite of %d queries, seed %d%s)\n\n"
    (List.length Stagg_benchsuite.Suite.all)
    runs.seed
    (if analysis then "" else ", static analysis off");
  if analysis then run_diagnostics ();
  print_string (Experiments.table1 runs);
  print_newline ();
  print_string (Experiments.fig9 runs);
  print_newline ();
  print_string (Experiments.fig10 runs);
  print_newline ();
  if not skip_ablations then begin
    print_string (Experiments.table2 runs);
    print_newline ();
    print_string (Experiments.table3 runs);
    print_newline ();
    print_string (Experiments.fig11 runs);
    print_newline ();
    print_string (Experiments.fig12 runs);
    print_newline ()
  end;
  Printf.printf "== machine-readable summary (method, solved, avg time over solved, avg attempts) ==\n";
  print_string (Experiments.summary runs);
  let wall_s = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal harness time: %.1fs\n" wall_s;
  (match json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Experiments.json_summary ~jobs ~wall_s runs);
      close_out oc;
      Printf.eprintf "[bench] wrote %s\n%!" file);
  if not skip_bechamel then run_bechamel ~jobs ()

let main smoke serve_smoke skip_ablations skip_bechamel no_analysis oracle heap_ceiling jobs
    json_file =
  if serve_smoke then run_serve_smoke ~jobs ~json_file ()
  else if smoke then
    run_smoke ~json_file ~heap_ceiling
      ~tune:(fun m -> Cli_flags.with_oracle oracle (Cli_flags.with_analysis no_analysis m))
      ()
  else
    run_campaign ~skip_ablations ~skip_bechamel ~analysis:(not no_analysis) ~jobs ~json_file ()

let () =
  (* The campaign's hot loops (A* frontier, validation memo) allocate
     heavily against a large live heap; the default space_overhead of 120
     spends ~20% of search wall time in major-GC marking. Trading memory
     for time is the right call on a benchmark harness. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 480 };
  let open Cmdliner in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let heap_ceiling =
    Arg.(
      value
      & opt (some Cli_flags.positive_int) None
      & info [ "heap-ceiling" ] ~docv:"WORDS"
          ~doc:"With $(b,--smoke): fail when the peak major heap exceeds $(docv) words.")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the machine-readable summary to $(docv).")
  in
  let term =
    Term.(
      const main
      $ flag "smoke" "Run the <60s artificial-suite CI sweep."
      $ flag "serve-smoke" "Replay the deterministic serve request mix, cold then warm."
      $ flag "skip-ablations" "Only Table 1 and Figures 9–10."
      $ flag "skip-bechamel" "Skip the micro-benchmark pass."
      $ Cli_flags.no_analysis $ Cli_flags.oracle $ heap_ceiling $ Cli_flags.jobs $ json_file)
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "main.exe" ~doc:"The paper's evaluation harness (§8).") term))
