(** The paper's evaluation harness: regenerates every table and figure
    of §8, and runs the [@smoke] CI legs.

    Run with [dune exec bench/main.exe]; [-- --help] lists the flags.
    [--skip-ablations] produces only Table 1 and Figures 9–10; [--jobs N]
    (or [-j N]) runs the sweeps on a pool of N domains (default:
    [Domain.recommended_domain_count () - 1]; [--jobs 1] reproduces the
    sequential harness exactly, modulo timing); [--no-analysis] runs the
    STAGG methods without the static analysis, the reference its pruning
    is checked against. [--smoke] is the <60s artificial-suite CI sweep
    ([dune build @smoke] runs it and diffs its [--json FILE] output
    against the committed expectations), steered by [--oracle] and
    [--heap-ceiling WORDS]; [--serve-smoke] replays a deterministic
    request mix through an in-process server.

    [--jobs], [--no-analysis] and [--oracle] are defined once, in
    {!Cli_flags}, and shared with the [stagg] CLI. Lift throughput,
    latency and per-layer costs are measured by the lifting benchmark
    ([sh liftbench/run.sh]), not here. *)

module Experiments = Stagg_report.Experiments
module Clock = Stagg_util.Clock

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

(* Version of the smoke JSON layout. Bump when a field is added, removed
   or changes meaning, so consumers of the expectations can dispatch
   instead of guessing. *)
let schema_version = 4

let smoke_json rows =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "{\n  \"schema_version\": %d,\n  \"suite\": \"artificial\",\n  \"methods\": [\n"
    schema_version;
  let n = List.length rows in
  List.iteri
    (fun i (label, rs) ->
      let solved = List.length (List.filter (fun (r : Stagg.Result_.t) -> r.solved) rs) in
      let sum f = List.fold_left (fun a (r : Stagg.Result_.t) -> a + f r) 0 rs in
      let peak = List.fold_left (fun a (r : Stagg.Result_.t) -> max a r.peak_frontier) 0 rs in
      Printf.bprintf buf
        "    { \"method\": %S, \"solved\": %d, \"total\": %d, \"total_attempts\": %d, \
         \"total_instantiations\": %d, \"total_expansions\": %d, \"total_suppressed\": %d, \
         \"peak_frontier\": %d }%s\n"
        label solved (List.length rs)
        (sum (fun r -> r.attempts))
        (sum (fun r -> r.instantiations))
        (sum (fun r -> r.expansions))
        (sum (fun r -> r.suppressed))
        peak
        (if i = n - 1 then "" else ","))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let run_smoke ~json_file ~heap_ceiling ~tune () =
  let benches = Stagg_benchsuite.Suite.artificial in
  let t0 = Clock.now () in
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
  Printf.printf "smoke wall: %.1fs\n" (Clock.now () -. t0);
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
  let t0 = Clock.now () in
  replay "cold";
  replay "warm";
  Printf.printf "== serve smoke (%d requests, cold + warm replay) ==\n" (List.length lines);
  Printf.printf "serve smoke wall: %.1fs\n" (Clock.now () -. t0);
  match json_file with
  | None -> print_string (Buffer.contents buf)
  | Some file ->
      let oc = open_out file in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.eprintf "[bench] wrote %s\n%!" file

let run_campaign ~skip_ablations ~analysis ~jobs () =
  let progress msg = Printf.eprintf "[bench] %s\n%!" msg in
  let t0 = Clock.now () in
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
  Printf.printf "\ntotal harness time: %.1fs\n" (Clock.now () -. t0)

let main smoke serve_smoke skip_ablations no_analysis oracle heap_ceiling jobs json_file =
  if serve_smoke then run_serve_smoke ~jobs ~json_file ()
  else if smoke then
    run_smoke ~json_file ~heap_ceiling
      ~tune:(fun m -> Cli_flags.with_oracle oracle (Cli_flags.with_analysis no_analysis m))
      ()
  else if json_file <> None then begin
    prerr_endline "main.exe: --json writes the --smoke or --serve-smoke output only";
    exit 2
  end
  else run_campaign ~skip_ablations ~analysis:(not no_analysis) ~jobs ()

let () =
  (* The campaign's hot loops (A* frontier, validation) allocate
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
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "With $(b,--smoke) or $(b,--serve-smoke): write the leg's deterministic output to \
             $(docv).")
  in
  let term =
    Term.(
      const main
      $ flag "smoke" "Run the <60s artificial-suite CI sweep."
      $ flag "serve-smoke" "Replay the deterministic serve request mix, cold then warm."
      $ flag "skip-ablations" "Only Table 1 and Figures 9–10."
      $ Cli_flags.no_analysis $ Cli_flags.oracle $ heap_ceiling $ Cli_flags.jobs $ json_file)
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "main.exe" ~doc:"The paper's evaluation harness (§8).") term))
