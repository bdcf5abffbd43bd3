(* The domain-safety lint: rule coverage over the known-racy /
   known-clean fixture pair, the lint.allow grammar, and the e2e run
   over the real libraries (everything the walker flags must be covered
   by a justified lint.allow entry). *)

module R = Stagg_lint.Report
module E = Stagg_lint.Engine

(* anchor on the executable (_build/default/test/...) so the paths work
   under both `dune runtest` and `dune exec` *)
let base = Filename.dirname Sys.executable_name

let analyze_dir ?(allow = R.empty) dir =
  let dir = Filename.concat base dir in
  let cmts = E.scan_dir dir in
  if cmts = [] then
    Alcotest.failf "no .cmt files under %s (cwd %s)" dir (Sys.getcwd ());
  E.analyze ~cmt_files:cmts ~allow

let racy () = fst (analyze_dir "lint_fixtures/racy")
let clean () = fst (analyze_dir "lint_fixtures/clean")

let count rule modname (fs : R.finding list) =
  List.length (List.filter (fun (f : R.finding) -> f.rule = rule && f.modname = modname) fs)

let contexts rule modname (fs : R.finding list) =
  List.sort_uniq compare
    (List.filter_map
       (fun (f : R.finding) ->
         if f.rule = rule && f.modname = modname then Some f.context else None)
       fs)

let show_findings fs = String.concat "\n" (List.map R.finding_to_string fs)

(* ---- each rule fires on its racy fixture, with pinned shape ---- *)

let test_racy_shared_mutable () =
  let v = racy () in
  (* Hashtbl reference + mutable-field read + mutable-field write *)
  Alcotest.(check bool)
    "at least 3 shared-mutable findings in Fr_shared"
    true
    (count R.Shared_mutable "Fr_shared" v.R.violations >= 3);
  Alcotest.(check (list string))
    "all in the [go] binding" [ "go" ]
    (contexts R.Shared_mutable "Fr_shared" v.R.violations)

let test_racy_raw_atomic () =
  let v = racy () in
  Alcotest.(check (list string))
    "CAS in claim, exchange in steal" [ "claim"; "steal" ]
    (contexts R.Raw_atomic "Fr_atomic" v.R.violations)

let test_racy_dls_key () =
  let v = racy () in
  Alcotest.(check (list string))
    "new_key flagged inside fresh_key" [ "fresh_key" ]
    (contexts R.Dls_key "Fr_dls" v.R.violations)

let test_racy_blocking () =
  let v = racy () in
  Alcotest.(check (list string))
    "IO and clock flagged under the lock" [ "log_locked"; "time_locked" ]
    (contexts R.Blocking_under_mutex "Fr_blocking" v.R.violations)

let test_racy_nondet () =
  let v = racy () in
  Alcotest.(check (list string))
    "gettimeofday, both clock reads and self_init flagged"
    [ "raw_tick"; "reseed"; "stamp"; "tick" ]
    (contexts R.Nondet "Fr_nondet" v.R.violations)

(* ---- the clean twins stay silent ---- *)

let test_clean_silent () =
  let v = clean () in
  Alcotest.(check string) "no findings on the clean fixtures" "" (show_findings v.R.violations)

(* ---- lint.allow grammar ---- *)

let test_allow_parse () =
  match
    R.of_string
      "# comment\n\n\
       protocol-module Pool -- work-queue cursor protocol lives here\n\
       nondeterminism-source foo.ml:run -- telemetry only\n"
  with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
      Alcotest.(check bool) "Pool is protocol" true (R.is_protocol t "Pool");
      Alcotest.(check bool) "Pqueue is not" false (R.is_protocol t "Pqueue");
      Alcotest.(check int) "one entry" 1 (List.length t.R.entries);
      let e = List.hd t.R.entries in
      Alcotest.(check string) "file" "foo.ml" e.R.e_file;
      Alcotest.(check string) "context" "run" e.R.e_context;
      Alcotest.(check string) "justification" "telemetry only" e.R.e_just

let test_allow_requires_justification () =
  (match R.of_string "protocol-module Pool" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing ' -- why' must be a parse error");
  match R.of_string "nondeterminism-source foo.ml:run --   " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty justification must be a parse error"

let test_allow_unknown_rule () =
  match R.of_string "data-race-somewhere foo.ml:run -- nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown rule id must be a parse error"

let test_allow_suppresses_and_tracks_unused () =
  let allow =
    match
      R.of_string
        "nondeterminism-source fr_nondet.ml:stamp -- fixture timing\n\
         nondeterminism-source fr_nondet.ml:never_exists -- stale entry\n"
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let v = fst (analyze_dir ~allow "lint_fixtures/racy") in
  Alcotest.(check int)
    "stamp finding suppressed" 0
    (List.length
       (List.filter
          (fun (f : R.finding) -> f.R.context = "stamp" && f.rule = R.Nondet)
          v.R.violations));
  Alcotest.(check bool)
    "suppression recorded" true
    (List.exists (fun ((f : R.finding), _) -> f.R.context = "stamp") v.R.suppressed);
  Alcotest.(check (list string))
    "stale entry surfaced" [ "never_exists" ]
    (List.map (fun e -> e.R.e_context) v.R.unused_entries)

(* ---- e2e: the real codebase is fully covered by lint.allow ---- *)

let test_repo_clean () =
  let allow =
    match R.load (Filename.concat base "../lint.allow") with
    | Ok t -> t
    | Error e -> Alcotest.failf "cannot load ../lint.allow: %s" e
  in
  let v, stats = analyze_dir ~allow "../lib" in
  Alcotest.(check bool) "walked a real module set" true (stats.E.modules > 50);
  Alcotest.(check string) "no violations outside lint.allow" "" (show_findings v.R.violations);
  Alcotest.(check (list string))
    "no stale lint.allow entries" []
    (List.map (fun e -> e.R.e_context) v.R.unused_entries)

let () =
  Alcotest.run "lint"
    [
      ( "racy-fixtures",
        [
          Alcotest.test_case "shared-mutable-unguarded" `Quick test_racy_shared_mutable;
          Alcotest.test_case "raw-atomic-outside-protocol-module" `Quick test_racy_raw_atomic;
          Alcotest.test_case "dls-key-not-toplevel" `Quick test_racy_dls_key;
          Alcotest.test_case "blocking-under-mutex" `Quick test_racy_blocking;
          Alcotest.test_case "nondeterminism-source" `Quick test_racy_nondet;
        ] );
      ("clean-fixtures", [ Alcotest.test_case "silent" `Quick test_clean_silent ]);
      ( "allowlist",
        [
          Alcotest.test_case "grammar" `Quick test_allow_parse;
          Alcotest.test_case "justification required" `Quick test_allow_requires_justification;
          Alcotest.test_case "unknown rule rejected" `Quick test_allow_unknown_rule;
          Alcotest.test_case "suppress + stale tracking" `Quick
            test_allow_suppresses_and_tracks_unused;
        ] );
      ("e2e", [ Alcotest.test_case "repo covered by lint.allow" `Quick test_repo_clean ]);
    ]
