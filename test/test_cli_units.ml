(* Unit coverage for CLI-adjacent plumbing that the binary exercises:
   query construction, replay-driven lifting, and the end-to-end
   lift-file path (without spawning a process). *)

module Sig = Stagg_minic.Signature

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let rowsum_c =
  {|
void row_sums(int N, int M, int* A, int* R) {
  int i, j;
  for (i = 0; i < N; i++) {
    int s = 0;
    for (j = 0; j < M; j++) s += A[i * M + j];
    R[i] = s;
  }
}
|}

let rowsum_query transcript =
  {
    Stagg.Pipeline.qname = "rowsum";
    func = Stagg_minic.Parser.parse_function_exn rowsum_c;
    signature =
      Result.get_ok (Stagg_minic.Sigspec.parse "N:size,M:size,A:arr[N,M],R:out[N]");
    c_source = rowsum_c;
    client = Stagg_oracle.Replay.of_lines transcript;
    oracle = Stagg.Method_.Oracle_llm;
  }

let test_lift_with_replay () =
  let q =
    rowsum_query
      [ "R(i) = sum(j, A(i,j))"; "r(x) := a(x, y)"; "R(i) = A(j,i)"; "sums(f) = M(f, g)" ]
  in
  let r = Stagg.Pipeline.lift Stagg.Method_.stagg_td q in
  check_bool "lifted from a recorded transcript" true r.Stagg.Result_.solved;
  match r.solution with
  | Some sol ->
      check_string "row sums" "R(i) = A(i, j)" (Stagg_taco.Pretty.program_to_string sol.concrete)
  | None -> Alcotest.fail "no solution"

let test_lift_with_empty_transcript () =
  let r = Stagg.Pipeline.lift Stagg.Method_.stagg_td (rowsum_query []) in
  check_bool "no candidates, no solve" false r.Stagg.Result_.solved;
  check_string "reason reported" "no syntactically valid LLM candidates"
    (Option.value ~default:"" r.failure)

let test_lift_with_garbage_transcript () =
  let r =
    Stagg.Pipeline.lift Stagg.Method_.stagg_td
      (rowsum_query [ "I am sorry, I cannot do that."; "```python"; "x = 1" ])
  in
  check_bool "garbage transcript fails cleanly" false r.Stagg.Result_.solved

let test_query_of_bench_uses_mock () =
  let b = Option.get (Stagg_benchsuite.Suite.find "art_gemv") in
  let q = Stagg.Pipeline.query_of_bench Stagg.Method_.stagg_td b in
  let (module C) = q.client in
  let lines = C.query ~prompt:"p" in
  check_bool "mock yields responses" true (List.length lines >= 10)

(* [stagg serve]'s --jobs/--cache-max, evaluated as the command line
   parses them: [None] when Cmdliner refuses the arguments. *)
let serve_flags args =
  let open Cmdliner in
  let cmd =
    Cmd.v (Cmd.info "serve")
      Term.(const (fun j m -> (j, m)) $ Cli_flags.serve_jobs $ Cli_flags.cache_max)
  in
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  match Cmd.eval_value ~help:null ~err:null ~argv:(Array.of_list ("serve" :: args)) cmd with
  | Ok (`Ok v) -> Some v
  | _ -> None

let test_serve_flags_positive () =
  let check_flags what expected args =
    Alcotest.(check (option (pair int int))) what expected (serve_flags args)
  in
  check_flags "defaults" (Some (1, 1024)) [];
  check_flags "jobs 1" (Some (1, 1024)) [ "--jobs=1" ];
  check_flags "cache-max 1" (Some (1, 1)) [ "--cache-max=1" ];
  check_flags "-j 0 refused" None [ "-j"; "0" ];
  check_flags "jobs -1 refused" None [ "--jobs=-1" ];
  check_flags "cache-max 0 refused" None [ "--cache-max=0" ];
  check_flags "cache-max -1 refused" None [ "--cache-max=-1" ]

let () =
  Alcotest.run "stagg_cli_units"
    [
      ( "lift-file path",
        [
          Alcotest.test_case "replay transcript" `Slow test_lift_with_replay;
          Alcotest.test_case "empty transcript" `Quick test_lift_with_empty_transcript;
          Alcotest.test_case "garbage transcript" `Quick test_lift_with_garbage_transcript;
          Alcotest.test_case "benchmark query uses the mock" `Quick test_query_of_bench_uses_mock;
        ] );
      ( "serve flags",
        [ Alcotest.test_case "jobs and cache-max are positive" `Quick test_serve_flags_positive ] );
    ]
