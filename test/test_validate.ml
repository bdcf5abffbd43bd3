(* Tests for stagg_validate: I/O example generation and the template
   validator. *)

open Stagg_util
open Stagg_validate
module Sig = Stagg_minic.Signature

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse_c = Stagg_minic.Parser.parse_function_exn
let parse_t = Stagg_taco.Parser.parse_program_exn

let gemv_src =
  {|
void gemv(int N, int M, int* A, int* X, int* R) {
  int i, j;
  for (i = 0; i < N; i++) {
    R[i] = 0;
    for (j = 0; j < M; j++) {
      R[i] += A[i * M + j] * X[j];
    }
  }
}
|}

let gemv_sig =
  {
    Sig.args =
      [
        ("N", Sig.Size "N"); ("M", Sig.Size "M"); ("A", Sig.Arr [ "N"; "M" ]);
        ("X", Sig.Arr [ "M" ]); ("R", Sig.Arr [ "N" ]);
      ];
    out = "R";
  }

let gen_examples ?(seed = 11) () =
  Result.get_ok
    (Examples.generate ~func:(parse_c gemv_src) ~signature:gemv_sig
       ~prng:(Prng.create ~seed) ())

let test_examples_shape () =
  let exs = gen_examples () in
  check_int "four examples" 4 (List.length exs);
  List.iter
    (fun (ex : Examples.example) ->
      let n = List.assoc "N" ex.sizes and m = List.assoc "M" ex.sizes in
      check_bool "distinct sizes per dimension" true (n <> m);
      check_int "A has N*M cells" (n * m) (Array.length (List.assoc "A" ex.inputs));
      check_int "output has N cells" n (Array.length ex.output);
      (* inputs are nonzero, so divisions in candidates never trip *)
      check_bool "nonzero inputs" true
        (Array.for_all (fun v -> not (Rat.is_zero v)) (List.assoc "X" ex.inputs)))
    exs

let test_examples_deterministic () =
  let flat exs =
    List.concat_map (fun (e : Examples.example) -> Array.to_list e.output) exs
    |> List.map Rat.to_string
  in
  Alcotest.(check (list string)) "same prng, same examples" (flat (gen_examples ()))
    (flat (gen_examples ()))

let test_examples_failing_program () =
  (* a program that always divides by zero cannot produce examples *)
  let src = "void f(int N, int* A, int* R) { R[0] = A[0] / 0; }" in
  let sg = { Sig.args = [ ("N", Sig.Size "N"); ("A", Sig.Arr [ "N" ]); ("R", Sig.Arr [ "N" ]) ]; out = "R" } in
  check_bool "error reported" true
    (Result.is_error (Examples.generate ~func:(parse_c src) ~signature:sg ~prng:(Prng.create ~seed:1) ()))

(* ---- validator ---- *)

let validate ?verify template =
  let exs = gen_examples () in
  Validator.validate ~signature:gemv_sig ~examples:exs ~consts:[] ?verify (parse_t template)

let test_validator_accepts_correct () =
  match validate "a(i) = b(i,j) * c(j)" with
  | Some sol ->
      check_string "binds A" "A" (List.assoc "b" sol.subst.tensor_binding);
      check_string "binds X" "X" (List.assoc "c" sol.subst.tensor_binding);
      check_string "concrete program" "R(i) = A(i, j) * X(j)"
        (Stagg_taco.Pretty.program_to_string sol.concrete)
  | None -> Alcotest.fail "correct template rejected"

let test_validator_rejects_wrong_structure () =
  check_bool "sum instead of product" true (validate "a(i) = b(i,j) + c(j)" = None);
  check_bool "transposed" true (validate "a(i) = b(j,i) * c(j)" = None);
  check_bool "wrong arity LHS" true (validate "a(i,j) = b(i,j)" = None)

let test_validator_counts_instantiations () =
  let checker = Validator.prepare ~signature:gemv_sig ~examples:(gen_examples ()) in
  let sol, n =
    Validator.validate_counted ~signature:gemv_sig ~checker ~consts:[]
      (parse_t "a(i) = b(i,j) * c(j)")
  in
  check_bool "solved" true (sol <> None);
  check_bool "tried at least one instantiation" true (n >= 1)

let test_validator_verify_hook () =
  (* a verify hook that rejects everything forces exhaustion *)
  check_bool "verifier veto respected" true
    (validate ~verify:(fun _ -> false) "a(i) = b(i,j) * c(j)" = None);
  (* and one that accepts returns the validated substitution *)
  check_bool "verifier pass respected" true
    (validate ~verify:(fun _ -> true) "a(i) = b(i,j) * c(j)" <> None)

let test_validator_constants () =
  let src = "void f(int N, int* A, int* R) { int i; for (i=0;i<N;i++) R[i] = A[i] * 7; }" in
  let sg = { Sig.args = [ ("N", Sig.Size "N"); ("A", Sig.Arr [ "N" ]); ("R", Sig.Arr [ "N" ]) ]; out = "R" } in
  let func = parse_c src in
  let exs =
    Result.get_ok (Examples.generate ~func ~signature:sg ~prng:(Prng.create ~seed:3) ())
  in
  let template =
    Option.get (Stagg_template.Templatize.templatize (parse_t "r(i) = x(i) * 7"))
  in
  (* the right constant must come from the source pool *)
  (match Validator.validate ~signature:sg ~examples:exs ~consts:[ Rat.of_int 7 ] template with
  | Some sol ->
      check_string "const instantiated" "R(i) = A(i) * 7"
        (Stagg_taco.Pretty.program_to_string sol.concrete)
  | None -> Alcotest.fail "constant template rejected");
  check_bool "wrong pool rejected" true
    (Validator.validate ~signature:sg ~examples:exs ~consts:[ Rat.of_int 3 ] template = None)

(* ---- the batched / per-candidate differential ----

   [~batched:true] (compile_template + rebind) and [~batched:false]
   (instantiate + compile per candidate) must be observably identical:
   same solution and same instantiation count. *)
let test_batched_differential () =
  let st0 = Validator.stats () in
  let exs = gen_examples () in
  let checker = Validator.prepare ~signature:gemv_sig ~examples:exs in
  let consts = [ Rat.of_int 7 ] in
  let sol_str = function
    | Some (s : Validator.solution) -> Stagg_taco.Pretty.program_to_string s.concrete
    | None -> "<none>"
  in
  let run ~batched src =
    Validator.validate_counted ~signature:gemv_sig ~checker ~consts ~batched (parse_t src)
  in
  let templates =
    [
      "a(i) = b(i,j) * c(j)" (* the gemv solution *);
      "a(i) = b(i,j) + c(j)";
      "a(i) = b(j,i) * c(j)";
      "a(i) = b(i) * Const" (* exercises the Const cell *);
      "a = b(i) * c(i)" (* LHS rank mismatch: zero substitutions *);
    ]
  in
  List.iter
    (fun src ->
      let s_on, n_on = run ~batched:true src in
      let s_off, n_off = run ~batched:false src in
      check_string (src ^ ": same solution") (sol_str s_off) (sol_str s_on);
      check_int (src ^ ": same count") n_off n_on)
    templates;
  let st1 = Validator.stats () in
  check_bool "batched runs compiled templates" true
    (st1.template_compiles - st0.template_compiles >= 1);
  (* the [validate] wrapper threads the flag too *)
  check_bool "validate wrapper honors batched:false" true
    (Validator.validate ~signature:gemv_sig ~examples:exs ~consts ~batched:false
       (parse_t "a(i) = b(i,j) * c(j)")
    <> None)

(* ---- the compiled-template cache's LRU regression ----

   The per-domain cache is capped at 8192 compiled templates. The old
   policy rejected new entries once full: a long-lived serve process
   would freeze the cache on whichever 8192 templates a domain compiled
   first and recompile everything else forever. With LRU the cap evicts
   the least-recently-hit entry instead, so the templates a recent
   request touched always stay hot. *)
let test_template_cache_lru_eviction () =
  let sg =
    { Sig.args = [ ("N", Sig.Size "N"); ("A", Sig.Arr [ "N" ]); ("R", Sig.Arr [ "N" ]) ]; out = "R" }
  in
  let src = "void f(int N, int* A, int* R) { int i; for (i=0;i<N;i++) R[i] = A[i] * 7; }" in
  let exs =
    Result.get_ok
      (Examples.generate ~func:(parse_c src) ~signature:sg ~prng:(Prng.create ~seed:5) ())
  in
  let checker = Validator.prepare ~signature:sg ~examples:exs in
  let validate k =
    ignore
      (Validator.validate_counted ~signature:sg ~checker ~consts:[] ~batched:true
         (parse_t (Printf.sprintf "a(i) = b(i) * %d" k)))
  in
  (* counter traffic over [f], as a difference of two snapshots *)
  let delta f =
    let s0 = Validator.stats () in
    f ();
    let s1 = Validator.stats () in
    {
      s1 with
      Validator.template_compiles = s1.template_compiles - s0.template_compiles;
      template_cache_hits = s1.template_cache_hits - s0.template_cache_hits;
      template_cache_evictions = s1.template_cache_evictions - s0.template_cache_evictions;
    }
  in
  let n = 8192 + 256 in
  let st1 =
    delta (fun () ->
        for k = 1 to n do
          validate k
        done)
  in
  check_int "every distinct template compiled once" n st1.Validator.template_compiles;
  check_bool "the cap evicted, not rejected" true (st1.Validator.template_cache_evictions >= 256);
  (* the most recent working set is still resident *)
  let st2 =
    delta (fun () ->
        for k = n - 99 to n do
          validate k
        done)
  in
  check_int "recent templates all hit" 100 st2.Validator.template_cache_hits;
  check_int "recent templates never recompiled" 0 st2.Validator.template_compiles;
  (* while the oldest really was displaced *)
  let st3 = delta (fun () -> validate 1) in
  check_int "the oldest template was evicted and recompiles" 1 st3.Validator.template_compiles

let test_check_concrete () =
  let exs = gen_examples () in
  check_bool "correct concrete accepted" true
    (Validator.check_concrete ~signature:gemv_sig ~examples:exs (parse_t "R(i) = A(i,j) * X(j)"));
  check_bool "wrong concrete rejected" false
    (Validator.check_concrete ~signature:gemv_sig ~examples:exs (parse_t "R(i) = A(i,j) + X(j)"))

let () =
  Alcotest.run "stagg_validate"
    [
      ( "examples",
        [
          Alcotest.test_case "shapes and values" `Quick test_examples_shape;
          Alcotest.test_case "deterministic" `Quick test_examples_deterministic;
          Alcotest.test_case "failing program" `Quick test_examples_failing_program;
        ] );
      ( "validator",
        [
          Alcotest.test_case "accepts correct template" `Quick test_validator_accepts_correct;
          Alcotest.test_case "rejects wrong structures" `Quick test_validator_rejects_wrong_structure;
          Alcotest.test_case "instantiation count" `Quick test_validator_counts_instantiations;
          Alcotest.test_case "verify hook" `Quick test_validator_verify_hook;
          Alcotest.test_case "constant pool" `Quick test_validator_constants;
          Alcotest.test_case "batched differential" `Quick test_batched_differential;
          Alcotest.test_case "template cache LRU eviction" `Quick
            test_template_cache_lru_eviction;
          Alcotest.test_case "check_concrete" `Quick test_check_concrete;
        ] );
    ]
