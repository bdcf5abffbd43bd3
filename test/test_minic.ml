(* Tests for stagg_minic: parser, interpreter, affine polynomials, array
   recovery, delinearization and dimension inference. *)

open Stagg_util
open Stagg_minic
module I = Interp.Make (Value.Rat_value)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse = Parser.parse_function_exn
let rat = Rat.of_int
let rats = Array.map rat
let strs a = Array.to_list (Array.map Rat.to_string a)

(* the paper's Fig. 2 program *)
let fig2 =
  {|
void function(int N, int* Mat1, int* Mat2, int* Result){
 int* p_m1; int* p_m2; int* p_t;
 int i, f;
 p_m1 = Mat1; p_t = Result;
 for (f = 0; f < N; f++) {
   *p_t = 0;
   p_m2 = &Mat2[0];
   for (i = 0; i < N; i++)
     *p_t += *p_m1++ * *p_m2++;
   p_t++;
 }
}
|}

(* ---- parsing ---- *)

let test_parse_fig2 () =
  let f = parse fig2 in
  check_string "name" "function" f.Ast.fname;
  check_int "params" 4 (List.length f.params);
  check_bool "N is scalar" true ((List.hd f.params).ptyp = Ast.Tint);
  check_bool "Mat1 is pointer" true ((List.nth f.params 1).ptyp = Ast.Tptr)

let test_parse_forms () =
  (* declarations with multiple declarators, casts, float literals,
     comments, const, compound assignment *)
  let src =
    {|
/* block comment */
void f(const float* A, int N, float* R) {
  int i = 0, j; // line comment
  float x = 0.25f;
  for (i = 0; i < N; i++) {
    R[i] = (float) A[i] * x;
    R[i] += 1;
    R[i] -= 0;
    R[i] *= 2;
    R[i] /= 1;
  }
  if (N > 0) { R[0] = R[0]; } else { }
  return;
}
|}
  in
  let f = parse src in
  check_int "3 params" 3 (List.length f.params)

let test_parse_errors () =
  check_bool "missing brace" true (Result.is_error (Parser.parse_function "void f() { int i;"));
  check_bool "garbage" true (Result.is_error (Parser.parse_function "not a function"))

(* The nesting cap: an expression nested exactly [Parser.max_depth] deep
   parses, one level more is a structured error, and a million levels are
   refused the same way (the parser stops at the cap). The assignment is
   level 1 and its right-hand side level 2, so [k] nestings put the
   innermost operand at level k + 2. No kernel of the suite comes near
   the cap. *)
let nested_kernel ~open_ ~close_ k =
  let rep s = String.concat "" (List.init k (fun _ -> s)) in
  Printf.sprintf "void f(int *r) { r[0] = %s1%s; }" (rep open_) (rep close_)

let test_parse_depth_cap () =
  let cap = Parser.max_depth in
  let refused = Error (Printf.sprintf "nesting deeper than %d" cap) in
  List.iter
    (fun (what, open_, close_) ->
      let parse k = Parser.parse_function (nested_kernel ~open_ ~close_ k) in
      check_bool (what ^ " at the cap parse") true (Result.is_ok (parse (cap - 2)));
      check_bool (what ^ " past the cap refused") true (parse (cap - 1) = refused);
      let t0 = Clock.now () in
      check_bool (what ^ " a million deep refused") true (parse 1_000_000 = refused);
      check_bool (what ^ " refused fast") true (Clock.now () -. t0 < 5.0))
    [ ("parens", "(", ")"); ("unary minus", "- ", ""); ("negation", "!", "") ];
  List.iter
    (fun (b : Stagg_benchsuite.Bench.t) ->
      check_bool (b.name ^ " parses") true (Result.is_ok (Parser.parse_function b.c_source)))
    (Stagg_benchsuite.Suite.all @ Stagg_benchsuite.Suite.diagnostics)

(* ---- interpreter ---- *)

let run_fn src args =
  let f = parse src in
  match I.run f ~args with Ok () -> () | Error msg -> Alcotest.fail msg

let test_interp_fig2 () =
  let n = 3 in
  let m1 = rats [| 1; 2; 3; 4; 5; 6; 7; 8; 9 |] in
  let m2 = rats [| 1; 2; 3 |] in
  let res = Array.make n Rat.zero in
  run_fn fig2 [ I.Scalar (rat n); I.Array m1; I.Array m2; I.Array res ];
  Alcotest.(check (list string)) "row dot products" [ "14"; "32"; "50" ] (strs res)

let test_interp_rational_division () =
  (* the verifier's semantics: / is exact rational division, as in the
     paper's rational extension of CBMC *)
  let src = "void f(int N, int* A, int* R) { int i; for (i=0;i<N;i++) R[i] = A[i] / 4; }" in
  let a = rats [| 1; 2; 3 |] in
  let r = Array.make 3 Rat.zero in
  run_fn src [ I.Scalar (rat 3); I.Array a; I.Array r ];
  Alcotest.(check (list string)) "exact division" [ "1/4"; "1/2"; "3/4" ] (strs r)

(* The interpreter's error strings reach trace refusals and serve
   responses verbatim, so each one is pinned exactly. *)
let run_error src args =
  match I.run (parse src) ~args with
  | Error msg -> msg
  | Ok () -> Alcotest.failf "expected an error from: %s" src

let zeros n = I.Array (Array.make n Rat.zero)

let test_interp_out_of_bounds () =
  check_string "write" "out-of-bounds write: A[2] (size 2)"
    (run_error "void f(int N, int* A) { A[N] = 1; }" [ I.Scalar (rat 2); zeros 2 ]);
  check_string "read" "out-of-bounds read: A[-1] (size 3)"
    (run_error "void f(int* A, int* R) { R[0] = A[0 - 1]; }" [ zeros 3; zeros 1 ])

let test_interp_error_strings () =
  check_string "unbound" "unbound variable x" (run_error "void f(int* R) { R[0] = x; }" [ zeros 1 ]);
  check_string "unbound before its declaration" "unbound variable s"
    (run_error "void f(int* R) { R[0] = s; int s = 1; }" [ zeros 1 ]);
  check_string "division" "division by zero"
    (run_error "void f(int* A, int* R) { R[0] = A[0] / 0; }" [ zeros 1; zeros 1 ]);
  check_string "modulo" "division by zero"
    (run_error "void f(int N, int* R) { R[0] = N % 0; }" [ I.Scalar (rat 3); zeros 1 ]);
  (* [A[0] / 2] is 1/2 here: not an integer, so [%] cannot run on it *)
  check_string "non-integer modulo" "'%' requires concrete operands"
    (run_error "void f(int* A, int* R) { R[0] = (A[0] / 2) % 2; }"
       [ I.Array (rats [| 1 |]); zeros 1 ]);
  check_string "non-integer index" "value used as index is not concrete"
    (run_error "void f(int* A, int* R) { R[0] = A[1 / 2]; }" [ zeros 2; zeros 1 ])

let test_interp_iteration_budget () =
  check_string "empty unbounded loop" "iteration budget exceeded"
    (run_error "void f(int* R) { for (;;) { } }" [ zeros 1 ]);
  check_string "counting unbounded loop" "iteration budget exceeded"
    (run_error "void f(int* R) { int i; for (i = 0; ; i++) { } }" [ zeros 1 ])

(* A compound assignment resolves its location once, as in C: the
   increment inside the target runs once per statement. *)
let test_interp_compound_lvalue_once () =
  let a = rats [| 1; 2; 3 |] in
  let r = Array.make 3 Rat.zero in
  run_fn "void f(int N, int* A, int* R) { int i; int* p; p = R; for (i = 0; i < N; i++) *p++ += A[i]; }"
    [ I.Scalar (rat 3); I.Array a; I.Array r ];
  Alcotest.(check (list string)) "*p++ +=" [ "1"; "2"; "3" ] (strs r);
  let r = rats [| 10; 20; 30 |] in
  run_fn "void f(int N, int* A, int* R) { int i, j; i = 0; for (j = 0; j < N; j++) R[i++] += A[j]; }"
    [ I.Scalar (rat 3); I.Array a; I.Array r ];
  Alcotest.(check (list string)) "R[i++] +=" [ "11"; "22"; "33" ] (strs r);
  let r = rats [| 10; 20; 30 |] in
  run_fn "void f(int N, int* R) { int i, j; i = 0; for (j = 0; j < N; j++) R[i++]++; }"
    [ I.Scalar (rat 3); I.Array r ];
  Alcotest.(check (list string)) "R[i++]++" [ "11"; "21"; "31" ] (strs r)

let test_interp_ternary_and_logic () =
  let src =
    {|
void f(int N, int* A, int* R) {
  int i;
  for (i = 0; i < N; i++) {
    R[i] = (A[i] > 2 && A[i] < 5) ? A[i] : 0 - A[i];
  }
}
|}
  in
  let a = rats [| 1; 3; 7 |] in
  let r = Array.make 3 Rat.zero in
  run_fn src [ I.Scalar (rat 3); I.Array a; I.Array r ];
  Alcotest.(check (list string)) "ternary" [ "-1"; "3"; "-7" ] (strs r)

let test_interp_post_incr_expr () =
  let src = "void f(int* A, int* R) { int* p; p = A; *R = *p++ + *p; }" in
  let a = rats [| 10; 20 |] in
  let r = Array.make 1 Rat.zero in
  run_fn src [ I.Array a; I.Array r ];
  Alcotest.(check (list string)) "post-increment yields old value" [ "30" ] (strs r)

let test_interp_arity_mismatch () =
  let f = parse "void f(int N) { }" in
  Alcotest.(check (result unit string))
    "arity checked" (Error "arity mismatch: f takes 1 arguments, got 0") (I.run f ~args:[])

(* ---- affine polynomials ---- *)

let test_affine_basic () =
  let open Affine in
  let p = add (mul (var "f") (var "N")) (var "i") in
  check_string "print" "N*f + i" (to_string p);
  check_bool "mentions f" true (mentions p "f");
  check_bool "not mentions j" false (mentions p "j");
  Alcotest.(check (list string)) "vars" [ "N"; "f"; "i" ] (vars p);
  check_bool "subst" true (equal (subst p "i" zero) (mul (var "f") (var "N")));
  check_bool "is_const" true (is_const (sub p p) = Some 0)

let qcheck_affine_ring =
  let arb =
    let open QCheck.Gen in
    let rec poly n =
      if n = 0 then oneof [ map Affine.const (int_range (-5) 5); map Affine.var (oneofl [ "x"; "y" ]) ]
      else
        oneof
          [
            map2 Affine.add (poly (n - 1)) (poly (n - 1));
            map2 Affine.mul (poly (n - 1)) (poly (n - 1));
            map Affine.neg (poly (n - 1));
          ]
    in
    QCheck.make (poly 3) ~print:Affine.to_string
  in
  QCheck.Test.make ~name:"affine polynomials form a commutative ring" ~count:200
    (QCheck.triple arb arb arb) (fun (a, b, c) ->
      Affine.equal (Affine.add a b) (Affine.add b a)
      && Affine.equal (Affine.mul a b) (Affine.mul b a)
      && Affine.equal (Affine.mul a (Affine.add b c)) (Affine.add (Affine.mul a b) (Affine.mul a c))
      && Affine.equal (Affine.sub a a) Affine.zero)

(* ---- array recovery and dimension inference ---- *)

let test_recover_fig2 () =
  let f = parse fig2 in
  let accs = Recover.analyze f in
  let find base kind =
    List.filter (fun (a : Recover.access) -> a.base = base && a.kind = kind) accs
  in
  (* the pointer walk over Mat1 is recovered as the linearized access
     Mat1[N*f + i] — the array-recovery analysis of the paper *)
  (match find "Mat1" Recover.Load with
  | [ a ] -> check_string "Mat1 delinearized" "N*f + i" (Affine.to_string (Option.get a.index))
  | _ -> Alcotest.fail "expected one Mat1 load");
  (* stores through p_t land in Result[f] *)
  let result_stores = find "Result" Recover.Store in
  check_bool "Result store recovered" true
    (List.exists
       (fun (a : Recover.access) ->
         match a.index with Some p -> Affine.equal p (Affine.var "f") | None -> false)
       result_stores)

let test_dims_fig2 () =
  let f = parse fig2 in
  check_string "output param" "Result" (Option.get (Dims.output_param f));
  check_int "LHS dim" 1 (Option.get (Dims.lhs_dim f));
  let dims = Dims.param_dims f in
  check_int "Mat1 rank 2 (delinearized)" 2 (Option.get (List.assoc "Mat1" dims));
  check_int "Mat2 rank 1" 1 (Option.get (List.assoc "Mat2" dims));
  check_int "N rank 0" 0 (Option.get (List.assoc "N" dims))

let test_dims_scalar_output () =
  let src =
    "void dot(int N, int* A, int* B, int* R) { int i; int s = 0; for (i=0;i<N;i++) s += A[i]*B[i]; *R = s; }"
  in
  let f = parse src in
  check_string "out" "R" (Option.get (Dims.output_param f));
  check_int "scalar output has dim 0" 0 (Option.get (Dims.lhs_dim f))

let test_dims_2d_linearized () =
  let src =
    {|
void g(int N, int M, int* A, int* R) {
  int i, j;
  for (i = 0; i < N; i++)
    for (j = 0; j < M; j++)
      R[i * M + j] = A[i * M + j] * 2;
}
|}
  in
  let f = parse src in
  check_int "2-D store delinearized" 2 (Option.get (Dims.lhs_dim f))

let test_dims_pointer_walk_output () =
  (* output written through *pr++ — the case that exercises store-target
     side-effect threading in the analysis *)
  let src =
    "void s(int N, int* A, int* R) { int i; int* pr = R; int* pa = A; for (i=0;i<N;i++) *pr++ = *pa++ * 3; }"
  in
  let f = parse src in
  check_string "out" "R" (Option.get (Dims.output_param f));
  check_int "walked output is 1-D" 1 (Option.get (Dims.lhs_dim f))

let test_recover_unknown_loop () =
  (* a while-style loop (no recognizable header) must not crash and must
     degrade to imprecision, not wrong answers *)
  let src = "void f(int N, int* A, int* R) { int i; for (i = N; i > 0; i--) R[i-1] = A[i-1]; }" in
  let f = parse src in
  (* downward loop: header not recognized; analysis yields no precise dims *)
  check_bool "no crash" true (Dims.lhs_dim f = None || Dims.lhs_dim f = Some 1)

let test_constants_and_ops () =
  let src =
    "void f(int N, int* A, int* R) { int i; for (i=0;i<N;i++) R[i] = A[i] * 5 + 2; }"
  in
  let f = parse src in
  Alcotest.(check (list string)) "constants in order" [ "5"; "2" ]
    (List.map Rat.to_string (Ast.constants f));
  check_int "two arithmetic ops" 2 (List.length (Ast.arith_ops_used f))

let test_constants_exclude_subscripts () =
  let src = "void f(int* A, int* R) { R[0] = A[1] + 3; }" in
  let f = parse src in
  Alcotest.(check (list string)) "subscript literals excluded" [ "3" ]
    (List.map Rat.to_string (Ast.constants f))

(* ---- signature specs ---- *)

let test_sigspec_parse () =
  match Sigspec.parse "N:size, M:size, A:arr[N,M], X:arr[M], R:out[N]" with
  | Error e -> Alcotest.fail e
  | Ok sg ->
      check_string "output" "R" sg.Signature.out;
      check_int "five args" 5 (List.length sg.args);
      Alcotest.(check (list string)) "order preserved" [ "N"; "M"; "A"; "X"; "R" ]
        (List.map fst sg.args);
      check_bool "A shaped" true (List.assoc "A" sg.args = Signature.Arr [ "N"; "M" ])

let test_sigspec_scalar_out () =
  match Sigspec.parse "N:size,A:arr[N],R:out" with
  | Error e -> Alcotest.fail e
  | Ok sg -> check_bool "bare out is a scalar cell" true (List.assoc "R" sg.args = Signature.Arr [])

let test_sigspec_errors () =
  check_bool "no out" true (Result.is_error (Sigspec.parse "N:size,A:arr[N]"));
  check_bool "two outs" true (Result.is_error (Sigspec.parse "A:out[N],B:out[N],N:size"));
  check_bool "undeclared dim" true (Result.is_error (Sigspec.parse "A:arr[N],R:out"));
  check_bool "bad kind" true (Result.is_error (Sigspec.parse "A:tensor[N],R:out"));
  check_bool "empty" true (Result.is_error (Sigspec.parse "   "))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "stagg_minic"
    [
      ( "parser",
        [
          Alcotest.test_case "fig2" `Quick test_parse_fig2;
          Alcotest.test_case "syntactic forms" `Quick test_parse_forms;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "nesting depth cap" `Quick test_parse_depth_cap;
        ] );
      ( "interp",
        [
          Alcotest.test_case "fig2 row dot products" `Quick test_interp_fig2;
          Alcotest.test_case "rational division" `Quick test_interp_rational_division;
          Alcotest.test_case "bounds checking" `Quick test_interp_out_of_bounds;
          Alcotest.test_case "ternary and logic" `Quick test_interp_ternary_and_logic;
          Alcotest.test_case "post-increment" `Quick test_interp_post_incr_expr;
          Alcotest.test_case "arity" `Quick test_interp_arity_mismatch;
          Alcotest.test_case "error strings" `Quick test_interp_error_strings;
          Alcotest.test_case "iteration budget" `Quick test_interp_iteration_budget;
          Alcotest.test_case "compound assignment evaluates its target once" `Quick
            test_interp_compound_lvalue_once;
        ] );
      ("affine", [ Alcotest.test_case "basic" `Quick test_affine_basic; qc qcheck_affine_ring ]);
      ( "sigspec",
        [
          Alcotest.test_case "parse" `Quick test_sigspec_parse;
          Alcotest.test_case "scalar out" `Quick test_sigspec_scalar_out;
          Alcotest.test_case "errors" `Quick test_sigspec_errors;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "array recovery on fig2" `Quick test_recover_fig2;
          Alcotest.test_case "dims on fig2" `Quick test_dims_fig2;
          Alcotest.test_case "scalar output" `Quick test_dims_scalar_output;
          Alcotest.test_case "2-D linearized store" `Quick test_dims_2d_linearized;
          Alcotest.test_case "pointer-walk output" `Quick test_dims_pointer_walk_output;
          Alcotest.test_case "unknown loop degrades gracefully" `Quick test_recover_unknown_loop;
          Alcotest.test_case "constants and operators" `Quick test_constants_and_ops;
          Alcotest.test_case "constants exclude subscripts" `Quick test_constants_exclude_subscripts;
        ] );
    ]
