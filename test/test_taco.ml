(* Tests for stagg_taco: lexer, parser, pretty-printer, shapes, tensors,
   the einsum interpreter, and the lowering compiler. *)

open Stagg_util
open Stagg_taco
module I = Interp.Make (Value.Rat_value)
module E = Ir.Exec (Value.Rat_value)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

let parse = Parser.parse_program_exn
let rat = Rat.of_int

let t1 data = Tensor.of_flat_array [| Array.length data |] (Array.map rat data)
let t2 rows cols data = Tensor.of_flat_array [| rows; cols |] (Array.map rat data)

let flat t = Array.to_list (Array.map Rat.to_string (Tensor.to_flat_array t))

let run_interp src env = Result.get_ok (I.run ~env (parse src))

(* ---- lexing and parsing ---- *)

let test_parse_basic () =
  let p = parse "a(i) = b(i,j) * c(j)" in
  check_string "round trip" "a(i) = b(i, j) * c(j)" (Pretty.program_to_string p);
  check_int "reduction indices" 1 (List.length (Ast.reduction_indices p));
  check_int "tensors" 3 (List.length (Ast.tensors_in_order p))

let test_parse_assign_variants () =
  (* := is accepted (LLM output), as the paper's preprocessing does *)
  let p = parse "Result(i) := Mat1(f,i) * Mat2(i)" in
  check_string "normalized to =" "Result(i) = Mat1(f, i) * Mat2(i)" (Pretty.program_to_string p)

let test_parse_sum_wrapper () =
  (* sum(f, ...) wrappers are erased — summation is implicit in TACO *)
  let p = parse "Result(f) = sum(i, mat1(f, i) * mat2(i))" in
  check_string "sum erased" "Result(f) = mat1(f, i) * mat2(i)" (Pretty.program_to_string p)

let test_parse_precedence () =
  let p = parse "a = b + c * d" in
  (match p.rhs with
  | Ast.Bin (Ast.Add, Ast.Access ("b", []), Ast.Bin (Ast.Mul, _, _)) -> ()
  | _ -> Alcotest.fail "precedence wrong");
  let p = parse "a = (b + c) * d" in
  match p.rhs with
  | Ast.Bin (Ast.Mul, Ast.Bin (Ast.Add, _, _), _) -> ()
  | _ -> Alcotest.fail "parens wrong"

let test_parse_left_assoc () =
  let p = parse "a = b - c - d" in
  match p.rhs with
  | Ast.Bin (Ast.Sub, Ast.Bin (Ast.Sub, _, _), Ast.Access ("d", [])) -> ()
  | _ -> Alcotest.fail "subtraction must associate left"

let test_parse_errors () =
  check_bool "unbalanced" true (Result.is_error (Parser.parse_program "a(i) = b(i"));
  check_bool "trailing op" true (Result.is_error (Parser.parse_program "a(i) = b(i) +"));
  check_bool "no lhs" true (Result.is_error (Parser.parse_program "= b(i)"));
  check_bool "prose" true (Result.is_error (Parser.parse_program "cannot translate"))

(* The nesting cap: each parenthesis, prefix minus and call opens a
   level, and the right-hand side's outermost operand is level 1, so [k]
   nestings put the innermost operand at level k + 1. [k = max_depth - 1]
   parses, one more is a structured error, and a million levels are
   refused the same way and quickly (the parser stops at the cap). *)
let test_parse_depth_cap () =
  let cap = Parser.max_depth in
  let refused = Error (Printf.sprintf "nesting deeper than %d" cap) in
  let rep k s = String.concat "" (List.init k (fun _ -> s)) in
  List.iter
    (fun (what, open_, close_) ->
      let parse k = Parser.parse_program (Printf.sprintf "a = %sb%s" (rep k open_) (rep k close_)) in
      check_bool (what ^ " at the cap parse") true (Result.is_ok (parse (cap - 1)));
      check_bool (what ^ " past the cap refused") true (parse cap = refused);
      let t0 = Clock.now () in
      check_bool (what ^ " a million deep refused") true (parse 1_000_000 = refused);
      check_bool (what ^ " refused fast") true (Clock.now () -. t0 < 5.0))
    [ ("parens", "(", ")"); ("unary minus", "-", ""); ("call arguments", "sum(", ")") ];
  (* a million levels alternating minus and parenthesis *)
  let t0 = Clock.now () in
  check_bool "-( a million deep refused" true
    (Parser.parse_program ("a = " ^ rep 500_000 "-(" ^ "b" ^ rep 500_000 ")") = refused);
  check_bool "-( refused fast" true (Clock.now () -. t0 < 5.0)

let test_parse_decimal () =
  let p = parse "a(i) = b(i) * 0.5" in
  match p.rhs with
  | Ast.Bin (Ast.Mul, _, Ast.Const c) -> check_bool "exact 1/2" true (Rat.equal c (Rat.of_ints 1 2))
  | _ -> Alcotest.fail "decimal literal"

(* round trip: random ASTs print then parse back to themselves *)
let arb_program =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "d" ] in
  let idx = oneofl [ "i"; "j"; "k" ] in
  let access = map2 (fun n is -> Ast.Access (n, is)) name (list_size (int_range 0 2) idx) in
  let rec expr depth =
    if depth = 0 then oneof [ access; map (fun n -> Ast.Const (Rat.of_int n)) (int_range 0 9) ]
    else
      frequency
        [
          (2, access);
          (1, map (fun e -> Ast.Neg e) (expr (depth - 1)));
          ( 3,
            map3
              (fun op a b -> Ast.Bin (op, a, b))
              (oneofl Ast.all_ops) (expr (depth - 1)) (expr (depth - 1)) );
        ]
  in
  let gen =
    map2 (fun lhs rhs -> { Ast.lhs; rhs }) (map (fun is -> ("out", is)) (list_size (int_range 0 2) idx)) (expr 3)
  in
  QCheck.make gen ~print:Pretty.program_to_string

let qcheck_print_parse_roundtrip =
  QCheck.Test.make ~name:"pretty-print then parse is the identity on ASTs" ~count:500 arb_program
    (fun p ->
      match Parser.parse_program (Pretty.program_to_string p) with
      | Ok p' -> Ast.equal_program p p'
      | Error _ -> false)

(* ---- shapes ---- *)

let test_shape_checks () =
  let p = parse "a(i) = b(i,j) * c(j)" in
  let shapes = [ ("b", [| 2; 3 |]); ("c", [| 3 |]) ] in
  (match Shape.infer_index_sizes ~shapes p with
  | Ok sizes ->
      check_int "i" 2 (List.assoc "i" sizes);
      check_int "j" 3 (List.assoc "j" sizes)
  | Error _ -> Alcotest.fail "infer failed");
  (match Shape.output_shape ~shapes p with
  | Ok s -> check_bool "output shape" true (s = [| 2 |])
  | Error _ -> Alcotest.fail "output shape failed");
  (* conflicting sizes *)
  let bad = [ ("b", [| 2; 3 |]); ("c", [| 4 |]) ] in
  check_bool "size conflict detected" true (Result.is_error (Shape.infer_index_sizes ~shapes:bad p))

let test_shape_arity () =
  let p = parse "a(i) = b(i,j)" in
  check_bool "arity ok" true (Result.is_ok (Shape.check_arities ~ranks:[ ("a", 1); ("b", 2) ] p));
  check_bool "arity bad" true (Result.is_error (Shape.check_arities ~ranks:[ ("a", 1); ("b", 1) ] p))

(* ---- tensors ---- *)

let test_tensor_basic () =
  let t = Tensor.create [| 2; 3 |] Rat.zero in
  Tensor.set t [| 1; 2 |] (rat 7);
  check_string "get" "7" (Rat.to_string (Tensor.get t [| 1; 2 |]));
  check_string "flat layout row-major" "7" (Rat.to_string (Tensor.get_flat t 5));
  check_int "size" 6 (Tensor.size t);
  check_int "rank" 2 (Tensor.rank t);
  let s = Tensor.scalar (rat 3) in
  check_int "scalar rank" 0 (Tensor.rank s);
  check_string "scalar get" "3" (Rat.to_string (Tensor.get s [||]))

let test_tensor_bounds () =
  let t = Tensor.create [| 2 |] Rat.zero in
  check_bool "oob raises" true
    (try
       ignore (Tensor.get t [| 5 |]);
       false
     with Invalid_argument _ -> true);
  check_bool "rank mismatch raises" true
    (try
       ignore (Tensor.get t [| 0; 0 |]);
       false
     with Invalid_argument _ -> true)

let test_tensor_init_iteri () =
  let t = Tensor.init [| 2; 2 |] (fun ix -> rat ((10 * ix.(0)) + ix.(1))) in
  Alcotest.(check (list string)) "init order" [ "0"; "1"; "10"; "11" ] (flat t);
  let acc = ref [] in
  Tensor.iteri (fun ix v -> acc := (Array.to_list ix, Rat.to_string v) :: !acc) t;
  check_int "iteri visits all" 4 (List.length !acc)

(* ---- einsum interpreter ---- *)

let test_interp_dot () =
  let out = run_interp "r = a(i) * b(i)" [ ("a", t1 [| 1; 2; 3 |]); ("b", t1 [| 4; 5; 6 |]) ] in
  Alcotest.(check (list string)) "dot" [ "32" ] (flat out)

let test_interp_gemv () =
  let out =
    run_interp "r(i) = m(i,j) * v(j)"
      [ ("m", t2 2 3 [| 1; 2; 3; 4; 5; 6 |]); ("v", t1 [| 1; 1; 1 |]) ]
  in
  Alcotest.(check (list string)) "gemv" [ "6"; "15" ] (flat out)

let test_interp_reduction_placement () =
  (* a(i) = b(i,j)*c(j) + d(i): the j-sum wraps only the product *)
  let out =
    run_interp "a(i) = b(i,j) * c(j) + d(i)"
      [
        ("b", t2 2 2 [| 1; 2; 3; 4 |]); ("c", t1 [| 1; 1 |]); ("d", t1 [| 100; 200 |]);
      ]
  in
  Alcotest.(check (list string)) "sum inserted at product" [ "103"; "207" ] (flat out)

let test_interp_reduction_whole () =
  (* r = a(i) + b(i): i spans both operands, the sum wraps the whole RHS *)
  let out = run_interp "r = a(i) + b(i)" [ ("a", t1 [| 1; 2 |]); ("b", t1 [| 10; 20 |]) ] in
  Alcotest.(check (list string)) "sum of sums" [ "33" ] (flat out)

let test_interp_scalar_broadcast () =
  let out = run_interp "r(i) = a(i) * s" [ ("a", t1 [| 1; 2; 3 |]); ("s", Tensor.scalar (rat 5)) ] in
  Alcotest.(check (list string)) "broadcast scalar" [ "5"; "10"; "15" ] (flat out)

let test_interp_transpose () =
  let out = run_interp "a(i,j) = b(j,i)" [ ("b", t2 2 3 [| 1; 2; 3; 4; 5; 6 |]) ] in
  Alcotest.(check (list string)) "transpose" [ "1"; "4"; "2"; "5"; "3"; "6" ] (flat out)

let test_interp_division_by_zero () =
  match I.run ~env:[ ("a", t1 [| 1 |]); ("b", t1 [| 0 |]) ] (parse "r(i) = a(i) / b(i)") with
  | Error msg -> check_string "div by zero reported" "division by zero" msg
  | Ok _ -> Alcotest.fail "expected failure"

let test_interp_unknown_tensor () =
  check_bool "unknown tensor" true (Result.is_error (I.run ~env:[] (parse "a(i) = b(i)")))

let test_interp_repeated_index () =
  (* trace-like: r = b(i,i) sums the diagonal *)
  let out = run_interp "r = b(i,i)" [ ("b", t2 2 2 [| 1; 2; 3; 4 |]) ] in
  Alcotest.(check (list string)) "trace" [ "5" ] (flat out)

(* ---- lowering ---- *)

let test_lower_matches_interp_cases () =
  let check_same src env out_shape =
    let p = parse src in
    let via_interp = Result.get_ok (I.run ~env p) in
    let kernel = Lower.lower_exn p in
    let via_kernel = Result.get_ok (E.run ~env ~out_shape kernel) in
    check_bool (src ^ " kernel = interp") true (Tensor.equal Rat.equal via_interp via_kernel)
  in
  check_same "r(i) = m(i,j) * v(j)"
    [ ("m", t2 2 3 [| 1; 2; 3; 4; 5; 6 |]); ("v", t1 [| 7; 8; 9 |]) ]
    [| 2 |];
  check_same "r = a(i) * b(i)" [ ("a", t1 [| 1; 2 |]); ("b", t1 [| 3; 4 |]) ] [||];
  check_same "r(i,j) = a(i) * b(j)" [ ("a", t1 [| 1; 2 |]); ("b", t1 [| 3; 4; 5 |]) ] [| 2; 3 |];
  check_same "a(i) = b(i,j) * c(j) + d(i)"
    [ ("b", t2 2 2 [| 1; 2; 3; 4 |]); ("c", t1 [| 5; 6 |]); ("d", t1 [| 7; 8 |]) ]
    [| 2 |]

(* property: lowering agrees with the einsum interpreter on random
   programs and random tensors *)
let qcheck_lower_equals_interp =
  let arb =
    let open QCheck.Gen in
    (* well-shaped programs over fixed tensors: b: 2x3, c: 3, d: 2, s: scalar *)
    let atoms =
      [ "b(i,j)"; "c(j)"; "d(i)"; "s"; "2"; "b(i,j) * c(j)"; "d(i) * s"; "c(j) * c(j)" ]
    in
    let op = oneofl [ "+"; "-"; "*" ] in
    let rhs =
      oneof
        [
          oneofl atoms;
          map3 (fun a o b -> a ^ " " ^ o ^ " " ^ b) (oneofl atoms) op (oneofl atoms);
        ]
    in
    let lhs = oneofl [ "a(i)"; "a"; "a(i,j)" ] in
    QCheck.make
      (map2 (fun l r -> l ^ " = " ^ r) lhs rhs)
      ~print:(fun s -> s)
  in
  QCheck.Test.make ~name:"lowered kernel computes the same function as the interpreter" ~count:200
    arb (fun src ->
      let p = parse src in
      let env =
        [
          ("b", t2 2 3 [| 1; 2; 3; 4; 5; 6 |]);
          ("c", t1 [| 7; 8; 9 |]);
          ("d", t1 [| 10; 11 |]);
          ("s", Tensor.scalar (rat 3));
        ]
      in
      match I.run ~env p with
      | Error _ -> QCheck.assume_fail () (* ill-shaped (e.g. a(i,j) = d(i)) *)
      | Ok via_interp -> (
          match Lower.lower p with
          | Error _ -> false
          | Ok kernel -> (
              match E.run ~env ~out_shape:(Tensor.shape via_interp) kernel with
              | Error _ -> false
              | Ok via_kernel -> Tensor.equal Rat.equal via_interp via_kernel)))

(* ---- staged compilation ---- *)

module C = Compile.Make (Value.Rat_value)

(* property: the staged evaluator agrees with the reference interpreter
   cell-for-cell on random programs — and error-for-error: the generator
   deliberately mixes in atoms that force each failure class (unknown
   tensor [u], rank mismatch [b(i)], conflicting index sizes
   [c(j) vs d(j)], unbound output index [a(k) = ...], division by zero
   [/ z(j)]), and the two evaluators must produce identical messages *)
let qcheck_compile_equals_interp =
  let arb =
    let open QCheck.Gen in
    let atoms =
      [
        "b(i,j)"; "c(j)"; "d(i)"; "s"; "2"; "b(i,j) * c(j)"; "d(i) * s"; "c(j) * c(j)";
        "u(i)"; "b(i)"; "d(j)"; "c(j) / z(j)"; "- d(i)";
      ]
    in
    let op = oneofl [ "+"; "-"; "*"; "/" ] in
    let rhs =
      oneof
        [ oneofl atoms; map3 (fun a o b -> a ^ " " ^ o ^ " " ^ b) (oneofl atoms) op (oneofl atoms) ]
    in
    let lhs = oneofl [ "a(i)"; "a"; "a(i,j)"; "a(k)" ] in
    QCheck.make (map2 (fun l r -> l ^ " = " ^ r) lhs rhs) ~print:(fun s -> s)
  in
  QCheck.Test.make ~name:"staged evaluator agrees with the interpreter, including errors"
    ~count:500 arb (fun src ->
      let p = parse src in
      let env =
        [
          ("b", t2 2 3 [| 1; 2; 3; 4; 5; 6 |]);
          ("c", t1 [| 7; 8; 9 |]);
          ("d", t1 [| 10; 11 |]);
          ("s", Tensor.scalar (rat 3));
          ("z", t1 [| 0; 5; 7 |]);
        ]
      in
      let compiled = C.compile p in
      match (I.run ~env p, C.run compiled ~env ()) with
      | Ok ti, Ok tc ->
          Tensor.shape ti = Tensor.shape tc
          && Tensor.equal Rat.equal ti tc
          && C.run_equal compiled ~env ~lhs_shape:(Tensor.shape ti)
               ~expected:(Tensor.to_flat_array ti)
          &&
          (* and [run_equal] rejects a perturbed expectation *)
          let wrong = Tensor.to_flat_array ti in
          wrong.(0) <- Rat.add wrong.(0) Rat.one;
          not (C.run_equal compiled ~env ~lhs_shape:(Tensor.shape ti) ~expected:wrong)
      | Error e1, Error e2 -> String.equal e1 e2
      | Ok _, Error _ | Error _, Ok _ -> false)

let test_compile_repeated_lhs_index () =
  (* a(i,i) writes the diagonal; the first axis wins in the interpreter's
     index environment, and the compiled iteration must match *)
  let src = "a(i,i) = b(i,j) * c(j)" in
  let env = [ ("b", t2 2 3 [| 1; 2; 3; 4; 5; 6 |]); ("c", t1 [| 7; 8; 9 |]) ] in
  let p = parse src in
  let lhs_shape = [| 2; 2 |] in
  let ti = Result.get_ok (I.run ~env ~lhs_shape p) in
  let tc = Result.get_ok (C.run (C.compile p) ~env ~lhs_shape ()) in
  check_bool "diagonal agreement" true (Tensor.equal Rat.equal ti tc)

(* ---- template-level compilation (the batched validation path) ---- *)

module T = Stagg_template.Templatize

(* A fixed, complete symbol mapping, as [Subst.enumerate] always produces.
   [tu] maps to a name absent from the env so unknown-tensor errors stay
   reachable through a complete mapping. *)
let template_mapping =
  [ ("a", "r"); ("tb", "b"); ("tc", "c"); ("td", "d"); ("ts", "s"); ("tz", "z"); ("tu", "u") ]

let template_env =
  [
    ("b", t2 2 3 [| 1; 2; 3; 4; 5; 6 |]);
    ("c", t1 [| 7; 8; 9 |]);
    ("d", t1 [| 10; 11 |]);
    ("s", Tensor.scalar (rat 3));
    ("z", t1 [| 0; 5; 7 |]);
  ]

(* Random templates over the symbolic names, deliberately mixing in atoms
   that force each failure class (unknown tensor [tu], rank mismatch
   [tb(i)], conflicting sizes [td(j)], unbound output index [a(k)],
   division by zero [/ tz(j)], a ranked [Const(i)] — which [rename] leaves
   named [Const], failing at bind), plus rank-0 and repeated-index LHS
   edge cases. Two constants per case: the second [rebind] of the same
   compiled template must behave like a fresh compile (no stale state). *)
let arb_template_case =
  let open QCheck.Gen in
  let atoms =
    [
      "tb(i,j)"; "tc(j)"; "td(i)"; "ts"; "Const"; "2"; "tb(i,j) * tc(j)"; "tc(j) * Const";
      "tu(i)"; "tb(i)"; "td(j)"; "tc(j) / tz(j)"; "- td(i)"; "Const(i)";
    ]
  in
  let op = oneofl [ "+"; "-"; "*"; "/" ] in
  let rhs =
    oneof
      [ oneofl atoms; map3 (fun a o b -> a ^ " " ^ o ^ " " ^ b) (oneofl atoms) op (oneofl atoms) ]
  in
  let lhs = oneofl [ "a(i)"; "a"; "a(i,j)"; "a(k)"; "a(i,i)" ] in
  let const = map Rat.of_int (int_range (-3) 9) in
  QCheck.make
    (map3 (fun l r cs -> (l ^ " = " ^ r, cs)) lhs rhs (pair const const))
    ~print:(fun (s, _) -> s)

let qcheck_template_rebind_equals_compile =
  QCheck.Test.make
    ~name:"compile_template + rebind agrees with per-candidate compile, including errors"
    ~count:500 arb_template_case (fun (src, (c1, c2)) ->
      let template = parse src in
      let ct = C.compile_template template in
      let agree const =
        let concrete = T.rename template ~mapping:template_mapping ~const:(Some const) in
        let per = C.compile concrete in
        C.rebind ct ~mapping:template_mapping ~const:(Some const);
        match (C.run per ~env:template_env (), C.run ct ~env:template_env ()) with
        | Ok tp, Ok tt ->
            Tensor.shape tp = Tensor.shape tt
            && Tensor.equal Rat.equal tp tt
            &&
            let shape = Tensor.shape tp in
            let expected = Tensor.to_flat_array tp in
            C.run_equal ct ~env:template_env ~lhs_shape:shape ~expected
            = C.run_equal per ~env:template_env ~lhs_shape:shape ~expected
            &&
            (* and both reject the same perturbed expectation *)
            let wrong = Tensor.to_flat_array tp in
            wrong.(0) <- Rat.add wrong.(0) Rat.one;
            C.run_equal ct ~env:template_env ~lhs_shape:shape ~expected:wrong
            = C.run_equal per ~env:template_env ~lhs_shape:shape ~expected:wrong
        | Error e1, Error e2 -> String.equal e1 e2
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      agree c1 && agree c2)

let failure_of f =
  try
    ignore (f ());
    "<no failure>"
  with Failure m -> m

let test_template_rebind_error_parity () =
  let template = parse "a(i) = tb(i) * Const" in
  let ct = C.compile_template template in
  (* a symbol missing from the mapping: byte-identical to rename's error *)
  let short = [ ("a", "r") ] in
  check_string "missing binding parity"
    (failure_of (fun () -> T.rename template ~mapping:short ~const:(Some Rat.one)))
    (failure_of (fun () -> C.rebind ct ~mapping:short ~const:(Some Rat.one)));
  (* a Const hole with no constant to fill it *)
  let full = [ ("a", "r"); ("tb", "b") ] in
  check_string "missing const parity"
    (failure_of (fun () -> T.rename template ~mapping:full ~const:None))
    (failure_of (fun () -> C.rebind ct ~mapping:full ~const:None));
  (* rebind on a per-program evaluator is a programming error *)
  check_bool "rebind rejects per-program evaluator" true
    (try
       C.rebind (C.compile (parse "a(i) = b(i)")) ~mapping:full ~const:None;
       false
     with Invalid_argument _ -> true)

let test_template_rank_overflow () =
  let idxs = "i1, i2, i3, i4, i5, i6, i7, i8, i9" in
  let p = parse (Printf.sprintf "a(%s) = b(%s)" idxs idxs) in
  (* over MAXRANK the template compiler refuses up front... *)
  check_bool "compile_template overflows cleanly" true
    (try
       ignore (C.compile_template p);
       false
     with C.Rank_overflow _ -> true);
  (* ...while the per-program compiler falls back to exact-size scratch *)
  let t9 = Tensor.of_flat_array (Array.make 9 1) [| rat 42 |] in
  (match C.run (C.compile p) ~env:[ ("b", t9) ] () with
  | Ok t -> check_string "rank-9 per-program compile runs" "42" (Rat.to_string (Tensor.get_flat t 0))
  | Error e -> Alcotest.fail e);
  (* the loop-nest executor reports the capacity overflow as an error *)
  match Lower.lower p with
  | Error _ -> ()
  | Ok kernel -> (
      match E.run ~env:[ ("b", t9) ] ~out_shape:(Array.make 9 1) kernel with
      | Error msg -> check_bool "Exec reports MAXRANK" true (String.length msg > 0)
      | Ok _ -> Alcotest.fail "expected the rank-9 kernel to exceed MAXRANK")

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "stagg_taco"
    [
      ( "parser",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case ":= accepted" `Quick test_parse_assign_variants;
          Alcotest.test_case "sum wrapper erased" `Quick test_parse_sum_wrapper;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "left associativity" `Quick test_parse_left_assoc;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "deep nesting refused" `Quick test_parse_depth_cap;
          Alcotest.test_case "decimal literals" `Quick test_parse_decimal;
          qc qcheck_print_parse_roundtrip;
        ] );
      ( "shape",
        [
          Alcotest.test_case "index sizes" `Quick test_shape_checks;
          Alcotest.test_case "arities" `Quick test_shape_arity;
        ] );
      ( "tensor",
        [
          Alcotest.test_case "basic" `Quick test_tensor_basic;
          Alcotest.test_case "bounds" `Quick test_tensor_bounds;
          Alcotest.test_case "init/iteri" `Quick test_tensor_init_iteri;
        ] );
      ( "interp",
        [
          Alcotest.test_case "dot" `Quick test_interp_dot;
          Alcotest.test_case "gemv" `Quick test_interp_gemv;
          Alcotest.test_case "reduction placement" `Quick test_interp_reduction_placement;
          Alcotest.test_case "whole-RHS reduction" `Quick test_interp_reduction_whole;
          Alcotest.test_case "scalar broadcast" `Quick test_interp_scalar_broadcast;
          Alcotest.test_case "transpose" `Quick test_interp_transpose;
          Alcotest.test_case "division by zero" `Quick test_interp_division_by_zero;
          Alcotest.test_case "unknown tensor" `Quick test_interp_unknown_tensor;
          Alcotest.test_case "repeated index (trace)" `Quick test_interp_repeated_index;
        ] );
      ( "lower",
        [
          Alcotest.test_case "kernel equals interpreter" `Quick test_lower_matches_interp_cases;
          qc qcheck_lower_equals_interp;
        ] );
      ( "compile",
        [
          Alcotest.test_case "repeated LHS index" `Quick test_compile_repeated_lhs_index;
          qc qcheck_compile_equals_interp;
        ] );
      ( "template compile",
        [
          Alcotest.test_case "rebind error parity" `Quick test_template_rebind_error_parity;
          Alcotest.test_case "MAXRANK overflow" `Quick test_template_rank_overflow;
          qc qcheck_template_rebind_equals_compile;
        ] );
    ]
