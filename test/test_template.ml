(* Tests for stagg_template: templatization (§4.2.1), dimension lists
   (§4.2.3), substitution enumeration (§6). *)

open Stagg_util
open Stagg_template
module Ast = Stagg_taco.Ast

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse = Stagg_taco.Parser.parse_program_exn
let show p = Stagg_taco.Pretty.program_to_string p
let templatize_str s = Option.map show (Templatize.templatize (parse s))

(* ---- templatization: the paper's Fig. 4 example ---- *)

let test_fig4_standardization () =
  (* t(f) = m1(i, f) * m2(f)  ↦  a(i) = b(j, i) * c(i) *)
  check_string "Fig. 4" "a(i) = b(j, i) * c(i)"
    (Option.get (templatize_str "t(f) = m1(i, f) * m2(f)"));
  (* the := spelling standardizes to the same template *)
  check_string "Fig. 4 with :=" "a(i) = b(j, i) * c(i)"
    (Option.get (templatize_str "Target(i) := Mat1(f,i) * Mat2(i)"))

let test_templatize_tensor_order () =
  check_string "RHS order of first appearance" "a(i) = b(i) * c(i, j) + c(i, j) * b(i)"
    (Option.get (templatize_str "out(x) = v(x) * M(x,y) + M(x,y) * v(x)"))

let test_templatize_constants () =
  check_string "constants become Const" "a(i) = b(i) * Const + Const"
    (Option.get (templatize_str "r(i) = x(i) * 5 + 3"))

let test_templatize_too_many_indices () =
  check_bool "5 indices rejected" true
    (templatize_str "a(v,w,x,y,z) = b(v,w,x,y,z)" = None)

let test_templatize_repeated_tensor () =
  check_string "same tensor maps to same symbol" "a = b(i) * b(i)"
    (Option.get (templatize_str "ss = x(f) * x(f)"))

(* ---- rename / instantiate ---- *)

let test_rename () =
  let t = parse "a(i) = b(i,j) * c(j)" in
  let p =
    Templatize.rename t ~mapping:[ ("a", "Result"); ("b", "Mat1"); ("c", "Mat2") ] ~const:None
  in
  check_string "instantiated" "Result(i) = Mat1(i, j) * Mat2(j)" (show p)

let test_rename_const () =
  let t = Option.get (Templatize.templatize (parse "r(i) = x(i) * 7")) in
  let p = Templatize.rename t ~mapping:[ ("a", "R"); ("b", "X") ] ~const:(Some (Rat.of_int 7)) in
  check_string "const inlined" "R(i) = X(i) * 7" (show p)

let test_rename_missing_binding () =
  let t = parse "a(i) = b(i)" in
  check_bool "missing symbol fails" true
    (try
       ignore (Templatize.rename t ~mapping:[ ("a", "R") ] ~const:None);
       false
     with Failure _ -> true)

(* ---- dimension lists ---- *)

let test_dimlist_of_template () =
  Alcotest.(check (list int)) "dims in appearance order" [ 1; 2; 1 ]
    (Dimlist.of_template (parse "a(i) = b(i,j) * c(j)"));
  (* constants and scalars count as dimension 0 (Def. 4.5) *)
  Alcotest.(check (list int)) "const is 0-dim" [ 1; 0; 1 ]
    (Dimlist.of_template (Option.get (Templatize.templatize (parse "a(i) = 5 - b(i)"))))

let test_dimlist_predict_majority () =
  let ts =
    List.map parse
      [
        "a(i) = b(i,j) * c(j)";
        "a(i) = b(j,i) * c(i)";
        "a(i) = b(i,j) * c(j)";
        "a(i) = b(i)" (* shorter: filtered out by the max-length rule *);
      ]
  in
  Alcotest.(check (option (list int))) "majority of max-length lists" (Some [ 1; 2; 1 ])
    (Dimlist.predict ts)

let test_dimlist_predict_empty () =
  Alcotest.(check (option (list int))) "empty input" None (Dimlist.predict [])

let test_dimlist_override () =
  Alcotest.(check (list int)) "LHS override" [ 0; 2; 1 ] (Dimlist.override_lhs [ 1; 2; 1 ] 0)

(* ---- substitution enumeration (paper Fig. 8) ---- *)

let fig8_args =
  [
    { Subst.name = "N"; rank = Some 0; is_size = true };
    { Subst.name = "Mat1"; rank = Some 2; is_size = false };
    { Subst.name = "Mat2"; rank = Some 1; is_size = false };
    { Subst.name = "Result"; rank = Some 1; is_size = false };
  ]

let test_subst_enumerate_fig8 () =
  let template = parse "a(i) = b(i,j) * c(j)" in
  let substs =
    Subst.enumerate ~template ~out:"Result" ~out_rank:1 ~args:fig8_args ~consts:[]
  in
  (* b must bind the unique 2-D argument; c any of the 1-D ones: Mat2 or
     Result. N (a scalar) is ruled out for c — exactly the paper's S3/S6. *)
  check_int "two sound substitutions" 2 (List.length substs);
  List.iter
    (fun (s : Subst.t) ->
      check_string "b" "Mat1" (List.assoc "b" s.tensor_binding);
      check_bool "c is 1-D" true
        (List.mem (List.assoc "c" s.tensor_binding) [ "Mat2"; "Result" ]))
    substs

let test_subst_lhs_rank_mismatch () =
  let template = parse "a(i,j) = b(i,j)" in
  check_int "LHS arity must match the output" 0
    (List.length (Subst.enumerate ~template ~out:"Result" ~out_rank:1 ~args:fig8_args ~consts:[]))

let test_subst_const_pool () =
  let template = Option.get (Templatize.templatize (parse "r(i) = x(i) * 3")) in
  let args = [ { Subst.name = "X"; rank = Some 1; is_size = false }; { Subst.name = "R"; rank = Some 1; is_size = false } ] in
  let with_consts =
    Subst.enumerate ~template ~out:"R" ~out_rank:1 ~args ~consts:[ Rat.of_int 3; Rat.of_int 5 ]
  in
  (* 2 tensor choices for b × 2 constants *)
  check_int "tensor × constant combinations" 4 (List.length with_consts);
  check_int "no constants, no substitutions" 0
    (List.length (Subst.enumerate ~template ~out:"R" ~out_rank:1 ~args ~consts:[]))

let test_subst_arity_inconsistent_template () =
  (* b used with two different arities: no sound instantiation exists *)
  let template = parse "a(i) = b(i,j) * b(j)" in
  check_int "inconsistent arity rejected" 0
    (List.length (Subst.enumerate ~template ~out:"Result" ~out_rank:1 ~args:fig8_args ~consts:[]))

let test_subst_instantiate () =
  let template = parse "a(i) = b(i,j) * c(j)" in
  let s =
    List.hd (Subst.enumerate ~template ~out:"Result" ~out_rank:1 ~args:fig8_args ~consts:[])
  in
  let p = Subst.instantiate template s in
  check_bool "instantiated over arguments" true
    (String.length (show p) > 0 && (List.mem (fst p.Ast.lhs) [ "Result" ]))

let test_subst_enumerate_seq_agrees () =
  (* the lazy enumeration is the eager one, element for element, across
     the fixture shapes: sound, rank-mismatched, const-bearing *)
  let cases =
    [
      ("a(i) = b(i,j) * c(j)", []);
      ("a(i,j) = b(i,j)", []);
      ( "a(i) = b(i) * Const",
        [ Rat.of_int 3; Rat.of_int 5 ] );
    ]
  in
  List.iter
    (fun (src, consts) ->
      let template = parse src in
      let eager = Subst.enumerate ~template ~out:"Result" ~out_rank:1 ~args:fig8_args ~consts in
      let lazy_ =
        List.of_seq
          (Subst.enumerate_seq ~template ~out:"Result" ~out_rank:1 ~args:fig8_args ~consts)
      in
      check_int (src ^ ": same length") (List.length eager) (List.length lazy_);
      List.iter2
        (fun (a : Subst.t) (b : Subst.t) ->
          check_bool (src ^ ": same binding") true
            (a.tensor_binding = b.tensor_binding
            && Option.equal Rat.equal a.const_binding b.const_binding))
        eager lazy_)
    cases

let () =
  Alcotest.run "stagg_template"
    [
      ( "templatize",
        [
          Alcotest.test_case "Fig. 4 standardization" `Quick test_fig4_standardization;
          Alcotest.test_case "tensor order" `Quick test_templatize_tensor_order;
          Alcotest.test_case "constants" `Quick test_templatize_constants;
          Alcotest.test_case "index overflow" `Quick test_templatize_too_many_indices;
          Alcotest.test_case "repeated tensor" `Quick test_templatize_repeated_tensor;
        ] );
      ( "rename",
        [
          Alcotest.test_case "tensor mapping" `Quick test_rename;
          Alcotest.test_case "constant inlining" `Quick test_rename_const;
          Alcotest.test_case "missing binding" `Quick test_rename_missing_binding;
        ] );
      ( "dimlist",
        [
          Alcotest.test_case "of_template" `Quick test_dimlist_of_template;
          Alcotest.test_case "majority prediction" `Quick test_dimlist_predict_majority;
          Alcotest.test_case "empty" `Quick test_dimlist_predict_empty;
          Alcotest.test_case "LHS override" `Quick test_dimlist_override;
        ] );
      ( "subst",
        [
          Alcotest.test_case "Fig. 8 enumeration" `Quick test_subst_enumerate_fig8;
          Alcotest.test_case "LHS rank mismatch" `Quick test_subst_lhs_rank_mismatch;
          Alcotest.test_case "constant pool" `Quick test_subst_const_pool;
          Alcotest.test_case "inconsistent arities" `Quick test_subst_arity_inconsistent_template;
          Alcotest.test_case "instantiate" `Quick test_subst_instantiate;
          Alcotest.test_case "lazy enumeration agrees" `Quick test_subst_enumerate_seq_agrees;
        ] );
    ]
