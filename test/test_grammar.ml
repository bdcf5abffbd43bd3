(* Tests for stagg_grammar: CFG machinery, probability assignment with the
   h(α) fixpoint, the two grammar generators, and derivation counting. *)

open Stagg_grammar
module Ast = Stagg_taco.Ast

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse = Stagg_taco.Parser.parse_program_exn

let close a b = Float.abs (a -. b) < 1e-9

(* a tiny hand-built grammar: S -> "a" = E; E -> T | E + E; T -> b | c *)
let tiny () =
  Cfg.make ~start:"S"
    ~categories:[ ("S", Cfg.Cat_program); ("E", Cfg.Cat_expr); ("T", Cfg.Cat_tensor) ]
    [
      ("S", [ `T (Cfg.Tok_tensor ("a", [])); `T Cfg.Tok_assign; `N "E" ]);
      ("E", [ `N "T" ]);
      ("E", [ `N "E"; `T (Cfg.Tok_op Ast.Add); `N "E" ]);
      ("T", [ `T (Cfg.Tok_tensor ("b", [])) ]);
      ("T", [ `T (Cfg.Tok_tensor ("c", [])) ]);
    ]

let test_cfg_basics () =
  let g = tiny () in
  let e = Cfg.nt_id g "E" in
  check_int "five rules" 5 (Cfg.size g);
  check_int "two E rules" 2 (List.length (Cfg.rules_for g e));
  check_bool "category" true (Cfg.category g e = Cfg.Cat_expr);
  (* ids follow the category list; names and ids round-trip *)
  check_int "three nonterminals" 3 (Cfg.n_nonterminals g);
  List.iteri
    (fun id nt ->
      check_int ("id of " ^ nt) id (Cfg.nt_id g nt);
      check_string ("name of " ^ nt) nt (Cfg.nt_name g id))
    [ "S"; "E"; "T" ];
  Alcotest.check_raises "unknown name" (Invalid_argument "Cfg.nt_id: unknown nonterminal X")
    (fun () -> ignore (Cfg.nt_id g "X"));
  (* every rule prints its lhs and rhs by name *)
  check_string "pp"
    "start: S\n\
     S ::= \"a\" \"=\" E   (1.0000)\n\
     E ::= T   (0.5000)\n\
     E ::= E \"+\" E   (0.5000)\n\
     T ::= \"b\"   (0.5000)\n\
     T ::= \"c\"   (0.5000)\n"
    (Format.asprintf "%a" Pcfg.pp (Pcfg.uniform g));
  Alcotest.check_raises "missing category rejected"
    (Invalid_argument "Cfg.make: nonterminal X has no category") (fun () ->
      ignore (Cfg.make ~start:"X" ~categories:[] [ ("X", [ `N "X" ]) ]));
  Alcotest.check_raises "uncategorized lhs rejected"
    (Invalid_argument "Cfg.make: nonterminal X has no category") (fun () ->
      ignore
        (Cfg.make ~start:"S" ~categories:[ ("S", Cfg.Cat_program) ]
           [ ("S", [ `T Cfg.Tok_const ]); ("X", [ `T Cfg.Tok_const ]) ]))

let test_pcfg_normalization () =
  let g = tiny () in
  let w = Array.make (Cfg.size g) 0. in
  (* E -> T seen 3 times, E -> E+E once *)
  w.(0) <- 1.;
  w.(1) <- 3.;
  w.(2) <- 1.;
  w.(3) <- 2.;
  w.(4) <- 2.;
  let p = Pcfg.of_weights g w in
  check_bool "E->T prob" true (close (Pcfg.prob p (Cfg.rule g 1)) 0.75);
  check_bool "E->E+E prob" true (close (Pcfg.prob p (Cfg.rule g 2)) 0.25);
  check_bool "T rules uniform" true (close (Pcfg.prob p (Cfg.rule g 3)) 0.5);
  (* probabilities per nonterminal sum to 1 *)
  for nt = 0 to Cfg.n_nonterminals g - 1 do
    let total = List.fold_left (fun acc r -> acc +. Pcfg.prob p r) 0. (Cfg.rules_for g nt) in
    check_bool (Cfg.nt_name g nt ^ " sums to 1") true (close total 1.)
  done

let test_pcfg_h_fixpoint () =
  let g = tiny () in
  let p = Pcfg.uniform g in
  (* h(T) = 1/2; h(E) = max(1/2 * h(T), 1/2 * h(E)^2) = 1/4 *)
  let h nt = Pcfg.h p (Cfg.nt_id g nt) in
  check_bool "h(T)" true (close (h "T") 0.5);
  check_bool "h(E)" true (close (h "E") 0.25);
  check_bool "h(S)" true (close (h "S") 0.25);
  check_bool "h_cost finite" true (Pcfg.h_cost p (Cfg.nt_id g "E") < infinity)

let test_pcfg_zero_prob_cost () =
  let g = tiny () in
  let w = Array.make (Cfg.size g) 1. in
  w.(2) <- 0. (* never expand E -> E+E *);
  let p = Pcfg.of_weights g w in
  check_bool "zero prob rule costs infinity" true (Pcfg.cost p (Cfg.rule g 2) = infinity);
  check_bool "positive rule costs finite" true (Pcfg.cost p (Cfg.rule g 1) < infinity)

let test_ops_available () =
  let g = tiny () in
  let p = Pcfg.uniform g in
  check_bool "+ available" true (Pcfg.ops_available p = [ Ast.Add ])

(* ---- generators ---- *)

let rules_for g nt = Cfg.rules_for g (Cfg.nt_id g nt)

let templates_of = List.map parse

let test_gen_topdown_shape () =
  (* paper Fig. 6: dimension list [1,2,1,0] with 3 unique indices *)
  let templates = templates_of [ "a(i) = b(i,j) * c(k) + d" ] in
  let g = Gen_topdown.generate ~dim_list:[ 1; 2; 1; 0 ] ~templates in
  let tensor_terms =
    List.concat_map
      (fun (r : Cfg.rule) ->
        List.filter_map
          (function Cfg.T (Cfg.Tok_tensor (n, idxs)) -> Some (n, idxs) | _ -> None)
          r.rhs)
      (rules_for g "TENSOR")
  in
  (* b gets every 2-arrangement of {i,j,k} without repetition: 6 *)
  check_int "b arrangements" 6
    (List.length (List.filter (fun (n, _) -> n = "b") tensor_terms));
  (* c gets the 3 single indices *)
  check_int "c arrangements" 3
    (List.length (List.filter (fun (n, _) -> n = "c") tensor_terms));
  (* no repeated-index tuples: no candidate uses one *)
  check_bool "no b(i,i)" true
    (not (List.exists (fun (_, idxs) -> idxs = [ "i"; "i" ]) tensor_terms));
  (* d is 0-dimensional: bare scalar present *)
  check_bool "bare d" true (List.mem ("d", []) tensor_terms)

let test_gen_topdown_repeats_allowed_when_seen () =
  let templates = templates_of [ "a(i) = b(i,i)" ] in
  let g = Gen_topdown.generate ~dim_list:[ 1; 2 ] ~templates in
  let has_bii =
    List.exists
      (fun (r : Cfg.rule) -> r.rhs = [ Cfg.T (Cfg.Tok_tensor ("b", [ "i"; "i" ])) ])
      (rules_for g "TENSOR")
  in
  check_bool "b(i,i) kept when a candidate uses it" true has_bii

let test_gen_topdown_const_gated () =
  (* Const enters the grammar only when some candidate has a constant *)
  let without = Gen_topdown.generate ~dim_list:[ 1; 1; 0 ] ~templates:(templates_of [ "a(i) = b(i) * c" ]) in
  let with_ = Gen_topdown.generate ~dim_list:[ 1; 1; 0 ] ~templates:(templates_of [ "a(i) = b(i) * 3" ]) in
  let has_const g =
    List.exists
      (fun (r : Cfg.rule) -> r.rhs = [ Cfg.T Cfg.Tok_const ])
      (rules_for g "TENSOR")
  in
  check_bool "no const without literal candidates" false (has_const without);
  check_bool "const with literal candidates" true (has_const with_)

let test_gen_bottomup_shape () =
  (* paper Fig. 7: dimension list [0,1,2,1] *)
  let templates = templates_of [ "a = b(i) + c(i,j) * d(k)" ] in
  let g = Gen_bottomup.generate ~dim_list:[ 0; 1; 2; 1 ] ~templates in
  check_bool "TENSOR2 exists" true (rules_for g "TENSOR2" <> []);
  check_bool "TENSOR4 exists" true (rules_for g "TENSOR4" <> []);
  (* TAIL1 has ε and a continuation; the last TAIL has only ε *)
  check_int "TAIL1 rules" 2 (List.length (rules_for g "TAIL1"));
  check_int "TAIL3 rules" 1 (List.length (rules_for g "TAIL3"));
  check_bool "TAIL3 is epsilon" true ((List.hd (rules_for g "TAIL3")).rhs = [])

let test_gen_bottomup_too_short () =
  Alcotest.check_raises "needs >= 2 entries"
    (Invalid_argument "Gen_bottomup.generate: dimension list needs at least two entries") (fun () ->
      ignore (Gen_bottomup.generate ~dim_list:[ 1 ] ~templates:[]))

let test_taco_grammar_full () =
  let g = Taco_grammar.generate ~n_rhs_tensors:2 ~max_rank:2 ~n_indices:2 () in
  check_bool "has paren rule" true
    (Array.exists
       (fun (r : Cfg.rule) ->
         match r.rhs with [ Cfg.T Cfg.Tok_lparen; Cfg.NT _; Cfg.T Cfg.Tok_rparen ] -> true | _ -> false)
       (Cfg.rules g));
  check_bool "sizeable" true (Cfg.size g > 20)

(* ---- derivation counting ---- *)

let test_derive_counts () =
  let templates = templates_of [ "a(i) = b(i,j) * c(j)"; "a(i) = b(i,j) * c(j)"; "a(i) = b(j,i) * c(i)" ] in
  let g = Gen_topdown.generate ~dim_list:[ 1; 2; 1 ] ~templates in
  let w = Derive.weights_of_templates g templates in
  let weight_of_term term =
    let total = ref 0. in
    Array.iter
      (fun (r : Cfg.rule) -> if r.rhs = [ Cfg.T term ] then total := !total +. w.(r.id))
      (Cfg.rules g);
    !total
  in
  check_bool "b(i,j) counted twice" true (weight_of_term (Cfg.Tok_tensor ("b", [ "i"; "j" ])) = 2.);
  check_bool "b(j,i) counted once" true (weight_of_term (Cfg.Tok_tensor ("b", [ "j"; "i" ])) = 1.);
  check_bool "* counted thrice" true (weight_of_term (Cfg.Tok_op Ast.Mul) = 3.);
  (* operators never used keep weight 0 (paper Fig. 3) *)
  check_bool "+ weight zero" true (weight_of_term (Cfg.Tok_op Ast.Add) = 0.);
  (* unused tensor rules get the default weight 1 *)
  check_bool "unused c(j)... default 1" true (weight_of_term (Cfg.Tok_tensor ("c", [ "j" ])) >= 1.)

let test_derive_relaxed_const_shift () =
  (* a(i) = Const - b(i): the 1-dim tensor sits at position 3 (named c in
     the grammar) but templatization called it b; relaxed matching still
     derives it *)
  let templates = templates_of [ "a(i) = 5 - b(i)" ] in
  let g = Gen_topdown.generate ~dim_list:[ 1; 0; 1 ] ~templates in
  check_bool "derivable via relaxation" true (Derive.count_rules g (List.hd templates) <> None)

let test_derive_bottom_up_chain_only () =
  let templates = templates_of [ "a = b(i) * c(i)" ] in
  let g = Gen_bottomup.generate ~dim_list:[ 0; 1; 1 ] ~templates in
  check_bool "chain derivable" true (Derive.count_rules g (parse "a = b(i) * c(i)") <> None);
  (* a balanced/right-nested expression is not in a right-linear grammar *)
  check_bool "non-chain not derivable" true
    (Derive.count_rules g (parse "a = b(i) * (b(i) - c(i))") = None)

let () =
  Alcotest.run "stagg_grammar"
    [
      ( "cfg+pcfg",
        [
          Alcotest.test_case "cfg basics" `Quick test_cfg_basics;
          Alcotest.test_case "weight normalization" `Quick test_pcfg_normalization;
          Alcotest.test_case "h fixpoint" `Quick test_pcfg_h_fixpoint;
          Alcotest.test_case "zero probability = infinite cost" `Quick test_pcfg_zero_prob_cost;
          Alcotest.test_case "ops_available" `Quick test_ops_available;
        ] );
      ( "generators",
        [
          Alcotest.test_case "top-down shape (Fig 6)" `Quick test_gen_topdown_shape;
          Alcotest.test_case "repeated indices gated" `Quick test_gen_topdown_repeats_allowed_when_seen;
          Alcotest.test_case "Const gated on candidates" `Quick test_gen_topdown_const_gated;
          Alcotest.test_case "bottom-up shape (Fig 7)" `Quick test_gen_bottomup_shape;
          Alcotest.test_case "bottom-up dimension list too short" `Quick test_gen_bottomup_too_short;
          Alcotest.test_case "full TACO grammar" `Quick test_taco_grammar_full;
        ] );
      ( "derive",
        [
          Alcotest.test_case "leftmost derivation counts" `Quick test_derive_counts;
          Alcotest.test_case "relaxed matching across Const shift" `Quick test_derive_relaxed_const_shift;
          Alcotest.test_case "right-linear grammars take chains only" `Quick test_derive_bottom_up_chain_only;
        ] );
    ]
