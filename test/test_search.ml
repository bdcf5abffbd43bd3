(* Tests for stagg_search: partial derivation trees, penalties, and both
   A* enumerators. *)

open Stagg_grammar
open Stagg_search
module Ast = Stagg_taco.Ast

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse = Stagg_taco.Parser.parse_program_exn
let templates_of = List.map parse

let gemv_templates = templates_of [ "a(i) = b(i,j) * c(j)" ]
let gemv_grammar () = Gen_topdown.generate ~dim_list:[ 1; 2; 1 ] ~templates:gemv_templates

(* ---- Node ---- *)

let test_node_expansion () =
  let g = gemv_grammar () in
  let x0 = Node.initial g in
  check_bool "initially open" false (Node.is_complete x0);
  check_string "leftmost is start" "PROGRAM" (Option.get (Node.leftmost_open x0));
  let exps = Node.expansions g x0 in
  check_int "one PROGRAM rule" 1 (List.length exps);
  let _, x1 = List.hd exps in
  check_string "then EXPR" "EXPR" (Option.get (Node.leftmost_open x1))

let rec expand_first g x =
  match Node.expansions g x with [] -> x | (_, x') :: _ -> expand_first g x'

let test_node_to_program () =
  let g = gemv_grammar () in
  (* keep taking the first expansion until complete: PROGRAM -> a(i) = EXPR,
     EXPR -> TENSOR -> first tensor rule *)
  let x = expand_first g (Node.initial g) in
  check_bool "complete" true (Node.is_complete x);
  match Node.to_program g x with
  | Some p -> check_bool "prints" true (String.length (Stagg_taco.Pretty.program_to_string p) > 0)
  | None -> Alcotest.fail "to_program failed"

let test_node_depth_paper_examples () =
  (* §5.1: b(i) and c(i,j) have depth 1; b(i) + c(i,j) has depth 2 *)
  let g = gemv_grammar () in
  let leaf = Node.Leaf (Cfg.Tok_tensor ("b", [ "i" ])) in
  check_int "tensor leaf depth 1" 1 (Node.depth g leaf);
  (* build EXPR -> EXPR OP EXPR with tensor children through rule ids *)
  let bin_rule =
    List.find
      (fun (r : Cfg.rule) -> List.length r.rhs = 3 && r.lhs = "EXPR")
      (Cfg.rules_for g "EXPR")
  in
  let unit_rule = List.find (fun (r : Cfg.rule) -> List.length r.rhs = 1) (Cfg.rules_for g "EXPR") in
  let tensor_node t = Node.Node (unit_rule.id, [ Node.Leaf t ]) in
  let plus = Node.Leaf (Cfg.Tok_op Ast.Add) in
  let e =
    Node.Node
      ( bin_rule.id,
        [ tensor_node (Cfg.Tok_tensor ("b", [ "i" ])); plus; tensor_node (Cfg.Tok_tensor ("c", [ "i"; "j" ])) ] )
  in
  check_int "b(i) + c(i,j) depth 2" 2 (Node.depth g e);
  let nested = Node.Node (bin_rule.id, [ e; plus; tensor_node (Cfg.Tok_tensor ("b", [ "i" ])) ]) in
  check_int "nested depth 3" 3 (Node.depth g nested)

let test_node_metrics () =
  let g = gemv_grammar () in
  let x = expand_first g (Node.initial g) in
  let m = Node.metrics g x in
  check_bool "complete" true m.complete;
  check_int "tensors counted (lhs + rhs)" 2 m.n_tensors;
  check_int "unique symbols" 2 m.n_unique

let test_remove_tail () =
  let g = Gen_bottomup.generate ~dim_list:[ 0; 1; 1 ] ~templates:(templates_of [ "a = b(i) * c(i)" ]) in
  (* expand to: PROGRAM -> a = EXPR -> TENSOR2 TAIL1 -> b(i) TAIL1 — only
     the TAIL1 nonterminal remains open *)
  let x = Node.initial g in
  let _, x = List.hd (Node.expansions g x) in
  let _, x = List.hd (Node.expansions g x) in
  let _, x = List.hd (Node.expansions g x) in
  check_bool "tail open" true (not (Node.is_complete x));
  match Node.remove_tail g x with
  | Some complete -> (
      check_bool "closed" true (Node.is_complete complete);
      match Node.to_program g complete with
      | Some p -> check_string "one-tensor prefix" "a = b(i)" (Stagg_taco.Pretty.program_to_string p)
      | None -> Alcotest.fail "to_program")
  | None -> Alcotest.fail "remove_tail failed"

(* property: the incremental annotation carried through the A* queue agrees
   with a full rescan at every expansion, on random walks through top-down
   and bottom-up grammars (distinct_ops compared as sets — the incremental
   path may discover the same ops in a different first-appearance order) *)
let test_incremental_metrics_agree () =
  let grammars =
    [
      ("gemv td", gemv_grammar ());
      ( "multi td",
        Gen_topdown.generate ~dim_list:[ 1; 2; 1; 0 ]
          ~templates:
            (templates_of
               [ "a(i) = b(i,j) * c(j)"; "a(i) = b(i,j) * c(j) + d"; "a(i) = 2 * c(i)" ]) );
      ( "dot bu",
        Gen_bottomup.generate ~dim_list:[ 0; 1; 1 ]
          ~templates:(templates_of [ "a = b(i) * c(i)" ]) );
    ]
  in
  let seed = ref 20250806 in
  let next_int bound =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod bound
  in
  let sorted_ops m = List.sort compare m.Node.distinct_ops in
  List.iter
    (fun (label, g) ->
      let safe = Node.incremental_safe g in
      check_bool (label ^ ": grammar is incremental-safe") true safe;
      let fps = Node.fingerprints g in
      (* the top-down grammars carry static depth tables; the right-linear
         bottom-up one must be rejected (a TAIL's depth depends on ε) *)
      check_bool
        (label ^ ": depth-static iff top-down")
        (label <> "dot bu") (Node.depth_static fps);
      for _walk = 1 to 20 do
        let rec go ann x steps =
          if steps > 0 then
            match Node.expansions g x with
            | [] -> ()
            | exps ->
                List.iter
                  (fun ((r : Cfg.rule), x') ->
                    let inc = Node.expand_metrics fps ann r in
                    let scan = Node.annotate g fps x' in
                    let im = inc.Node.metrics and sm = scan.Node.metrics in
                    check_bool (label ^ ": leaves") true
                      (im.Node.tensor_leaves = sm.Node.tensor_leaves);
                    check_int (label ^ ": n_tensors") sm.Node.n_tensors im.Node.n_tensors;
                    check_int (label ^ ": n_unique") sm.Node.n_unique im.Node.n_unique;
                    check_bool (label ^ ": firsts_rev") true
                      (List.equal String.equal sm.Node.firsts_rev im.Node.firsts_rev);
                    check_bool (label ^ ": sorted_firsts") sm.Node.sorted_firsts
                      im.Node.sorted_firsts;
                    check_int (label ^ ": n_index_i") sm.Node.n_index_i im.Node.n_index_i;
                    check_bool (label ^ ": has_const_leaf") sm.Node.has_const_leaf
                      im.Node.has_const_leaf;
                    check_bool (label ^ ": distinct_ops") true (sorted_ops im = sorted_ops sm);
                    check_bool (label ^ ": complete") sm.Node.complete im.Node.complete;
                    check_int (label ^ ": n_open") scan.Node.n_open inc.Node.n_open;
                    check_bool (label ^ ": opens") true
                      (List.equal String.equal scan.Node.opens inc.Node.opens);
                    (* the rolling fingerprint must agree with a preorder
                       rescan of the child tree *)
                    check_bool (label ^ ": fp") true
                      (inc.Node.fp = scan.Node.fp && scan.Node.fp = Node.fingerprint fps x');
                    (* branching-ancestor paths agree with the full-scan
                       walk on every grammar; the carried depth must equal
                       a [Node.depth] rescan whenever the grammar's tables
                       are static (the only case searches read it) *)
                    check_bool (label ^ ": open_paths") true
                      (List.equal Int.equal scan.Node.open_paths inc.Node.open_paths);
                    if Node.depth_static fps then begin
                      check_int (label ^ ": depth") (Node.depth g x') inc.Node.depth;
                      check_int (label ^ ": depth scan") (Node.depth g x') scan.Node.depth
                    end)
                  exps;
                let r, x' = List.nth exps (next_int (List.length exps)) in
                go (Node.expand_metrics fps ann r) x' (steps - 1)
        in
        let x0 = Node.initial g in
        go (Node.annotate g fps x0) x0 12
      done)
    grammars

(* ---- penalties ---- *)

let ctx ?(enabled = Penalty.all_topdown) ?(dims = [ 1; 2; 1 ]) ?(ops = [ Ast.Mul ]) ?(const = false) () =
  { Penalty.dim_list = dims; ops_available = ops; grammar_has_const = const; enabled }

(* Build a consistent metrics record from a leaf list: the incremental
   fields (firsts_rev, sorted_firsts, n_index_i, n_unique) are derived
   the way a left-to-right scan would. *)
let mk_metrics ?(has_const = false) ?(ops = []) ~complete leaves =
  let firsts_rev =
    List.fold_left
      (fun acc (n, _) ->
        if String.equal n "Const" || List.mem n acc then acc else n :: acc)
      [] leaves
  in
  let rec sorted = function
    | a :: (b :: _ as rest) -> String.compare a b < 0 && sorted rest
    | _ -> true
  in
  let const_sym = List.exists (fun (n, _) -> String.equal n "Const") leaves in
  {
    Node.tensor_leaves = leaves;
    n_tensors = List.length leaves;
    n_unique = (List.length firsts_rev + if const_sym then 1 else 0);
    firsts_rev;
    sorted_firsts = sorted (List.rev firsts_rev);
    n_index_i = List.length (List.filter (fun (_, idxs) -> List.mem "i" idxs) leaves);
    has_const_leaf = has_const;
    distinct_ops = ops;
    complete;
  }

let metrics_of_template g src =
  (* drive the search tree by hand is tedious; reuse Node.metrics on a tree
     built from a template via a tiny search *)
  ignore g;
  let p = parse src in
  let leaves =
    (fst p.Ast.lhs, snd p.Ast.lhs)
    :: List.map (fun (n, a) -> (n, List.init a (fun _ -> "i"))) []
  in
  ignore leaves;
  p

let test_penalty_a2 () =
  ignore metrics_of_template;
  let g = gemv_grammar () in
  let x = expand_first g (Node.initial g) in
  let m = Node.metrics g x in
  (* complete template with 2 unique tensors but |L| = 3 → +100 *)
  let score =
    Penalty.score (ctx ~enabled:[ Penalty.A2 ] ()) m ~program:(Node.to_program g x)
  in
  check_bool "a2 fires" true (score = 100.)

let test_penalty_a3_sorted () =
  let m =
    mk_metrics ~ops:[ Ast.Mul ] ~complete:true
      [ ("a", [ "i" ]); ("b", [ "i" ]); ("c", [ "i" ]) ]
  in
  check_bool "sorted ok" true (Penalty.score (ctx ~enabled:[ Penalty.A3 ] ()) m ~program:None = 0.);
  let bad = mk_metrics ~ops:[ Ast.Mul ] ~complete:true [ ("a", []); ("c", []); ("b", []) ] in
  check_bool "unsorted infinite" true
    (Penalty.score (ctx ~enabled:[ Penalty.A3 ] ()) bad ~program:None = infinity);
  (* gaps are fine: a then c (Const took b's slot) *)
  let gap =
    mk_metrics ~ops:[ Ast.Mul ] ~complete:true [ ("a", []); ("Const", []); ("c", []) ]
  in
  check_bool "gap ok" true (Penalty.score (ctx ~enabled:[ Penalty.A3 ] ()) gap ~program:None = 0.)

let test_penalty_a4 () =
  let m =
    mk_metrics ~ops:[ Ast.Add ] ~complete:true [ ("a", []); ("b", [ "i" ]); ("b", [ "i" ]) ]
  in
  let p_add = parse "a = b(i) + b(i)" in
  let p_mul = parse "a = b(i) * b(i)" in
  check_bool "b+b infinite" true
    (Penalty.score (ctx ~enabled:[ Penalty.A4 ] ()) m ~program:(Some p_add) = infinity);
  check_bool "b*b allowed" true
    (Penalty.score (ctx ~enabled:[ Penalty.A4 ] ()) { m with Node.distinct_ops = [ Ast.Mul ] }
       ~program:(Some p_mul)
    = 0.)

let test_penalty_a5_b2 () =
  let m = mk_metrics ~complete:true [ ("a", []); ("b", [ "i" ]) ] in
  (* no ops used, two available → fewer than half *)
  check_bool "a5 fires" true
    (Penalty.score (ctx ~enabled:[ Penalty.A5 ] ~ops:[ Ast.Mul; Ast.Add ] ~dims:[ 0; 1 ] ()) m
       ~program:None
    = infinity);
  check_bool "a5 ok when no ops available" true
    (Penalty.score (ctx ~enabled:[ Penalty.A5 ] ~ops:[] ~dims:[ 0; 1 ] ()) m ~program:None = 0.);
  check_bool "b2 fires at predicted length" true
    (Penalty.score (ctx ~enabled:[ Penalty.B2 ] ~ops:[ Ast.Mul; Ast.Add ] ~dims:[ 0; 1 ] ()) m
       ~program:None
    = infinity)

let test_penalty_a1 () =
  let m =
    mk_metrics ~ops:[ Ast.Add ] ~complete:false
      [ ("a", [ "i" ]); ("b", [ "i" ]); ("c", [ "j" ]); ("d", [ "j" ]) ]
  in
  (* grammar has Const, length > 3, fewer than 2 tensors with index i... the
     leaves have 2 with i, but no Const leaf → still fires via branch 2 *)
  check_bool "a1 fires" true
    (Penalty.score (ctx ~enabled:[ Penalty.A1 ] ~const:true ()) m ~program:None = 10.);
  check_bool "a1 silent without const grammar" true
    (Penalty.score (ctx ~enabled:[ Penalty.A1 ] ~const:false ()) m ~program:None = 0.)

let test_penalty_disabled () =
  let m = mk_metrics ~complete:true [ ("a", []); ("c", []); ("b", []) ] in
  check_bool "everything off scores 0" true
    (Penalty.score (ctx ~enabled:[] ()) m ~program:None = 0.)

(* ---- the searches ---- *)

let budget = { Astar.max_attempts = 5_000; max_expansions = 100_000; timeout_s = 10. }

let search_for target pcfg penalty_ctx =
  Astar.search_topdown ~pcfg ~penalty_ctx ~budget
    ~validate:(fun p ->
      if String.equal (Stagg_taco.Pretty.program_to_string p) target then Some p else None)
    ()

let test_topdown_finds_target () =
  let g = gemv_grammar () in
  let pcfg = Pcfg.of_weights g (Derive.weights_of_templates g gemv_templates) in
  let pctx = ctx () in
  match search_for "a(i) = b(i, j) * c(j)" pcfg pctx with
  | Astar.Solved (_, stats) -> check_bool "few attempts" true (stats.attempts <= 5)
  | _ -> Alcotest.fail "target not found"

let test_topdown_probabilities_guide () =
  (* with probabilities learned from b(j,i)-shaped candidates, the
     transposed template must be enumerated first; two copies so the
     learned counts dominate the default weight-1 smoothing of unused
     tensor rules (§4.3) *)
  let templates = templates_of [ "a(i) = b(j,i) * c(j)"; "a(i) = b(j,i) * c(j)" ] in
  let g = Gen_topdown.generate ~dim_list:[ 1; 2; 1 ] ~templates in
  let pcfg = Pcfg.of_weights g (Derive.weights_of_templates g templates) in
  let first = ref None in
  (match
     Astar.search_topdown ~pcfg ~penalty_ctx:(ctx ()) ~budget
       ~validate:(fun p ->
         if !first = None then first := Some (Stagg_taco.Pretty.program_to_string p);
         None)
       ()
   with
  | Astar.Solved _ -> Alcotest.fail "validator never accepts"
  | _ -> ());
  check_string "guided order" "a(i) = b(j, i) * c(j)" (Option.get !first)

let test_topdown_depth_limit () =
  let g = gemv_grammar () in
  let pcfg = Pcfg.uniform g in
  (* with max_depth 1 only single-tensor programs appear *)
  let seen = ref [] in
  (match
     Astar.search_topdown ~pcfg ~penalty_ctx:(ctx ~enabled:[] ()) ~max_depth:1
       ~budget:{ budget with max_attempts = 100 }
       ~validate:(fun p ->
         seen := Stagg_taco.Pretty.program_to_string p :: !seen;
         None)
       ()
   with
  | _ -> ());
  check_bool "no binary programs at depth 1" true
    (List.for_all (fun s -> not (String.contains s '*')) !seen)

let test_bottomup_finds_target () =
  let templates = templates_of [ "a = b(i) * c(i)" ] in
  let dim_list = [ 0; 1; 1 ] in
  let g = Gen_bottomup.generate ~dim_list ~templates in
  let pcfg = Pcfg.of_weights g (Derive.weights_of_templates g templates) in
  match
    Astar.search_bottomup ~pcfg
      ~penalty_ctx:(ctx ~enabled:Penalty.all_bottomup ~dims:dim_list ())
      ~dim_list ~budget
      ~validate:(fun p ->
        if String.equal (Stagg_taco.Pretty.program_to_string p) "a = b(i) * c(i)" then Some p
        else None)
      ()
  with
  | Astar.Solved _ -> ()
  | _ -> Alcotest.fail "bottom-up did not find the dot product"

let test_bottomup_cannot_nest () =
  (* right-nested target is outside the right-linear space: the search must
     exhaust, not loop *)
  let templates = templates_of [ "a(i) = b(i) + c * d(i)" ] in
  let dim_list = [ 1; 1; 0; 1 ] in
  let g = Gen_bottomup.generate ~dim_list ~templates in
  let pcfg = Pcfg.uniform g in
  match
    Astar.search_bottomup ~pcfg ~penalty_ctx:(ctx ~enabled:[] ~dims:dim_list ()) ~dim_list ~budget
      ~validate:(fun p ->
        if
          String.equal (Stagg_taco.Pretty.program_to_string p) "a(i) = b(i) + c * d(i)"
        then Some p
        else None)
      ()
  with
  | Astar.Solved _ -> Alcotest.fail "right-linear grammar cannot produce a right-nested AST"
  | Astar.Exhausted _ -> ()
  | Astar.Budget_exceeded _ -> Alcotest.fail "space should be finite"

let test_timeout_poll () =
  (* the wall clock is polled every 64 pops; with unbounded count caps and a
     near-zero timeout the search must stop at the first poll past the
     deadline — i.e. on a pop-count multiple of 64 — and report [Timeout] *)
  let g = Taco_grammar.generate ~n_rhs_tensors:3 ~max_rank:2 ~n_indices:3 () in
  let pcfg = Pcfg.uniform g in
  let budget = { Astar.max_attempts = max_int; max_expansions = max_int; timeout_s = 0.05 } in
  match
    Astar.search_topdown ~pcfg ~penalty_ctx:(ctx ~enabled:[] ()) ~budget
      ~validate:(fun _ -> None) ()
  with
  | Astar.Budget_exceeded (Astar.Timeout, st) ->
      check_bool "made progress before the deadline" true (st.expansions > 0);
      check_int "stopped on a poll boundary" 0 (st.expansions mod 64)
  | _ -> Alcotest.fail "expected a Timeout stop"

let test_search_dedup () =
  (* associativity makes EXPR OP EXPR ambiguous: b+c+d has two parses but
     must be validated at most... well, each distinct printed form once *)
  let templates = templates_of [ "a = b + c + d" ] in
  let g = Gen_topdown.generate ~dim_list:[ 0; 0; 0; 0 ] ~templates in
  let pcfg = Pcfg.uniform g in
  let seen = Hashtbl.create 16 in
  let dups = ref 0 in
  (match
     Astar.search_topdown ~pcfg ~penalty_ctx:(ctx ~enabled:[] ~dims:[ 0; 0; 0; 0 ] ())
       ~budget:{ budget with max_attempts = 300 }
       ~validate:(fun p ->
         let key = Stagg_taco.Pretty.program_to_string p in
         if Hashtbl.mem seen key then incr dups;
         Hashtbl.replace seen key ();
         None)
       ()
   with
  | _ -> ());
  check_int "no duplicate validations" 0 !dups

(* [?domains] survives only for a call site that passes 1; any other
   count must be refused before a search starts *)
let test_domains_only_one () =
  let templates = templates_of [ "a = b(i) * c(i)" ] in
  let dim_list = [ 0; 1; 1 ] in
  let pcfg = Pcfg.uniform (Gen_topdown.generate ~dim_list ~templates) in
  let bu_pcfg = Pcfg.uniform (Gen_bottomup.generate ~dim_list ~templates) in
  let penalty_ctx = ctx ~enabled:[] ~dims:dim_list () in
  let validate _ = None in
  List.iter
    (fun domains ->
      let expect = Invalid_argument (Printf.sprintf "Astar: ~domains must be 1, got %d" domains) in
      Alcotest.check_raises "top-down" expect (fun () ->
          ignore (Astar.search_topdown ~pcfg ~penalty_ctx ~domains ~budget ~validate ()));
      Alcotest.check_raises "bottom-up" expect (fun () ->
          ignore
            (Astar.search_bottomup ~pcfg:bu_pcfg ~penalty_ctx ~dim_list ~domains ~budget ~validate
               ())))
    [ 0; 2; 4 ];
  match Astar.search_topdown ~pcfg ~penalty_ctx ~domains:1 ~budget ~validate () with
  | Astar.Exhausted _ | Astar.Budget_exceeded _ -> ()
  | Astar.Solved _ -> Alcotest.fail "nothing validates"

(* The searches extend child metrics incrementally and never rescan a
   tree, so they reject grammars outside that contract up front: a
   tensor terminal right of a nonterminal (not incremental-safe), and,
   top-down, an expression rule whose depth is not a per-rule constant
   (not depth-static). *)
let test_search_contract () =
  let tensor name idx = Cfg.T (Cfg.Tok_tensor (name, idx)) in
  let grammar program_rhs expr_rules =
    Pcfg.uniform
      (Cfg.make ~start:"PROGRAM"
         ~categories:[ ("PROGRAM", Cfg.Cat_program); ("EXPR", Cfg.Cat_expr); ("TAIL", Cfg.Cat_tail) ]
         ((("PROGRAM", program_rhs) :: expr_rules) @ [ ("TAIL", []) ]))
  in
  let assign = [ tensor "a" [ "i" ]; Cfg.T Cfg.Tok_assign ] in
  (* a(i) = EXPR * c(i): c(i) sits right of EXPR *)
  let unsafe =
    grammar
      (assign @ [ Cfg.NT "EXPR"; Cfg.T (Cfg.Tok_op Ast.Mul); tensor "c" [ "i" ] ])
      [ ("EXPR", [ tensor "b" [ "i" ] ]) ]
  in
  (* EXPR -> b(i) TAIL: a tail under an expression makes depth
     depend on where the tail closes *)
  let not_static =
    grammar (assign @ [ Cfg.NT "EXPR" ]) [ ("EXPR", [ tensor "b" [ "i" ]; Cfg.NT "TAIL" ]) ]
  in
  check_bool "unsafe grammar detected" false (Node.incremental_safe (Pcfg.cfg unsafe));
  check_bool "non-static grammar is incremental-safe" true
    (Node.incremental_safe (Pcfg.cfg not_static));
  check_bool "non-static grammar detected" false
    (Node.depth_static (Node.fingerprints (Pcfg.cfg not_static)));
  let penalty_ctx = ctx ~enabled:[] ~dims:[ 1; 1 ] () in
  let validate _ = None in
  let td pcfg () = ignore (Astar.search_topdown ~pcfg ~penalty_ctx ~budget ~validate ()) in
  let bu pcfg () =
    ignore (Astar.search_bottomup ~pcfg ~penalty_ctx ~dim_list:[ 1; 1 ] ~budget ~validate ())
  in
  let not_safe =
    Invalid_argument "Astar: grammar is not incremental-safe (a tensor right of a nonterminal)"
  in
  Alcotest.check_raises "top-down rejects unsafe" not_safe (td unsafe);
  Alcotest.check_raises "bottom-up rejects unsafe" not_safe (bu unsafe);
  Alcotest.check_raises "top-down rejects non-static"
    (Invalid_argument "Astar: grammar is not depth-static") (td not_static);
  (* bottom-up never prunes on depth, so it runs the non-static grammar *)
  match
    Astar.search_bottomup ~pcfg:not_static ~penalty_ctx ~dim_list:[ 1; 1 ] ~budget ~validate ()
  with
  | Astar.Exhausted _ -> ()
  | Astar.Solved _ | Astar.Budget_exceeded _ -> Alcotest.fail "expected an exhausted search"

let () =
  Alcotest.run "stagg_search"
    [
      ( "node",
        [
          Alcotest.test_case "expansion" `Quick test_node_expansion;
          Alcotest.test_case "to_program" `Quick test_node_to_program;
          Alcotest.test_case "depth (§5.1 examples)" `Quick test_node_depth_paper_examples;
          Alcotest.test_case "metrics" `Quick test_node_metrics;
          Alcotest.test_case "remove_tail" `Quick test_remove_tail;
          Alcotest.test_case "incremental metrics agree with rescan" `Quick
            test_incremental_metrics_agree;
        ] );
      ( "penalty",
        [
          Alcotest.test_case "a1" `Quick test_penalty_a1;
          Alcotest.test_case "a2" `Quick test_penalty_a2;
          Alcotest.test_case "a3 sortedness" `Quick test_penalty_a3_sorted;
          Alcotest.test_case "a4 same-operand" `Quick test_penalty_a4;
          Alcotest.test_case "a5 and b2" `Quick test_penalty_a5_b2;
          Alcotest.test_case "disabled criteria" `Quick test_penalty_disabled;
        ] );
      ( "astar",
        [
          Alcotest.test_case "top-down finds target" `Quick test_topdown_finds_target;
          Alcotest.test_case "probabilities guide order" `Quick test_topdown_probabilities_guide;
          Alcotest.test_case "depth limit" `Quick test_topdown_depth_limit;
          Alcotest.test_case "bottom-up finds target" `Quick test_bottomup_finds_target;
          Alcotest.test_case "bottom-up cannot right-nest" `Quick test_bottomup_cannot_nest;
          Alcotest.test_case "duplicate templates validated once" `Quick test_search_dedup;
          Alcotest.test_case "timeout fires on a 64-pop poll boundary" `Quick test_timeout_poll;
          Alcotest.test_case "domains other than 1 rejected" `Quick test_domains_only_one;
          Alcotest.test_case "grammars outside the contract rejected" `Quick test_search_contract;
        ] );
    ]
