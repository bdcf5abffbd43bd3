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
  let leftmost x = Cfg.nt_name g (Option.get (Node.leftmost_open x)) in
  check_string "leftmost is start" "PROGRAM" (leftmost x0);
  let exps = Node.expansions g x0 in
  check_int "one PROGRAM rule" 1 (List.length exps);
  let _, x1 = List.hd exps in
  check_string "then EXPR" "EXPR" (leftmost x1)

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
  let expr_rules = Cfg.rules_for g (Cfg.nt_id g "EXPR") in
  let bin_rule = List.find (fun (r : Cfg.rule) -> List.length r.rhs = 3) expr_rules in
  let unit_rule = List.find (fun (r : Cfg.rule) -> List.length r.rhs = 1) expr_rules in
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
  let m = Node.metrics (Node.fingerprints g) x in
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

(* the names of a tree's open leaves, left to right *)
let open_names g x =
  let rec go acc = function
    | Node.Open nt -> Cfg.nt_name g nt :: acc
    | Node.Leaf _ -> acc
    | Node.Node (_, ch) -> List.fold_left go acc ch
  in
  List.rev (go [] x)

(* property: the incremental annotation carried through the A* queue agrees
   with a full rescan at every expansion, on random walks through top-down
   and bottom-up grammars *)
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
                    check_int (label ^ ": n_tensors") sm.Node.n_tensors im.Node.n_tensors;
                    check_int (label ^ ": n_unique") sm.Node.n_unique im.Node.n_unique;
                    check_bool (label ^ ": firsts_rev") true
                      (List.equal Int.equal sm.Node.firsts_rev im.Node.firsts_rev);
                    check_bool (label ^ ": sorted_firsts") sm.Node.sorted_firsts
                      im.Node.sorted_firsts;
                    check_int (label ^ ": n_index_i") sm.Node.n_index_i im.Node.n_index_i;
                    check_bool (label ^ ": has_const_leaf") sm.Node.has_const_leaf
                      im.Node.has_const_leaf;
                    check_int (label ^ ": ops") sm.Node.ops im.Node.ops;
                    check_bool (label ^ ": complete") sm.Node.complete im.Node.complete;
                    check_int (label ^ ": n_open") scan.Node.n_open inc.Node.n_open;
                    check_bool (label ^ ": opens") true
                      (List.equal Int.equal scan.Node.opens inc.Node.opens);
                    (* and as names: the ids map back to the tree's own
                       open leaves, left to right *)
                    check_bool (label ^ ": open names") true
                      (List.equal String.equal (open_names g x')
                         (List.map (Cfg.nt_name g) inc.Node.opens));
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

(* Interning: the grammar numbers its nonterminals in category order,
   each id maps back to its name and owns exactly the rules with that
   lhs, and tensor symbol ids order like their names, on a top-down, a
   bottom-up and the full TACO grammar. *)
let test_interned_symbols () =
  List.iter
    (fun (label, g, nts) ->
      let fps = Node.fingerprints g in
      check_int (label ^ ": one id per nonterminal") (List.length nts) (Cfg.n_nonterminals g);
      List.iteri
        (fun id nt ->
          check_string (label ^ ": name of id") nt (Cfg.nt_name g id);
          check_int (label ^ ": id of " ^ nt) id (Cfg.nt_id g nt);
          let owned = Array.to_list (Cfg.rules g) |> List.filter (fun (r : Cfg.rule) -> r.lhs = id) in
          check_bool (label ^ ": rules of " ^ nt) true (Cfg.rules_for g id = owned))
        nts;
      let syms =
        Array.fold_left
          (fun acc (r : Cfg.rule) ->
            List.fold_left
              (fun acc s -> match s with Cfg.T (Cfg.Tok_tensor (n, _)) -> n :: acc | _ -> acc)
              acc r.rhs)
          [ "Const" ] (Cfg.rules g)
      in
      List.iter
        (fun a ->
          check_string (label ^ ": symbol name of id") a (Node.sym_name fps (Node.sym_id fps a));
          List.iter
            (fun b ->
              check_int
                (Printf.sprintf "%s: ids of %s, %s order like the names" label a b)
                (compare (String.compare a b) 0)
                (compare (Node.sym_id fps a) (Node.sym_id fps b)))
            syms)
        syms)
    [
      ("td", gemv_grammar (), [ "PROGRAM"; "EXPR"; "OP"; "TENSOR" ]);
      ( "bu",
        Gen_bottomup.generate ~dim_list:[ 1; 2; 1 ] ~templates:gemv_templates,
        [ "PROGRAM"; "EXPR"; "OP"; "TENSOR2"; "TENSOR3"; "TAIL1"; "TAIL2" ] );
      ( "full",
        Taco_grammar.generate ~n_rhs_tensors:3 ~max_rank:2 ~n_indices:3 (),
        [ "PROGRAM"; "TENSOR1"; "EXPR"; "TENSOR" ] );
    ]

(* a3/b1 on tensor names whose byte order is not their first-use order:
   uppercase sorts before lowercase, "a10" before "a9", "_" after
   uppercase, and a tensor named "Const" must merge with the Const
   terminal. Every tree of up to four right-hand-side tensors is scanned;
   the id-based metrics must agree with a scan over the names. *)
let test_a3_byte_order () =
  let t n idxs = `T (Cfg.Tok_tensor (n, idxs)) in
  let g =
    Cfg.make ~start:"P"
      ~categories:[ ("P", Cfg.Cat_program); ("E", Cfg.Cat_expr); ("T", Cfg.Cat_tensor) ]
      [
        ("P", [ t "a" [ "i" ]; `T Cfg.Tok_assign; `N "E" ]);
        ("E", [ `N "T" ]);
        ("E", [ `N "E"; `T (Cfg.Tok_op Ast.Add); `N "T" ]);
        ("T", [ t "b" [] ]);
        ("T", [ t "Z" [] ]);
        ("T", [ t "_x" [ "i" ] ]);
        ("T", [ t "a10" [] ]);
        ("T", [ t "a9" [ "j" ] ]);
        ("T", [ t "Const" [] ]);
        ("T", [ `T Cfg.Tok_const ]);
      ]
  in
  let fps = Node.fingerprints g in
  (* the reference: the first-use scan the metrics replaced, on names *)
  let reference x =
    let rec leaves acc = function
      | Node.Leaf (Cfg.Tok_tensor (n, _)) -> n :: acc
      | Node.Leaf Cfg.Tok_const -> "Const" :: acc
      | Node.Leaf _ | Node.Open _ -> acc
      | Node.Node (_, ch) -> List.fold_left leaves acc ch
    in
    let names = List.rev (leaves [] x) in
    let firsts =
      List.fold_left
        (fun acc n -> if String.equal n "Const" || List.mem n acc then acc else acc @ [ n ])
        [] names
    in
    let rec sorted = function
      | a :: (b :: _ as rest) -> String.compare a b < 0 && sorted rest
      | _ -> true
    in
    (firsts, List.length firsts + Bool.to_int (List.mem "Const" names), sorted firsts)
  in
  let trees = ref 0 and unsorted = ref 0 in
  let rec go ann x steps =
    let m = ann.Node.metrics in
    let firsts, n_unique, sorted = reference x in
    incr trees;
    if not sorted then incr unsorted;
    check_bool "first uses" true
      (List.equal String.equal firsts (List.rev_map (Node.sym_name fps) m.Node.firsts_rev));
    check_int "n_unique" n_unique m.Node.n_unique;
    check_bool "sorted_firsts" sorted m.Node.sorted_firsts;
    check_bool "full scan agrees" true (Node.metrics fps x = m);
    if steps > 0 then
      List.iter
        (fun ((r : Cfg.rule), x') -> go (Node.expand_metrics fps ann r) x' (steps - 1))
        (Node.expansions g x)
  in
  let x0 = Node.initial g in
  go (Node.annotate g fps x0) x0 9;
  check_bool "walked every tree" true (!trees > 2_000);
  check_bool "both verdicts reached" true (!unsorted > 0 && !unsorted < !trees);
  (* byte order, not first use: Z before b, a10 before a9 *)
  let complete names =
    (* a flat leaf sequence is all the full scan reads *)
    let rhs = List.map (fun n -> Node.Leaf (Cfg.Tok_tensor (n, []))) names in
    Node.metrics fps
      (Node.Node (0, [ Node.Leaf (Cfg.Tok_tensor ("a", [ "i" ])); Node.Leaf Cfg.Tok_assign; Node.Node (1, rhs) ]))
  in
  check_bool "a, Z: unsorted" false (complete [ "Z" ]).Node.sorted_firsts;
  check_bool "a, a10, a9: sorted" true (complete [ "a10"; "a9" ]).Node.sorted_firsts;
  check_bool "a, a9, a10: unsorted" false (complete [ "a9"; "a10" ]).Node.sorted_firsts;
  check_bool "Const skipped: a, Const, b" true (complete [ "Const"; "b" ]).Node.sorted_firsts;
  check_int "Const counts once" 3 (complete [ "Const"; "b"; "Const" ]).Node.n_unique

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
  (* symbol ids in name order, as [Node.fingerprints] numbers them *)
  let names = List.sort_uniq String.compare (List.map fst leaves) in
  let sym_id n =
    let rec go i = function [] -> assert false | m :: rest -> if m = n then i else go (i + 1) rest in
    go 0 names
  in
  let const_sym = List.exists (fun (n, _) -> String.equal n "Const") leaves in
  {
    Node.n_tensors = List.length leaves;
    n_unique = (List.length firsts_rev + if const_sym then 1 else 0);
    firsts_rev = List.map sym_id firsts_rev;
    sorted_firsts = sorted (List.rev firsts_rev);
    n_index_i = List.length (List.filter (fun (_, idxs) -> List.mem "i" idxs) leaves);
    has_const_leaf = has_const;
    ops = List.fold_left (fun acc op -> acc lor Node.op_bit op) 0 ops;
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
  let m = Node.metrics (Node.fingerprints g) x in
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
    (Penalty.score (ctx ~enabled:[ Penalty.A4 ] ()) { m with Node.ops = Node.op_bit Ast.Mul }
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
  let tensor name idx = `T (Cfg.Tok_tensor (name, idx)) in
  let grammar program_rhs expr_rules =
    Pcfg.uniform
      (Cfg.make ~start:"PROGRAM"
         ~categories:[ ("PROGRAM", Cfg.Cat_program); ("EXPR", Cfg.Cat_expr); ("TAIL", Cfg.Cat_tail) ]
         ((("PROGRAM", program_rhs) :: expr_rules) @ [ ("TAIL", []) ]))
  in
  let assign = [ tensor "a" [ "i" ]; `T Cfg.Tok_assign ] in
  (* a(i) = EXPR * c(i): c(i) sits right of EXPR *)
  let unsafe =
    grammar
      (assign @ [ `N "EXPR"; `T (Cfg.Tok_op Ast.Mul); tensor "c" [ "i" ] ])
      [ ("EXPR", [ tensor "b" [ "i" ] ]) ]
  in
  (* EXPR -> b(i) TAIL: a tail under an expression makes depth
     depend on where the tail closes *)
  let not_static =
    grammar (assign @ [ `N "EXPR" ]) [ ("EXPR", [ tensor "b" [ "i" ]; `N "TAIL" ]) ]
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

(* Per-kernel (attempts, expansions, suppressed, peak_frontier) of the
   FullGrammar ablations over the artificial suite, where duplicate
   templates abound: the ghost rule (which complete duplicates skip the
   frontier, and when) moves expansions, suppressed and peak_frontier
   per kernel even where the suite totals `@smoke` pins could balance
   out. Recorded when a ghost's f came from a per-fingerprint penalty
   memo; a ghost now takes f from its own metrics. *)
let full_grammar_pins =
  [
    ( Stagg.Method_.td_full_grammar,
      [
        ("art_copy", (6, 8, 4, 14));
        ("art_scal_const", (14, 84, 8, 301));
        ("art_vec_add", (137, 258, 133, 1120));
        ("art_dot", (76, 234, 64, 1014));
        ("art_outer", (7968, 16100, 7860, 74881));
        ("art_gemv", (2554, 5870, 2436, 24508));
        ("art_gemm", (11452, 29981, 11213, 147776));
        ("art_ttv", (40960, 212078, 40960, 1384945));
        ("art_ttm", (0, 142825, 0, 1081790));
        ("art_mttkrp", (0, 197565, 0, 1270690));
      ] );
    ( Stagg.Method_.bu_full_grammar,
      [
        ("art_copy", (5, 11, 0, 7));
        ("art_scal_const", (57, 102, 3, 85));
        ("art_vec_add", (193, 287, 10, 406));
        ("art_dot", (34, 104, 6, 220));
        ("art_outer", (9036, 10006, 127, 19274));
        ("art_gemv", (867, 1357, 47, 4593));
        ("art_gemm", (9687, 11449, 150, 29411));
        ("art_ttv", (60000, 68290, 816, 419904));
        ("art_ttm", (0, 94750, 40507, 1500660));
        ("art_mttkrp", (0, 29710, 7580, 1500074));
      ] );
  ]

let test_full_grammar_pins () =
  List.iter
    (fun ((m : Stagg.Method_.t), pins) ->
      let results = Stagg.Pipeline.run_suite ~jobs:1 m Stagg_benchsuite.Suite.artificial in
      check_int (m.label ^ " kernels") (List.length pins) (List.length results);
      List.iter2
        (fun (bench, (attempts, expansions, suppressed, peak)) (r : Stagg.Result_.t) ->
          let lbl = m.label ^ " " ^ bench in
          check_string (lbl ^ " kernel") bench r.bench;
          check_int (lbl ^ " attempts") attempts r.attempts;
          check_int (lbl ^ " expansions") expansions r.expansions;
          check_int (lbl ^ " suppressed") suppressed r.suppressed;
          check_int (lbl ^ " peak_frontier") peak r.peak_frontier)
        pins results)
    full_grammar_pins

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
          Alcotest.test_case "interned symbols map back to names" `Quick test_interned_symbols;
          Alcotest.test_case "a3 on byte order, not first use" `Quick test_a3_byte_order;
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
          Alcotest.test_case "FullGrammar per-kernel ghost-rule pins" `Slow test_full_grammar_pins;
        ] );
    ]
