open Stagg_taco

let generate ~dim_list ~templates =
  let n = List.length dim_list in
  if n < 2 then invalid_arg "Gen_bottomup.generate: dimension list needs at least two entries";
  let n_indices = Genlib.unique_index_count templates in
  let allow_repeat = Genlib.templates_have_repeated_index templates in
  let dims = Array.of_list dim_list in
  let lhs_dim = dims.(0) in
  let tensor1 = Cfg.Tok_tensor (Genlib.tensor_name 0, Genlib.canonical_indices lhs_dim) in
  let tensor_nt pos = Printf.sprintf "TENSOR%d" (pos + 1) in
  let tail_nt k = Printf.sprintf "TAIL%d" k in
  let tensor_rules pos =
    let dim = dims.(pos) in
    let name = Genlib.tensor_name pos in
    let nt = tensor_nt pos in
    let n_indices = if dim = 0 then 1 else n_indices in
    let accesses =
      Genlib.index_tuples ~dim ~n_indices ~allow_repeat
      |> List.map (fun idxs -> (nt, [ `T (Cfg.Tok_tensor (name, idxs)) ]))
    in
    if dim = 0 && Genlib.templates_have_const templates then
      accesses @ [ (nt, [ `T Cfg.Tok_const ]) ]
    else accesses
  in
  let tail_rules k =
    (* TAILk continues with the (k+2)-th tensor when one is predicted *)
    let nt = tail_nt k in
    if k + 1 < n then
      [ (nt, []); (nt, [ `N "OP"; `N (tensor_nt (k + 1)); `N (tail_nt (k + 1)) ]) ]
    else [ (nt, []) ]
  in
  let prods =
    [
      ("PROGRAM", [ `T tensor1; `T Cfg.Tok_assign; `N "EXPR" ]);
      ("EXPR", [ `N (tensor_nt 1); `N (tail_nt 1) ]);
      ("OP", [ `T (Cfg.Tok_op Ast.Add) ]);
      ("OP", [ `T (Cfg.Tok_op Ast.Sub) ]);
      ("OP", [ `T (Cfg.Tok_op Ast.Mul) ]);
      ("OP", [ `T (Cfg.Tok_op Ast.Div) ]);
    ]
    @ List.concat (List.init (n - 1) (fun i -> tensor_rules (i + 1)))
    @ List.concat (List.init (n - 1) (fun i -> tail_rules (i + 1)))
  in
  let categories =
    [ ("PROGRAM", Cfg.Cat_program); ("EXPR", Cfg.Cat_expr); ("OP", Cfg.Cat_op) ]
    @ List.init (n - 1) (fun i -> (tensor_nt (i + 1), Cfg.Cat_tensor))
    @ List.init (n - 1) (fun i -> (tail_nt (i + 1), Cfg.Cat_tail))
  in
  Cfg.make ~start:"PROGRAM" ~categories prods

let generate_full ?(n_rhs_tensors = 4) ?(max_rank = 3) ?(n_indices = 4) () =
  (* right-linear shape without dimension-list refinement: the bottom-up
     ablation grammars of Table 3 (LLMGrammar / FullGrammar). One shared
     TENSOR nonterminal, unbounded chain. *)
  let ranks = List.init (max_rank + 1) Fun.id in
  let tensor_prods nt names allow_repeat =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun rank ->
            Genlib.index_tuples ~dim:rank ~n_indices ~allow_repeat
            |> List.map (fun idxs -> (nt, [ `T (Cfg.Tok_tensor (name, idxs)) ])))
          ranks)
      names
  in
  let rhs_names = List.init n_rhs_tensors (fun k -> Genlib.tensor_name (k + 1)) in
  let prods =
    [
      ("PROGRAM", [ `N "TENSOR1"; `T Cfg.Tok_assign; `N "EXPR" ]);
      ("EXPR", [ `N "TENSOR"; `N "TAIL" ]);
      ("TAIL", []);
      ("TAIL", [ `N "OP"; `N "TENSOR"; `N "TAIL" ]);
      ("OP", [ `T (Cfg.Tok_op Ast.Add) ]);
      ("OP", [ `T (Cfg.Tok_op Ast.Sub) ]);
      ("OP", [ `T (Cfg.Tok_op Ast.Mul) ]);
      ("OP", [ `T (Cfg.Tok_op Ast.Div) ]);
    ]
    @ tensor_prods "TENSOR1" [ Genlib.tensor_name 0 ] false
    @ tensor_prods "TENSOR" rhs_names true
    @ [ ("TENSOR", [ `T Cfg.Tok_const ]) ]
  in
  Cfg.make ~start:"PROGRAM"
    ~categories:
      [
        ("PROGRAM", Cfg.Cat_program);
        ("EXPR", Cfg.Cat_expr);
        ("OP", Cfg.Cat_op);
        ("TENSOR1", Cfg.Cat_tensor);
        ("TENSOR", Cfg.Cat_tensor);
        ("TAIL", Cfg.Cat_tail);
      ]
    prods
