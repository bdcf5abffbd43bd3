open Stagg_taco

let generate ?(n_rhs_tensors = 4) ?(max_rank = 3) ?(n_indices = 4) () =
  let ranks = List.init (max_rank + 1) Fun.id in
  let tensor_prods_for name =
    List.concat_map
      (fun rank ->
        Genlib.index_tuples ~dim:rank ~n_indices ~allow_repeat:true
        |> List.map (fun idxs -> ("TENSOR", [ `T (Cfg.Tok_tensor (name, idxs)) ])))
      ranks
  in
  let lhs_prods =
    (* the LHS is always the first symbol "a"; Fig. 5 allows any rank *)
    List.concat_map
      (fun rank ->
        Genlib.index_tuples ~dim:rank ~n_indices ~allow_repeat:false
        |> List.map (fun idxs -> ("TENSOR1", [ `T (Cfg.Tok_tensor ("a", idxs)) ])))
      ranks
  in
  let rhs_names = List.init n_rhs_tensors (fun k -> Genlib.tensor_name (k + 1)) in
  let binaries =
    List.map
      (fun op -> ("EXPR", [ `N "EXPR"; `T (Cfg.Tok_op op); `N "EXPR" ]))
      Ast.all_ops
  in
  let prods =
    [ ("PROGRAM", [ `N "TENSOR1"; `T Cfg.Tok_assign; `N "EXPR" ]) ]
    @ lhs_prods
    @ [
        ("EXPR", [ `N "TENSOR" ]);
        ("EXPR", [ `T Cfg.Tok_const ]);
        (* parenthesized expression: concrete syntax only, never matched
           by [Derive] *)
        ("EXPR", [ `T Cfg.Tok_lparen; `N "EXPR"; `T Cfg.Tok_rparen ]);
        ("EXPR", [ `T Cfg.Tok_neg; `N "EXPR" ]);
      ]
    @ binaries
    @ List.concat_map tensor_prods_for rhs_names
  in
  Cfg.make ~start:"PROGRAM"
    ~categories:
      [
        ("PROGRAM", Cfg.Cat_program);
        ("TENSOR1", Cfg.Cat_tensor);
        ("EXPR", Cfg.Cat_expr);
        ("TENSOR", Cfg.Cat_tensor);
      ]
    prods
