open Stagg_taco

let generate ~dim_list ~templates =
  (match dim_list with
  | [] -> invalid_arg "Gen_topdown.generate: empty dimension list"
  | lhs :: _ when lhs < 0 || lhs > 4 -> invalid_arg "Gen_topdown.generate: bad LHS dimension"
  | _ -> ());
  let n_indices = Genlib.unique_index_count templates in
  let allow_repeat = Genlib.templates_have_repeated_index templates in
  let lhs_dim = List.hd dim_list in
  let rhs_dims = List.tl dim_list in
  let tensor1 =
    Cfg.Tok_tensor (Genlib.tensor_name 0, Genlib.canonical_indices lhs_dim)
  in
  let tensor_rules =
    (* one production per arrangement per RHS position; a single "Const"
       production covers every 0-dimensional position *)
    let with_const =
      List.exists (fun d -> d = 0) rhs_dims && Genlib.templates_have_const templates
    in
    let per_position =
      List.concat
        (List.mapi
           (fun k dim ->
             let name = Genlib.tensor_name (k + 1) in
             (* a 0-dim position also yields the bare scalar tensor *)
             let n_indices = if dim = 0 then 1 else n_indices in
             Genlib.index_tuples ~dim ~n_indices ~allow_repeat
             |> List.map (fun idxs -> ("TENSOR", [ `T (Cfg.Tok_tensor (name, idxs)) ])))
           rhs_dims)
    in
    per_position @ if with_const then [ ("TENSOR", [ `T Cfg.Tok_const ]) ] else []
  in
  let prods =
    [
      ("PROGRAM", [ `T tensor1; `T Cfg.Tok_assign; `N "EXPR" ]);
      ("EXPR", [ `N "TENSOR" ]);
      ("EXPR", [ `N "EXPR"; `N "OP"; `N "EXPR" ]);
      ("OP", [ `T (Cfg.Tok_op Ast.Add) ]);
      ("OP", [ `T (Cfg.Tok_op Ast.Sub) ]);
      ("OP", [ `T (Cfg.Tok_op Ast.Mul) ]);
      ("OP", [ `T (Cfg.Tok_op Ast.Div) ]);
    ]
    @ tensor_rules
  in
  Cfg.make ~start:"PROGRAM"
    ~categories:
      [
        ("PROGRAM", Cfg.Cat_program);
        ("EXPR", Cfg.Cat_expr);
        ("OP", Cfg.Cat_op);
        ("TENSOR", Cfg.Cat_tensor);
      ]
    prods
