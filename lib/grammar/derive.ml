open Stagg_taco

(* Values being matched against grammar fragments. *)
type value =
  | Vexpr of Ast.expr
  | Vop of Ast.op
  | Vchain of (Ast.op * Ast.expr) list  (** right-linear continuation *)

let is_const_symbol_name = String.equal "Const"

let is_const_expr = function
  | Ast.Const _ -> true
  | Ast.Access ("Const", []) -> true
  | _ -> false

(* Flatten a left-leaning operator chain: ((b ⊕ c) ⊗ d) ↦ (b, [⊕ c; ⊗ d]).
   Returns None when the expression is not a pure chain (parenthesized
   right subtrees, unary minus). *)
let rec flatten_chain (e : Ast.expr) : (Ast.expr * (Ast.op * Ast.expr) list) option =
  match e with
  | Ast.Access _ | Ast.Const _ -> Some (e, [])
  | Ast.Neg _ -> None
  | Ast.Bin (op, l, r) -> (
      match r with
      | Ast.Access _ | Ast.Const _ -> (
          match flatten_chain l with
          | Some (hd, ops) -> Some (hd, ops @ [ (op, r) ])
          | None -> None)
      | _ -> None)

let count_rules_mode ~relax (g : Cfg.t) (p : Ast.program) : int list option =
  let ( let* ) = Option.bind in
  let rec derive_nt nt v : int list option =
    List.find_map (fun r -> match_rule r v) (Cfg.rules_for g nt)
  and match_rule (r : Cfg.rule) (v : value) : int list option =
    match (r.rhs, v) with
    (* terminal tensor / const productions. In relaxed mode the symbol name
       is ignored and only the index tuple must agree: templatization
       letters tensors by order of appearance, while generated grammars
       letter them by dimension-list position — a template whose Const (or
       arity noise) shifts the letters is still structurally informative *)
    | [ Cfg.T (Cfg.Tok_tensor (n, idxs)) ], Vexpr (Ast.Access (n', idxs')) ->
        if
          (relax || String.equal n n')
          && (not (is_const_symbol_name n'))
          && List.equal String.equal idxs idxs'
        then Some [ r.id ]
        else None
    | [ Cfg.T Cfg.Tok_const ], Vexpr e -> if is_const_expr e then Some [ r.id ] else None
    | [ Cfg.T (Cfg.Tok_op o) ], Vop o' -> if Ast.equal_op o o' then Some [ r.id ] else None
    (* unit production *)
    | [ Cfg.NT x ], (Vexpr _ as v) ->
        let* rest = derive_nt x v in
        Some (r.id :: rest)
    (* binary with OP nonterminal: EXPR ::= EXPR OP EXPR *)
    | [ Cfg.NT a; Cfg.NT op_nt; Cfg.NT b ], Vexpr (Ast.Bin (o, l, rr))
      when Cfg.category g op_nt = Cfg.Cat_op ->
        let* dl = derive_nt a (Vexpr l) in
        let* dop = derive_nt op_nt (Vop o) in
        let* dr = derive_nt b (Vexpr rr) in
        Some ((r.id :: dl) @ dop @ dr)
    (* binary with inline operator terminal: EXPR ::= EXPR "+" EXPR *)
    | [ Cfg.NT a; Cfg.T (Cfg.Tok_op o'); Cfg.NT b ], Vexpr (Ast.Bin (o, l, rr)) ->
        if Ast.equal_op o o' then
          let* dl = derive_nt a (Vexpr l) in
          let* dr = derive_nt b (Vexpr rr) in
          Some ((r.id :: dl) @ dr)
        else None
    (* unary minus *)
    | [ Cfg.T Cfg.Tok_neg; Cfg.NT a ], Vexpr (Ast.Neg inner) ->
        let* d = derive_nt a (Vexpr inner) in
        Some (r.id :: d)
    (* right-linear head: EXPR ::= TENSORk TAILk *)
    | [ Cfg.NT t_nt; Cfg.NT tail_nt ], Vexpr e when Cfg.category g tail_nt = Cfg.Cat_tail ->
        let* hd, rest = flatten_chain e in
        let* dh = derive_nt t_nt (Vexpr hd) in
        let* dt = derive_nt tail_nt (Vchain rest) in
        Some ((r.id :: dh) @ dt)
    (* tail productions *)
    | [], Vchain [] -> Some [ r.id ]
    | [ Cfg.NT op_nt; Cfg.NT t_nt ], Vchain [ (o, e) ] ->
        let* dop = derive_nt op_nt (Vop o) in
        let* dt = derive_nt t_nt (Vexpr e) in
        Some ((r.id :: dop) @ dt)
    | [ Cfg.NT op_nt; Cfg.NT t_nt; Cfg.NT tail_nt ], Vchain ((o, e) :: rest)
      when Cfg.category g tail_nt = Cfg.Cat_tail ->
        let* dop = derive_nt op_nt (Vop o) in
        let* dt = derive_nt t_nt (Vexpr e) in
        let* dtail = derive_nt tail_nt (Vchain rest) in
        Some ((r.id :: dop) @ dt @ dtail)
    | _ -> None
  in
  (* the program rule: [TENSOR1-ish] "=" EXPR, where the LHS slot is either
     an inline terminal or a tensor nonterminal *)
  let lhs_name, lhs_idxs = p.lhs in
  let lhs_as_expr = Vexpr (Ast.Access (lhs_name, lhs_idxs)) in
  List.find_map
    (fun (r : Cfg.rule) ->
      match r.rhs with
      | [ Cfg.T (Cfg.Tok_tensor (n, idxs)); Cfg.T Cfg.Tok_assign; Cfg.NT expr_nt ] ->
          (* relaxed mode tolerates a wrong-arity LHS: the candidate's RHS
             structure is still informative (the paper's static analysis
             overrides the LHS anyway, §4.2.3) *)
          if
            String.equal n lhs_name
            && (relax || List.equal String.equal idxs lhs_idxs)
          then
            let* d = derive_nt expr_nt (Vexpr p.rhs) in
            Some (r.id :: d)
          else None
      | [ Cfg.NT t1; Cfg.T Cfg.Tok_assign; Cfg.NT expr_nt ] ->
          let* d1 = derive_nt t1 lhs_as_expr in
          let* d = derive_nt expr_nt (Vexpr p.rhs) in
          Some ((r.id :: d1) @ d)
      | _ -> None)
    (Cfg.rules_for g (Cfg.start g))

let count_rules g p =
  (* prefer an exact-name parse; fall back to name-insensitive structure *)
  match count_rules_mode ~relax:false g p with
  | Some ids -> Some ids
  | None -> count_rules_mode ~relax:true g p

let weights_of_templates (g : Cfg.t) (templates : Ast.program list) : float array =
  let w = Array.make (Cfg.size g) 0. in
  List.iter
    (fun t ->
      match count_rules g t with
      | None -> ()
      | Some ids -> List.iter (fun id -> w.(id) <- w.(id) +. 1.) ids)
    templates;
  (* default weight 1 for unused tensor-producing rules (§4.3) *)
  Array.iter
    (fun (r : Cfg.rule) ->
      if w.(r.id) = 0. then
        let produces_tensor =
          List.exists
            (function Cfg.T (Cfg.Tok_tensor _) | Cfg.T Cfg.Tok_const -> true | _ -> false)
            r.rhs
        in
        if produces_tensor then w.(r.id) <- 1.)
    (Cfg.rules g);
  w
