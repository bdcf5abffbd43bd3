open Ast

exception Parse_error of string

let max_depth = 256

(* [depth] counts the nesting levels open at the head of [toks] *)
type state = { mutable toks : Lexer.token list; mutable depth : int }

let peek st = match st.toks with [] -> Lexer.EOF | t :: _ -> t
let peek2 st = match st.toks with _ :: t :: _ -> t | _ -> Lexer.EOF
let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let err fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

(* [nested f st] parses one level deeper, and fails past [max_depth].
   Without the cap the recursion follows the input's nesting, and since
   each minor GC scans the whole stack, millions of parentheses cost
   time quadratic in their number. Every nesting path recurses through
   [parse_unary], a conditional's branches or [parse_stmt], and those
   three are the only places that open a level. *)
let nested f st =
  if st.depth >= max_depth then err "nesting deeper than %d" max_depth;
  st.depth <- st.depth + 1;
  let r = f st in
  st.depth <- st.depth - 1;
  r

let expect st tok =
  if peek st = tok then advance st
  else err "expected %s, found %s" (Lexer.token_to_string tok) (Lexer.token_to_string (peek st))

let expect_ident st =
  match peek st with
  | Lexer.IDENT name ->
      advance st;
      name
  | t -> err "expected identifier, found %s" (Lexer.token_to_string t)

(* ---- expressions ---- *)

let rec parse_expr st = parse_ternary st

and parse_ternary st =
  let c = parse_or st in
  if peek st = Lexer.QUESTION then
    nested
      (fun st ->
        advance st;
        let t = parse_expr st in
        expect st Lexer.COLON;
        Ternary (c, t, parse_ternary st))
      st
  else c

and parse_or st =
  let lhs = parse_and st in
  let rec go lhs =
    if peek st = Lexer.OR then begin
      advance st;
      go (Bin (Or, lhs, parse_and st))
    end
    else lhs
  in
  go lhs

and parse_and st =
  let lhs = parse_cmp st in
  let rec go lhs =
    if peek st = Lexer.AND then begin
      advance st;
      go (Bin (And, lhs, parse_cmp st))
    end
    else lhs
  in
  go lhs

and parse_cmp st =
  let lhs = parse_add st in
  let op =
    match peek st with
    | Lexer.LT -> Some Lt
    | Lexer.LE -> Some Le
    | Lexer.GT -> Some Gt
    | Lexer.GE -> Some Ge
    | Lexer.EQ -> Some Eq
    | Lexer.NE -> Some Ne
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
      advance st;
      Bin (op, lhs, parse_add st)

and parse_add st =
  let lhs = parse_mul st in
  let rec go lhs =
    match peek st with
    | Lexer.PLUS ->
        advance st;
        go (Bin (Add, lhs, parse_mul st))
    | Lexer.MINUS ->
        advance st;
        go (Bin (Sub, lhs, parse_mul st))
    | _ -> lhs
  in
  go lhs

and parse_mul st =
  let lhs = parse_unary st in
  let rec go lhs =
    match peek st with
    | Lexer.STAR ->
        advance st;
        go (Bin (Mul, lhs, parse_unary st))
    | Lexer.SLASH ->
        advance st;
        go (Bin (Div, lhs, parse_unary st))
    | Lexer.PERCENT ->
        advance st;
        go (Bin (Mod, lhs, parse_unary st))
    | _ -> lhs
  in
  go lhs

and parse_unary st = nested parse_unary_body st

and parse_unary_body st =
  match peek st with
  | Lexer.MINUS ->
      advance st;
      Neg (parse_unary st)
  | Lexer.NOT ->
      advance st;
      Not (parse_unary st)
  | Lexer.STAR ->
      advance st;
      Deref (parse_unary st)
  | Lexer.AMP -> (
      advance st;
      match parse_postfix st with
      | Index (a, b) -> Addr_index (a, b)
      | Var v -> Addr_index (Var v, Num Stagg_util.Rat.zero)
      | _ -> err "'&' is only supported on array elements")
  | _ -> parse_postfix st

and parse_postfix st =
  let base =
    match peek st with
    | Lexer.NUMBER r ->
        advance st;
        Num r
    | Lexer.IDENT name -> (
        advance st;
        match peek st with
        | Lexer.INCR ->
            advance st;
            Post_incr name
        | Lexer.DECR ->
            advance st;
            Post_decr name
        | _ -> Var name)
    | Lexer.LPAREN ->
        advance st;
        (* tolerate casts like (float) or (int) *)
        (match peek st with
        | (Lexer.KW_INT | Lexer.KW_FLOAT) when peek2 st = Lexer.RPAREN ->
            advance st;
            advance st;
            parse_unary st
        | _ ->
            let e = parse_expr st in
            expect st Lexer.RPAREN;
            e)
    | t -> err "unexpected token %s in expression" (Lexer.token_to_string t)
  in
  let rec subscripts e =
    if peek st = Lexer.LBRACK then begin
      advance st;
      let ix = parse_expr st in
      expect st Lexer.RBRACK;
      subscripts (Index (e, ix))
    end
    else e
  in
  subscripts base

(* ---- statements ---- *)

let to_lvalue = function
  | Var v -> Lvar v
  | Deref e -> Lderef e
  | Index (a, b) -> Lindex (a, b)
  | _ -> err "expression is not assignable"

let is_type_start = function
  | Lexer.KW_INT | Lexer.KW_FLOAT | Lexer.KW_CONST -> true
  | _ -> false

let parse_base_type st =
  (match peek st with Lexer.KW_CONST -> advance st | _ -> ());
  match peek st with
  | Lexer.KW_INT ->
      advance st;
      Tint
  | Lexer.KW_FLOAT ->
      advance st;
      Tint (* all scalars are rationals; the distinction is immaterial *)
  | t -> err "expected a type, found %s" (Lexer.token_to_string t)

let parse_declarator st base =
  let rec stars t = if peek st = Lexer.STAR then (advance st; stars Tptr) else t in
  let t = stars base in
  let name = expect_ident st in
  let t = if peek st = Lexer.LBRACK then begin
      advance st;
      (match peek st with Lexer.NUMBER _ | Lexer.IDENT _ -> advance st | _ -> ());
      expect st Lexer.RBRACK;
      Tptr
    end
    else t
  in
  let init = if peek st = Lexer.ASSIGN then begin
      advance st;
      Some (parse_expr st)
    end
    else None
  in
  (t, name, init)

(* A "simple statement": assignment, compound assignment, increment, or a
   bare expression — no trailing semicolon (shared by statements and for
   headers). *)
let parse_simple st =
  if is_type_start (peek st) then begin
    let base = parse_base_type st in
    let t, name, init = parse_declarator st base in
    (* only single-declarator decls inside for headers *)
    Decl (t, name, init)
  end
  else begin
    let e = parse_expr st in
    match peek st with
    | Lexer.ASSIGN ->
        advance st;
        Assign (to_lvalue e, parse_expr st)
    | Lexer.PLUS_ASSIGN ->
        advance st;
        Op_assign (to_lvalue e, Add, parse_expr st)
    | Lexer.MINUS_ASSIGN ->
        advance st;
        Op_assign (to_lvalue e, Sub, parse_expr st)
    | Lexer.STAR_ASSIGN ->
        advance st;
        Op_assign (to_lvalue e, Mul, parse_expr st)
    | Lexer.SLASH_ASSIGN ->
        advance st;
        Op_assign (to_lvalue e, Div, parse_expr st)
    | Lexer.INCR ->
        advance st;
        Incr_stmt (to_lvalue e)
    | Lexer.DECR ->
        advance st;
        Decr_stmt (to_lvalue e)
    | _ -> Expr_stmt e
  end

let rec parse_stmt st = nested parse_stmt_body st

and parse_stmt_body st =
  match peek st with
  | Lexer.LBRACE ->
      advance st;
      let body = parse_stmts st in
      expect st Lexer.RBRACE;
      Block body
  | Lexer.KW_FOR ->
      advance st;
      expect st Lexer.LPAREN;
      let init = if peek st = Lexer.SEMI then None else Some (parse_simple st) in
      expect st Lexer.SEMI;
      let cond = if peek st = Lexer.SEMI then None else Some (parse_expr st) in
      expect st Lexer.SEMI;
      let step = if peek st = Lexer.RPAREN then None else Some (parse_simple st) in
      expect st Lexer.RPAREN;
      let body = parse_loop_body st in
      For ({ init; cond; step }, body)
  | Lexer.KW_IF ->
      advance st;
      expect st Lexer.LPAREN;
      let c = parse_expr st in
      expect st Lexer.RPAREN;
      let then_ = parse_loop_body st in
      let else_ =
        if peek st = Lexer.KW_ELSE then begin
          advance st;
          parse_loop_body st
        end
        else []
      in
      If (c, then_, else_)
  | Lexer.KW_RETURN ->
      advance st;
      let e = if peek st = Lexer.SEMI then None else Some (parse_expr st) in
      expect st Lexer.SEMI;
      Return e
  | t when is_type_start t ->
      (* declaration, possibly with multiple declarators *)
      let base = parse_base_type st in
      let t1, n1, i1 = parse_declarator st base in
      let decls = ref [ Decl (t1, n1, i1) ] in
      while peek st = Lexer.COMMA do
        advance st;
        let t, n, i = parse_declarator st base in
        decls := Decl (t, n, i) :: !decls
      done;
      expect st Lexer.SEMI;
      let ds = List.rev !decls in
      (match ds with [ d ] -> d | ds -> Block ds)
  | _ ->
      let s = parse_simple st in
      expect st Lexer.SEMI;
      s

and parse_loop_body st =
  if peek st = Lexer.LBRACE then begin
    advance st;
    let body = parse_stmts st in
    expect st Lexer.RBRACE;
    body
  end
  else [ parse_stmt st ]

and parse_stmts st =
  let rec go acc =
    match peek st with
    | Lexer.RBRACE | Lexer.EOF -> List.rev acc
    | _ -> go (parse_stmt st :: acc)
  in
  go []

(* ---- function definitions ---- *)

let parse_param st =
  let base = parse_base_type st in
  let rec stars t = if peek st = Lexer.STAR then (advance st; stars Tptr) else t in
  (* 'const' may also appear after the base type, as in [int const *] *)
  (match peek st with Lexer.KW_CONST -> advance st | _ -> ());
  let t = stars base in
  let name = expect_ident st in
  let t =
    if peek st = Lexer.LBRACK then begin
      advance st;
      (match peek st with Lexer.NUMBER _ | Lexer.IDENT _ -> advance st | _ -> ());
      expect st Lexer.RBRACK;
      Tptr
    end
    else t
  in
  { pname = name; ptyp = t }

let parse_function_tokens st =
  (* return type *)
  (match peek st with
  | Lexer.KW_VOID -> advance st
  | Lexer.KW_INT | Lexer.KW_FLOAT | Lexer.KW_CONST ->
      ignore (parse_base_type st);
      while peek st = Lexer.STAR do
        advance st
      done
  | t -> err "expected a return type, found %s" (Lexer.token_to_string t));
  let fname = expect_ident st in
  expect st Lexer.LPAREN;
  let params =
    if peek st = Lexer.RPAREN then []
    else begin
      let rec go acc =
        let p = parse_param st in
        if peek st = Lexer.COMMA then begin
          advance st;
          go (p :: acc)
        end
        else List.rev (p :: acc)
      in
      go []
    end
  in
  expect st Lexer.RPAREN;
  expect st Lexer.LBRACE;
  let body = parse_stmts st in
  expect st Lexer.RBRACE;
  { fname; params; body }

let parse_function src =
  match
    let st = { toks = Lexer.tokenize src; depth = 0 } in
    let f = parse_function_tokens st in
    expect st Lexer.EOF;
    f
  with
  | f -> Ok f
  | exception Parse_error msg -> Error msg
  | exception Lexer.Lex_error msg -> Error msg

let parse_function_exn src =
  match parse_function src with
  | Ok f -> f
  | Error msg -> failwith ("mini-C parse error: " ^ msg)
