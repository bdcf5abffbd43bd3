open Ast

exception Parse_error of string

let max_depth = 256

(* [depth] counts the nesting levels open at the head of [toks] *)
type state = { mutable toks : Lexer.token list; mutable depth : int }

let peek st = match st.toks with [] -> Lexer.EOF | t :: _ -> t

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok =
  if peek st = tok then advance st
  else
    raise
      (Parse_error
         (Printf.sprintf "expected %s, found %s" (Lexer.token_to_string tok)
            (Lexer.token_to_string (peek st))))

let is_sum_name name =
  match String.lowercase_ascii name with "sum" | "summation" -> true | _ -> false

(* [nested f st] parses one level deeper, and fails past [max_depth].
   Without the cap the recursion follows the input's nesting: every
   later pass over the AST recurses as deep, and since each minor GC
   scans the whole stack, a deep input costs time super-linear in its
   length. Every nesting path — a parenthesis, a prefix minus, a call's
   arguments — recurses through [parse_factor], the only place that
   opens a level. *)
let nested f st =
  if st.depth >= max_depth then
    raise (Parse_error (Printf.sprintf "nesting deeper than %d" max_depth));
  st.depth <- st.depth + 1;
  let r = f st in
  st.depth <- st.depth - 1;
  r

(* factor := '-' factor | '(' expr ')' | NUMBER | IDENT [ '(' args ')' ] *)
let rec parse_factor st = nested parse_factor_body st

and parse_factor_body st =
  match peek st with
  | Lexer.MINUS ->
      advance st;
      Neg (parse_factor st)
  | Lexer.LPAREN ->
      advance st;
      let e = parse_expr_prec st in
      expect st Lexer.RPAREN;
      e
  | Lexer.NUMBER r ->
      advance st;
      Const r
  | Lexer.IDENT name ->
      advance st;
      if peek st = Lexer.LPAREN then begin
        advance st;
        let args = parse_args st in
        expect st Lexer.RPAREN;
        interpret_call name args
      end
      else Access (name, [])
  | t -> raise (Parse_error (Printf.sprintf "unexpected token %s" (Lexer.token_to_string t)))

and parse_args st =
  let first = parse_expr_prec st in
  let rec rest acc =
    if peek st = Lexer.COMMA then begin
      advance st;
      rest (parse_expr_prec st :: acc)
    end
    else List.rev acc
  in
  rest [ first ]

(* A call is either a tensor access (all arguments are bare identifiers) or
   an explicit summation wrapper [sum(i, j, e)], which we erase. *)
and interpret_call name args =
  let as_index = function Access (x, []) -> Some x | _ -> None in
  let all_indices = List.filter_map as_index args in
  if List.length all_indices = List.length args then
    if is_sum_name name && args <> [] then
      (* sum over bare indices with no body, e.g. sum(i): treat the last
         identifier as the (degenerate) body *)
      match List.rev all_indices with
      | last :: _ -> Access (last, [])
      | [] -> assert false
    else Access (name, all_indices)
  else if is_sum_name name then
    match List.rev args with
    | body :: rest when List.for_all (fun a -> as_index a <> None) rest -> body
    | _ -> raise (Parse_error "malformed sum(...) expression")
  else raise (Parse_error (Printf.sprintf "tensor %s indexed with a non-identifier" name))

(* term := factor (('*'|'/') factor)* *)
and parse_term st =
  let lhs = parse_factor st in
  let rec go lhs =
    match peek st with
    | Lexer.STAR ->
        advance st;
        go (Bin (Mul, lhs, parse_factor st))
    | Lexer.SLASH ->
        advance st;
        go (Bin (Div, lhs, parse_factor st))
    | _ -> lhs
  in
  go lhs

(* expr := term (('+'|'-') term)* *)
and parse_expr_prec st =
  let lhs = parse_term st in
  let rec go lhs =
    match peek st with
    | Lexer.PLUS ->
        advance st;
        go (Bin (Add, lhs, parse_term st))
    | Lexer.MINUS ->
        advance st;
        go (Bin (Sub, lhs, parse_term st))
    | _ -> lhs
  in
  go lhs

let parse_lhs st =
  match peek st with
  | Lexer.IDENT name ->
      advance st;
      if peek st = Lexer.LPAREN then begin
        advance st;
        let rec indices acc =
          match peek st with
          | Lexer.IDENT i ->
              advance st;
              if peek st = Lexer.COMMA then begin
                advance st;
                indices (i :: acc)
              end
              else List.rev (i :: acc)
          | t ->
              raise
                (Parse_error
                   (Printf.sprintf "expected index variable, found %s" (Lexer.token_to_string t)))
        in
        let idxs = indices [] in
        expect st Lexer.RPAREN;
        (name, idxs)
      end
      else (name, [])
  | t ->
      raise (Parse_error (Printf.sprintf "expected tensor name, found %s" (Lexer.token_to_string t)))

let run f s =
  match
    let st = { toks = Lexer.tokenize s; depth = 0 } in
    let r = f st in
    expect st Lexer.EOF;
    r
  with
  | r -> Ok r
  | exception Parse_error msg -> Error msg
  | exception Lexer.Lex_error msg -> Error msg

let parse_program s =
  run
    (fun st ->
      let lhs = parse_lhs st in
      expect st Lexer.ASSIGN;
      let rhs = parse_expr_prec st in
      { lhs; rhs })
    s

let parse_program_exn s =
  match parse_program s with Ok p -> p | Error msg -> failwith ("Taco parse error: " ^ msg)
