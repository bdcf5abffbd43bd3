type term =
  | Tok_tensor of string * string list
  | Tok_const
  | Tok_op of Stagg_taco.Ast.op
  | Tok_assign
  | Tok_lparen
  | Tok_rparen
  | Tok_neg

type category = Cat_program | Cat_expr | Cat_op | Cat_tensor | Cat_tail

type sym = NT of string | T of term

type rule = { id : int; lhs : string; rhs : sym list; concrete_syntax : bool }

type t = {
  start : string;
  rules : rule array;
  by_lhs : (string, rule list) Hashtbl.t;
  categories : (string * category) list;
  lhs_cat : category array;  (** per-rule category of the lhs nonterminal *)
}

let term_to_string = function
  | Tok_tensor (name, []) -> name
  | Tok_tensor (name, idxs) -> Printf.sprintf "%s(%s)" name (String.concat "," idxs)
  | Tok_const -> "Const"
  | Tok_op op -> Stagg_taco.Ast.op_to_string op
  | Tok_assign -> "="
  | Tok_lparen -> "("
  | Tok_rparen -> ")"
  | Tok_neg -> "-"

let sym_to_string = function NT n -> n | T t -> Printf.sprintf "%S" (term_to_string t)

let rule_to_string r =
  Printf.sprintf "%s ::= %s" r.lhs
    (match r.rhs with [] -> "ε" | rhs -> String.concat " " (List.map sym_to_string rhs))

let make ~start ~categories ?(concrete_syntax = []) prods =
  let rules =
    Array.of_list
      (List.mapi
         (fun id (lhs, rhs) -> { id; lhs; rhs; concrete_syntax = List.mem id concrete_syntax })
         prods)
  in
  let by_lhs = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_lhs r.lhs) in
      Hashtbl.replace by_lhs r.lhs (cur @ [ r ]))
    rules;
  let check_nt n =
    if not (List.mem_assoc n categories) then
      invalid_arg (Printf.sprintf "Cfg.make: nonterminal %s has no category" n);
    if not (Hashtbl.mem by_lhs n) then
      invalid_arg (Printf.sprintf "Cfg.make: nonterminal %s has no production" n)
  in
  check_nt start;
  Array.iter
    (fun r -> List.iter (function NT n -> check_nt n | T _ -> ()) r.rhs)
    rules;
  let lhs_cat =
    (* every lhs of a reachable rule is categorized (checked above for the
       start symbol and all rhs nonterminals); default only pads rules that
       can never appear in a derivation tree *)
    Array.map
      (fun r -> Option.value ~default:Cat_program (List.assoc_opt r.lhs categories))
      rules
  in
  { start; rules; by_lhs; categories; lhs_cat }

let start g = g.start
let rules g = g.rules
let rule g id = g.rules.(id)
let rules_for g lhs = Option.value ~default:[] (Hashtbl.find_opt g.by_lhs lhs)
let nonterminals g = List.map fst g.categories |> List.filter (Hashtbl.mem g.by_lhs)

let category g n =
  match List.assoc_opt n g.categories with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Cfg.category: unknown nonterminal %s" n)

let rule_lhs_cat g id = g.lhs_cat.(id)
let size g = Array.length g.rules
