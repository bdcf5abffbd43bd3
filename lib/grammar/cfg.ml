type term =
  | Tok_tensor of string * string list
  | Tok_const
  | Tok_op of Stagg_taco.Ast.op
  | Tok_assign
  | Tok_lparen
  | Tok_rparen
  | Tok_neg

type category = Cat_program | Cat_expr | Cat_op | Cat_tensor | Cat_tail

type sym = NT of int | T of term

type rule = { id : int; lhs : int; rhs : sym list }

type t = {
  start : int;
  rules : rule array;
  by_lhs : rule list array;  (** per nonterminal id, in rule order *)
  cats : category array;
  names : string array;
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

let make ~start ~categories prods =
  let has_prod = Hashtbl.create 16 in
  List.iter (fun (lhs, _) -> Hashtbl.replace has_prod lhs ()) prods;
  (* ids in [categories] order (a name's first listing), skipping
     nonterminals without a production *)
  let ids = Hashtbl.create 16 in
  let named =
    List.fold_left
      (fun acc (n, c) ->
        if Hashtbl.mem has_prod n && not (Hashtbl.mem ids n) then begin
          Hashtbl.add ids n (Hashtbl.length ids);
          (n, c) :: acc
        end
        else acc)
      [] categories
    |> List.rev |> Array.of_list
  in
  let id_of n =
    match Hashtbl.find_opt ids n with
    | Some id -> id
    | None ->
        invalid_arg
          (Printf.sprintf "Cfg.make: nonterminal %s has no %s" n
             (if List.mem_assoc n categories then "production" else "category"))
  in
  let start = id_of start in
  let rules =
    Array.of_list
      (List.mapi
         (fun id (lhs, rhs) ->
           let lhs = id_of lhs in
           { id; lhs; rhs = List.map (function `N n -> NT (id_of n) | `T t -> T t) rhs })
         prods)
  in
  let by_lhs = Array.make (Array.length named) [] in
  for id = Array.length rules - 1 downto 0 do
    let r = rules.(id) in
    by_lhs.(r.lhs) <- r :: by_lhs.(r.lhs)
  done;
  { start; rules; by_lhs; cats = Array.map snd named; names = Array.map fst named }

let start g = g.start
let rules g = g.rules
let rule g id = g.rules.(id)
let rules_for g nt = g.by_lhs.(nt)
let category g nt = g.cats.(nt)
let n_nonterminals g = Array.length g.names
let nt_name g nt = g.names.(nt)

let nt_id g n =
  let rec go i =
    if i = Array.length g.names then
      invalid_arg (Printf.sprintf "Cfg.nt_id: unknown nonterminal %s" n)
    else if String.equal g.names.(i) n then i
    else go (i + 1)
  in
  go 0

let size g = Array.length g.rules

let sym_to_string g = function
  | NT nt -> nt_name g nt
  | T t -> Printf.sprintf "%S" (term_to_string t)

let rule_to_string g r =
  Printf.sprintf "%s ::= %s" (nt_name g r.lhs)
    (match r.rhs with [] -> "ε" | rhs -> String.concat " " (List.map (sym_to_string g) rhs))
