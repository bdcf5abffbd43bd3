open Stagg_taco
open Stagg_grammar

type criterion = A1 | A2 | A3 | A4 | A5 | B1 | B2

let all_topdown = [ A1; A2; A3; A4; A5 ]
let all_bottomup = [ B1; B2 ]

let criterion_to_string = function
  | A1 -> "a1"
  | A2 -> "a2"
  | A3 -> "a3"
  | A4 -> "a4"
  | A5 -> "a5"
  | B1 -> "b1"
  | B2 -> "b2"

type ctx = {
  dim_list : int list;
  ops_available : Ast.op list;
  grammar_has_const : bool;
  enabled : criterion list;
}

(* a4: some +, − or / applied to two syntactically identical operands. *)
let rec same_operand_addsubdiv (e : Ast.expr) =
  match e with
  | Ast.Access _ | Ast.Const _ -> false
  | Ast.Neg e -> same_operand_addsubdiv e
  | Ast.Bin (op, l, r) ->
      (match op with
      | Ast.Add | Ast.Sub | Ast.Div -> Ast.equal_expr l r
      | Ast.Mul -> false)
      || same_operand_addsubdiv l || same_operand_addsubdiv r

(* [score_compiled] runs once per queue push — the searches' innermost
   loop — so the context is compiled once per search into flat fields:
   criterion membership becomes a bool read instead of seven [List.mem]s,
   and the list lengths are taken up front. *)
type compiled = {
  k_len_l : int;
  k_n_ops : int;  (** [List.length ops_available] *)
  k_const : bool;
  k_a1 : bool;
  k_a2 : bool;
  k_a3 : bool;
  k_a4 : bool;
  k_a5 : bool;
  k_b1 : bool;
  k_b2 : bool;
}

let compile ctx =
  let on c = List.mem c ctx.enabled in
  {
    k_len_l = List.length ctx.dim_list;
    k_n_ops = List.length ctx.ops_available;
    k_const = ctx.grammar_has_const;
    k_a1 = on A1;
    k_a2 = on A2;
    k_a3 = on A3;
    k_a4 = on A4;
    k_a5 = on A5;
    k_b1 = on B1;
    k_b2 = on B2;
  }

(* Every criterion but a4. a4 is 0 or ∞ and every term is ≥ 0, so
   adding it to this sum gives either the sum itself or ∞: the full
   X(x) is [infinity] when a4 fires and this value otherwise. *)
let score_compiled k (m : Node.metrics) =
  let too_few = 2 * Node.n_distinct_ops m < k.k_n_ops in
  let a1 =
    (* grammar includes a constant expression, length exceeds 3, and the
       expression has poor index variety or lacks the constant *)
    if
      k.k_a1 && k.k_const && m.n_tensors > 3 && (m.n_index_i < 2 || not m.has_const_leaf)
    then 10.
    else 0.
  in
  let a2 =
    (* the number of unique tensor symbols differs from the dimension-list
       length (a symbol may be used several times: (b-c)*(b-c) has three
       unique symbols). A partial template can still grow, so it is only
       penalized once it is already too long. *)
    if
      k.k_a2
      && ((m.complete && m.n_unique <> k.k_len_l)
         || ((not m.complete) && m.n_unique > k.k_len_l))
    then 100.
    else 0.
  in
  (* a3/b1: tensor symbols in alphabetical order by first appearance —
     i.e. the first-appearance sequence is sorted. "Sorted", not
     "consecutive": when a Const occupies a dimension-list slot the
     solution may legally skip that slot's letter (a(i) = Const - c(i));
     Const itself does not participate. The point of the rule is to avoid
     enumerating templates that differ only by symbol permutation (§5.1).
     [Node] maintains the answer in [sorted_firsts], O(1) per leaf. *)
  let a3 = if k.k_a3 && not m.sorted_firsts then infinity else 0. in
  let a5 = if k.k_a5 && m.complete && too_few then infinity else 0. in
  let b1 = if k.k_b1 && not m.sorted_firsts then 100. else 0. in
  let b2 = if k.k_b2 && m.n_tensors >= k.k_len_l && too_few then infinity else 0. in
  a1 +. a2 +. a3 +. a5 +. b1 +. b2

(* Two equal operands repeat every symbol they hold, so a4 needs a
   repeated symbol (more leaves than distinct symbols) and one of its
   operators among x's. *)
let a4_ops = Node.op_bit Ast.Add lor Node.op_bit Ast.Sub lor Node.op_bit Ast.Div

let checks_a4 k (m : Node.metrics) =
  k.k_a4 && m.complete && m.n_tensors > m.n_unique && m.ops land a4_ops <> 0

let score ctx m ~program =
  let k = compile ctx in
  match program with
  | Some p when k.k_a4 && m.Node.complete && same_operand_addsubdiv p.Ast.rhs -> infinity
  | _ -> score_compiled k m

(* ---- a4 on the derivation ----

   A complete derivation, read most recent rule first, lists its rules in
   reverse preorder: every rule comes after the rules of its subtrees,
   and the subtree of its leftmost nonterminal was finished last. So one
   pass with a stack rebuilds, bottom-up, a summary of each subtree —
   the hash of the expression [Node.to_program] would decode from it,
   and the operator it would decode as an operand slot — and pops a
   rule's children leftmost first.

   The hash is a function of the decoded expression, not of the rules
   that spelled it, so two operands with equal ASTs always get equal
   hashes (parentheses and unit rules are transparent, a [Const] leaf
   hashes like the tensor access it decodes to). A subtree that decodes
   to no expression gets an arbitrary summary: the program it sits in
   then decodes to [None], and a4 cannot fire on it. Hence a binary node
   whose operator is +, − or / and whose operand hashes differ can never
   be an a4 match; equal hashes only make the child a candidate, decided
   exactly on its decoded program. The scan does not model a two-symbol
   rhs not led by a prefix minus — [Node.to_program] decodes it as a
   right-linear tail chain (bottom-up grammars only), whose operands are
   not subtrees — nor an rhs longer than three symbols; either makes the
   child a candidate. *)

type shape = Unit | Negate | Paren | Binary | Unmodeled

let op_code = function Ast.Add -> 1 | Ast.Sub -> 2 | Ast.Mul -> 3 | Ast.Div -> 4
let a4_op code = code = 1 || code = 2 || code = 4

let mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x2545f4914f6cdd1d in
  let h = h lxor (h lsr 27) in
  let h = h * 0x27d4eb2f165667c5 in
  h lxor (h lsr 31)

let access_hash name idxs =
  List.fold_left (fun h s -> mix (h + Hashtbl.hash s)) (mix (Hashtbl.hash name)) idxs

type a4_scan = {
  shape : shape array;
  arity : int array;  (** rhs length; at most 3 *)
  is_nt : bool array;  (** per rhs slot, [3 * rule + position] *)
  t_hash : int array;  (** expression hash of a terminal slot *)
  t_op : int array;  (** operator code of a terminal slot (0: not an operator) *)
  mutable hs : int array;  (** the stack: subtree expression hashes *)
  mutable os : int array;  (** the stack: subtree operator codes *)
  sh : int array;  (** the current rule's slot hashes *)
  so : int array;  (** the current rule's slot operator codes *)
}

let a4_scan g =
  let rules = Cfg.rules g in
  let n = Array.length rules in
  let s =
    {
      shape = Array.make n Unmodeled;
      arity = Array.make n 0;
      is_nt = Array.make (3 * n) false;
      t_hash = Array.make (3 * n) 0;
      t_op = Array.make (3 * n) 0;
      hs = Array.make 16 0;
      os = Array.make 16 0;
      sh = Array.make 3 0;
      so = Array.make 3 0;
    }
  in
  Array.iter
    (fun (r : Cfg.rule) ->
      (* the same case order as [Node.to_expr]'s match on the children *)
      let shape =
        match r.rhs with
        | [ _ ] -> Unit
        | [ Cfg.T Cfg.Tok_neg; _ ] -> Negate
        | [ Cfg.T Cfg.Tok_lparen; _; Cfg.T Cfg.Tok_rparen ] -> Paren
        | [ _; _; _ ] -> Binary
        | [] (* decodes to nothing: an arbitrary summary *) -> Unit
        | _ -> Unmodeled
      in
      s.shape.(r.id) <- shape;
      if shape <> Unmodeled then begin
        s.arity.(r.id) <- List.length r.rhs;
        List.iteri
          (fun i sym ->
            let slot = (3 * r.id) + i in
            match sym with
            | Cfg.NT _ -> s.is_nt.(slot) <- true
            | Cfg.T (Cfg.Tok_tensor (n, idxs)) -> s.t_hash.(slot) <- access_hash n idxs
            | Cfg.T Cfg.Tok_const -> s.t_hash.(slot) <- access_hash "Const" []
            | Cfg.T (Cfg.Tok_op op) -> s.t_op.(slot) <- op_code op
            | Cfg.T (Cfg.Tok_neg | Cfg.Tok_assign | Cfg.Tok_lparen | Cfg.Tok_rparen) -> ())
          r.rhs
      end)
    rules;
  s

let push s sp h o =
  if sp = Array.length s.hs then begin
    let grow a =
      let b = Array.make (2 * sp) 0 in
      Array.blit a 0 b 0 sp;
      b
    in
    s.hs <- grow s.hs;
    s.os <- grow s.os
  end;
  s.hs.(sp) <- h;
  s.os.(sp) <- o;
  sp + 1

(* One rule of the scan: pop its nonterminal slots' summaries (leftmost
   on top), push its own. [-1] when the rule makes the child a
   candidate, else the new stack height. *)
let scan_rule s sp id =
  match s.shape.(id) with
  | Unmodeled -> -1
  | shape ->
      let sp = ref sp in
      for i = 0 to s.arity.(id) - 1 do
        let slot = (3 * id) + i in
        if s.is_nt.(slot) then begin
          decr sp;
          s.sh.(i) <- s.hs.(!sp);
          s.so.(i) <- s.os.(!sp)
        end
        else begin
          s.sh.(i) <- s.t_hash.(slot);
          s.so.(i) <- s.t_op.(slot)
        end
      done;
      let sp = !sp in
      (match shape with
      | Unit -> if s.arity.(id) = 1 then push s sp s.sh.(0) s.so.(0) else push s sp 0 0
      | Negate -> push s sp (mix (s.sh.(1) + 0x4e4547)) 0
      | Paren -> push s sp s.sh.(1) 0
      | Binary ->
          let op = s.so.(1) and l = s.sh.(0) and r = s.sh.(2) in
          if a4_op op && l = r then -1 else push s sp (mix (mix ((l * 5) + op) + r)) 0
      | Unmodeled -> -1)

let rec scan_rules s sp = function
  | [] -> false
  | id :: rest ->
      let sp = scan_rule s sp id in
      sp < 0 || scan_rules s sp rest

let a4_candidate s rid rd =
  let sp = scan_rule s 0 rid in
  sp < 0 || scan_rules s sp rd
