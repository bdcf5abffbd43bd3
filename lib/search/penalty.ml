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
   pass with a stack rebuilds, bottom-up, a summary of each subtree as
   [Node.to_program] would decode it: the hash of its expression, the
   operator it decodes to in an operand slot, whether it decodes to an
   expression at all, and, on the root, whether the program decodes.
   The pass also copies the rule ids into an array, by position, and
   records at each node where its operands are, so a subtree can be
   walked again without a tree.

   The hash is a function of the decoded expression, not of the rules
   that spelled it (parentheses and unit rules are transparent, a
   [Const] leaf hashes like the tensor access it decodes to), so equal
   operands always hash equally. A binary node whose operator is +, −
   or / and whose operand hashes differ is no a4 match; equal hashes are
   decided by walking both operands on the array ([same]) as
   [Ast.equal_expr] walks the decoded ones. a4 fires when some node has
   equal operands and the program decodes: exactly
   [same_operand_addsubdiv] on what [Node.to_program] returns, [None]
   read as no match.

   The pass does not model a two-symbol rhs not led by a prefix minus —
   [Node.to_program] decodes it as a right-linear tail chain (bottom-up
   grammars only), whose operands are not subtrees — nor an rhs longer
   than three symbols. A derivation holding either is decoded. *)

type shape = Unit | Negate | Paren | Binary | Unmodeled

let op_code = function Ast.Add -> 1 | Ast.Sub -> 2 | Ast.Mul -> 3 | Ast.Div -> 4
let a4_op code = code = 1 || code = 2 || code = 4

(* A summary's flag word: the operator code the subtree decodes to in
   an operand slot (0: none) in the low bits, then these bits. *)
let op_mask = 7
let expr_ok = 8 (* it decodes to an expression *)
let lhs_ok = 16 (* a tensor terminal, or a rule whose rhs is one: an lhs [to_program] takes *)
let prog_ok = 32 (* the program decodes; set on the root only *)
let on_path = 64 (* it holds position 0 *)

let mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x2545f4914f6cdd1d in
  let h = h lxor (h lsr 27) in
  let h = h * 0x27d4eb2f165667c5 in
  h lxor (h lsr 31)

let access_hash name idxs =
  List.fold_left (fun h s -> mix (h + Hashtbl.hash s)) (mix (Hashtbl.hash name)) idxs

let no_access = ("", [])
let const_access = ("Const", [])

(* An operand is named by a ref: a node's position in [d], or the
   terminal rhs slot [slot] as [-(slot + 1)]. *)
type a4_scan = {
  g : Cfg.t;
  shape : shape array;
  arity : int array;  (** rhs length; at most 3 *)
  prog : bool array;  (** the rhs is [_ = _], the root shape [to_program] takes *)
  is_nt : bool array;  (** per rhs slot, [3 * rule + position] *)
  t_hash : int array;  (** expression hash of a terminal slot *)
  t_flags : int array;  (** flag word of a terminal slot *)
  t_acc : (string * string list) array;  (** the access a tensor/const slot decodes to *)
  mutable d : int array;  (** the derivation by position, 0 the most recent rule *)
  mutable kid1 : int array;  (** per node: its (left) operand's ref *)
  mutable kid2 : int array;  (** per binary node: its right operand's ref *)
  mutable op_at : int array;  (** per binary node: its operator code *)
  mutable hs : int array;  (** the stack: subtree hashes *)
  mutable fs : int array;  (** the stack: subtree flag words *)
  mutable rs : int array;  (** the stack: subtree refs *)
  sh : int array;  (** the current rule's slot hashes *)
  sf : int array;  (** the current rule's slot flag words *)
  sr : int array;  (** the current rule's slot refs *)
  mutable res_h : int;  (** the last node's hash *)
  mutable res_f : int;  (** the last node's flag word *)
  (* the path summary the last [a4_fires] left for [a4_fires_on_path] *)
  mutable p_rd : int list;  (** the parent's derivation *)
  mutable p_ok : bool;  (** the path was summarized (no unmodeled rule) *)
  mutable off_hit : bool;  (** a node off the path has equal a4 operands *)
  mutable path_hit : bool;  (** a node on the path has (scan only) *)
  mutable leaf_f : int;  (** the scanned rule's flag word at position 0 *)
  mutable root_f : int;  (** the root's flag word it folded up to *)
  mutable last_check : int;  (** the last step that can have equal a4 operands, or -1 *)
  mutable n_steps : int;
  mutable step_node : int array;  (** position 0's ancestors, nearest first *)
  mutable step_slot : int array;  (** the slot holding position 0's side *)
  mutable step_h : int array;  (** per step, 3 slot hashes *)
  mutable step_f : int array;  (** per step, 3 slot flag words *)
  mutable step_r : int array;  (** per step, 3 slot refs *)
}

let a4_scan g =
  let rules = Cfg.rules g in
  let n = Array.length rules in
  let s =
    {
      g;
      shape = Array.make n Unmodeled;
      arity = Array.make n 0;
      prog = Array.make n false;
      is_nt = Array.make (3 * n) false;
      t_hash = Array.make (3 * n) 0;
      t_flags = Array.make (3 * n) 0;
      t_acc = Array.make (3 * n) no_access;
      d = Array.make 16 0;
      kid1 = Array.make 16 0;
      kid2 = Array.make 16 0;
      op_at = Array.make 16 0;
      hs = Array.make 16 0;
      fs = Array.make 16 0;
      rs = Array.make 16 0;
      sh = Array.make 3 0;
      sf = Array.make 3 0;
      sr = Array.make 3 0;
      res_h = 0;
      res_f = 0;
      p_rd = [];
      p_ok = false;
      off_hit = false;
      path_hit = false;
      leaf_f = 0;
      root_f = 0;
      last_check = -1;
      n_steps = 0;
      step_node = Array.make 8 0;
      step_slot = Array.make 8 0;
      step_h = Array.make 24 0;
      step_f = Array.make 24 0;
      step_r = Array.make 24 0;
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
        | [] (* decodes to nothing *) -> Unit
        | _ -> Unmodeled
      in
      s.shape.(r.id) <- shape;
      s.prog.(r.id) <- (match r.rhs with [ _; Cfg.T Cfg.Tok_assign; _ ] -> true | _ -> false);
      if shape <> Unmodeled then begin
        s.arity.(r.id) <- List.length r.rhs;
        List.iteri
          (fun i sym ->
            let slot = (3 * r.id) + i in
            let access ((n, idxs) as acc) flags =
              s.t_hash.(slot) <- access_hash n idxs;
              s.t_flags.(slot) <- flags;
              s.t_acc.(slot) <- acc
            in
            match sym with
            | Cfg.NT _ -> s.is_nt.(slot) <- true
            | Cfg.T (Cfg.Tok_tensor (n, idxs)) -> access (n, idxs) (expr_ok lor lhs_ok)
            | Cfg.T Cfg.Tok_const -> access const_access expr_ok
            | Cfg.T (Cfg.Tok_op op) -> s.t_flags.(slot) <- op_code op
            | Cfg.T (Cfg.Tok_neg | Cfg.Tok_assign | Cfg.Tok_lparen | Cfg.Tok_rparen) -> ())
          r.rhs
      end)
    rules;
  s

let grow a n =
  let b = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* room for node position [i] *)
let node_room s i =
  if i >= Array.length s.d then begin
    s.d <- grow s.d (i + 1);
    s.kid1 <- grow s.kid1 (i + 1);
    s.kid2 <- grow s.kid2 (i + 1);
    s.op_at <- grow s.op_at (i + 1)
  end

let push s sp h f r =
  if sp = Array.length s.hs then begin
    s.hs <- grow s.hs (sp + 1);
    s.fs <- grow s.fs (sp + 1);
    s.rs <- grow s.rs (sp + 1)
  end;
  s.hs.(sp) <- h;
  s.fs.(sp) <- f;
  s.rs.(sp) <- r;
  sp + 1

(* Fill the slot summaries of rule [id]: its nonterminal slots pop the
   stack (leftmost on top), its terminal slots read the tables. The new
   stack height. *)
let read_slots s sp id =
  let sp = ref sp in
  for j = 0 to s.arity.(id) - 1 do
    let slot = (3 * id) + j in
    if s.is_nt.(slot) then begin
      decr sp;
      s.sh.(j) <- s.hs.(!sp);
      s.sf.(j) <- s.fs.(!sp);
      s.sr.(j) <- s.rs.(!sp)
    end
    else begin
      s.sh.(j) <- s.t_hash.(slot);
      s.sf.(j) <- s.t_flags.(slot);
      s.sr.(j) <- -(slot + 1)
    end
  done;
  !sp

(* A ref with the transparent nodes (unit rules, parentheses) above
   its expression skipped. Only expression subtrees are walked, and
   there every unit node has one slot. *)
let rec resolve s r =
  if r < 0 then r
  else match s.shape.(s.d.(r)) with Unit | Paren -> resolve s s.kid1.(r) | _ -> r

(* [Ast.equal_expr] on the expressions the refs [a] and [b] decode to;
   both must decode to one *)
let rec same s a b =
  let a = resolve s a and b = resolve s b in
  if a < 0 || b < 0 then
    a < 0 && b < 0
    &&
    let (n, i) = s.t_acc.(-a - 1) and (n', i') = s.t_acc.(-b - 1) in
    String.equal n n' && List.equal String.equal i i'
  else
    match (s.shape.(s.d.(a)), s.shape.(s.d.(b))) with
    | Negate, Negate -> same s s.kid1.(a) s.kid1.(b)
    | Binary, Binary ->
        s.op_at.(a) = s.op_at.(b) && same s s.kid1.(a) s.kid1.(b) && same s s.kid2.(a) s.kid2.(b)
    | _ -> false

(* Summarize the node at position [i], rule [id], from the slot
   summaries [read_slots] (or a path step) filled, into [res_h] and
   [res_f], and record its operands. [true] when [check] and it is a
   +, − or / node with equal operands. *)
let combine s i id check =
  match s.shape.(id) with
  | Unit ->
      if s.arity.(id) = 1 then begin
        s.kid1.(i) <- s.sr.(0);
        s.res_h <- s.sh.(0);
        (* [to_program] takes an lhs one rule above its tensor, no more *)
        s.res_f <-
          s.sf.(0) land (op_mask lor expr_ok) lor if s.sr.(0) < 0 then s.sf.(0) land lhs_ok else 0
      end
      else begin
        s.res_h <- 0;
        s.res_f <- 0
      end;
      false
  | Negate ->
      s.kid1.(i) <- s.sr.(1);
      s.res_h <- mix (s.sh.(1) + 0x4e4547);
      s.res_f <- s.sf.(1) land expr_ok;
      false
  | Paren ->
      s.kid1.(i) <- s.sr.(1);
      s.res_h <- s.sh.(1);
      s.res_f <- s.sf.(1) land expr_ok;
      false
  | Binary ->
      let op = s.sf.(1) land op_mask and l = s.sh.(0) and r = s.sh.(2) in
      let operands = s.sf.(0) land s.sf.(2) land expr_ok <> 0 in
      s.kid1.(i) <- s.sr.(0);
      s.kid2.(i) <- s.sr.(2);
      s.op_at.(i) <- op;
      s.res_h <- mix (mix ((l * 5) + op) + r);
      s.res_f <-
        (if op > 0 && operands then expr_ok else 0)
        lor
        if s.prog.(id) && s.sf.(0) land lhs_ok <> 0 && s.sf.(2) land expr_ok <> 0 then prog_ok
        else 0;
      check && operands && a4_op op && l = r && same s s.sr.(0) s.sr.(2)
  | Unmodeled -> invalid_arg "Penalty.combine: unmodeled rule"

let decodes_to_a4 g rd =
  match Node.to_program g (Node.of_derivation g rd) with
  | Some p -> same_operand_addsubdiv p.Ast.rhs
  | None -> false

(* Record the node at position [i], rule [id], whose slot [p] holds
   position 0's side, as the next path step: its slot summaries. *)
let record_step s i id p =
  let k = s.n_steps in
  if k = Array.length s.step_node then begin
    s.step_node <- grow s.step_node (k + 1);
    s.step_slot <- grow s.step_slot (k + 1);
    s.step_h <- grow s.step_h (3 * (k + 1));
    s.step_f <- grow s.step_f (3 * (k + 1));
    s.step_r <- grow s.step_r (3 * (k + 1))
  end;
  s.step_node.(k) <- i;
  s.step_slot.(k) <- p;
  (* a binary node whose operator is fixed and not +, − or /, or whose
     other operand decodes to no expression, never matches *)
  if
    s.shape.(id) = Binary
    && (p = 1 || (a4_op (s.sf.(1) land op_mask) && s.sf.(2 - p) land expr_ok <> 0))
  then s.last_check <- k;
  for j = 0 to s.arity.(id) - 1 do
    s.step_h.((3 * k) + j) <- s.sh.(j);
    s.step_f.((3 * k) + j) <- s.sf.(j);
    s.step_r.((3 * k) + j) <- s.sr.(j)
  done;
  s.n_steps <- k + 1

(* the slot of rule [id] that [read_slots] filled from position 0's
   side, or -1 *)
let path_slot s id =
  let p = ref (-1) in
  for j = 0 to s.arity.(id) - 1 do
    if s.sf.(j) land on_path <> 0 then p := j
  done;
  !p

(* Summarize the rules from position [i] > 0 on; [false] at an
   unmodeled rule. An ancestor of position 0 is recorded as a path
   step, and its equal operands go to [path_hit]; any other node's go
   to [off_hit]. *)
let rec scan_from s sp i = function
  | [] -> true
  | id :: rest ->
      s.shape.(id) <> Unmodeled
      &&
      (node_room s i;
       s.d.(i) <- id;
       let sp = read_slots s sp id in
       let p = path_slot s id in
       let sp =
         if p < 0 then begin
           if combine s i id (not s.off_hit) then s.off_hit <- true;
           push s sp s.res_h s.res_f i
         end
         else begin
           record_step s i id p;
           if combine s i id (not (s.path_hit || s.off_hit)) then s.path_hit <- true;
           push s sp s.res_h (s.res_f lor on_path) i
         end
       in
       scan_from s sp (i + 1) rest)

let a4_fires s rid rd =
  s.p_rd <- rd;
  s.off_hit <- false;
  s.n_steps <- 0;
  s.last_check <- -1;
  (* the completing rule has no nonterminal: its slots are terminals *)
  s.p_ok <-
    s.shape.(rid) <> Unmodeled
    && begin
         node_room s 0;
         s.d.(0) <- rid;
         let sp = read_slots s 0 rid in
         s.path_hit <- combine s 0 rid true;
         s.leaf_f <- s.res_f;
         scan_from s (push s sp s.res_h (s.res_f lor on_path) 0) 1 rd
       end;
  if s.p_ok then begin
    (* the root is the last node summarized *)
    s.root_f <- s.res_f;
    (s.path_hit || s.off_hit) && s.res_f land prog_ok <> 0
  end
  else decodes_to_a4 s.g (rid :: rd)

(* ---- a4 for the complete children of one expansion ----

   A complete child is its parent, whose one open leaf is the last node
   in preorder, plus one rule without nonterminals there. Its derivation
   is that rule followed by the parent's, so the scan of any such child
   reads the parent's rules at the same positions, 1 on, and every
   subtree off the path from position 0 to the root summarizes the same
   way for every sibling. [a4_fires] records that path as it scans: per
   ancestor of position 0, the summaries of its other slots, and whether
   a node off the path has equal a4 operands ([off_hit]).
   [a4_fires_on_path] summarizes a sibling's rule at position 0 and
   folds it up the recorded steps. *)

(* Fold step [k]: summarize its node with the summary of position 0's
   side just computed. [true] when [check] and its operands are equal
   a4 operands. *)
let fold_step s k check =
  let i = s.step_node.(k) in
  let id = s.d.(i) and p = s.step_slot.(k) in
  for j = 0 to s.arity.(id) - 1 do
    if j = p then begin
      s.sh.(j) <- s.res_h;
      s.sf.(j) <- s.res_f
    end
    else begin
      s.sh.(j) <- s.step_h.((3 * k) + j);
      s.sf.(j) <- s.step_f.((3 * k) + j)
    end;
    s.sr.(j) <- s.step_r.((3 * k) + j)
  done;
  combine s i id check

let a4_fires_on_path s rid =
  if (not s.p_ok) || s.shape.(rid) = Unmodeled then decodes_to_a4 s.g (rid :: s.p_rd)
  else begin
    s.d.(0) <- rid;
    ignore (read_slots s 0 rid : int);
    let hit = ref (combine s 0 rid (not s.off_hit) || s.off_hit) in
    if s.res_f = s.leaf_f then begin
      (* flag words fold up from position 0's alone, so the root's is the
         scanned sibling's: only the steps that can match are left *)
      let k = ref 0 in
      while (not !hit) && !k <= s.last_check do
        if fold_step s !k true then hit := true;
        incr k
      done;
      !hit && s.root_f land prog_ok <> 0
    end
    else begin
      for k = 0 to s.n_steps - 1 do
        if fold_step s k (not !hit) then hit := true
      done;
      !hit && s.res_f land prog_ok <> 0
    end
  end
