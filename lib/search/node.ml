open Stagg_grammar
module Ast = Stagg_taco.Ast

type t = Leaf of Cfg.term | Open of string | Node of int * t list

let initial g = Open (Cfg.start g)

let rec leftmost_open = function
  | Open nt -> Some nt
  | Leaf _ -> None
  | Node (_, ch) -> List.find_map leftmost_open ch

let is_complete x = leftmost_open x = None

let apply_rule (r : Cfg.rule) =
  Node (r.id, List.map (function Cfg.NT n -> Open n | Cfg.T t -> Leaf t) r.rhs)

(* Substitute the leftmost Open leaf with [repl]; returns the new tree and
   whether a substitution happened. *)
let rec subst_leftmost x repl =
  match x with
  | Open _ -> (repl, true)
  | Leaf _ -> (x, false)
  | Node (id, ch) ->
      let rec go acc done_ = function
        | [] -> (List.rev acc, done_)
        | c :: rest ->
            if done_ then go (c :: acc) true rest
            else
              let c', d = subst_leftmost c repl in
              go (c' :: acc) d rest
      in
      let ch', d = go [] false ch in
      (Node (id, ch'), d)

let expansions g x =
  match leftmost_open x with
  | None -> []
  | Some nt ->
      List.map
        (fun (r : Cfg.rule) ->
          let x', ok = subst_leftmost x (apply_rule r) in
          assert ok;
          (r, x'))
        (Cfg.rules_for g nt)

(* Flat left-to-right accumulation over the open leaves: closed leaves
   thread the accumulator through unchanged, so this is float-for-float
   the same computation as folding over the ordered open-leaf list —
   the invariant [g_cost_opens] relies on. *)
let g_cost p x =
  let rec go acc = function
    | Leaf _ -> acc
    | Open nt -> acc +. Pcfg.h_cost p nt
    | Node (_, ch) -> List.fold_left go acc ch
  in
  go 0. x

let g_cost_opens p opens = List.fold_left (fun acc nt -> acc +. Pcfg.h_cost p nt) 0. opens

let rec depth g = function
  | Leaf (Cfg.Tok_tensor _ | Cfg.Tok_const) -> 1
  | Leaf _ -> 0
  | Open nt -> (
      match Cfg.category g nt with
      | Cfg.Cat_expr | Cfg.Cat_tensor -> 1
      | Cfg.Cat_program | Cfg.Cat_op | Cfg.Cat_tail -> 0)
  | Node (rid, ch) ->
      (* allocation-free child fold: max depth and how many children carry
         expression depth (this runs once per queue pop) *)
      let m = ref 0 and expr_children = ref 0 in
      List.iter
        (fun c ->
          let d = depth g c in
          if d > !m then m := d;
          if d >= 1 then incr expr_children)
        ch;
      if Cfg.rule_lhs_cat g rid = Cfg.Cat_expr && !expr_children >= 2 then 1 + !m else !m

(* ---- canonical template fingerprints ----

   A 63-bit polynomial rolling hash over the sequence of per-rule
   contributions read off in leftmost-derivation order. A leftmost
   derivation creates internal nodes exactly in preorder, so the hash can
   be maintained incrementally: applying rule [r] to any partial tree
   maps fingerprint [fp] to [fp * mult(r) + addend(r)], and that equals
   the full preorder rescan of the child tree.

   A rule's contribution encodes what the rule adds to the template's
   *concrete syntax*: the AST-carrying terminals of its rhs
   (tensor/const/op/neg), prefixed by a branching marker when the rhs has
   ≥2 nonterminals. Assign and paren tokens, unit rules and ε rules
   contribute nothing. [Pretty] prints right operands of equal precedence
   parenthesized, so printing round-trips the AST exactly; the marker
   separates the one remaining ambiguity (associativity: both parse trees
   of [b + c + d] list the same tokens but print differently). Hence two
   complete trees print equally iff their contribution sequences are
   equal, i.e. iff their fingerprints collide only with hash probability
   ~2⁻⁶³ (audited in the test suite). *)

type fingerprints = {
  mult : int array;
  addend : int array;
  (* §5.1 depth tables, per rule (valid when [depth_static]):
     [d_branch] — applying the rule adds one to the expression depth of
     everything below it (lhs is an expression and the rhs carries ≥2
     depth-bearing children); [d_gain] — the rhs itself introduces a
     depth-1 item (tensor/const terminal, or an expression/tensor
     nonterminal, whose subtrees always reach depth ≥1). *)
  d_branch : bool array;
  d_gain : bool array;
  depth_static : bool;
}

let depth_static fps = fps.depth_static

(* All constants fit OCaml's 63-bit native int. *)
let fp_k = 0x2545f4914f6cdd1d

let fp_mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x2545f4914f6cdd1d in
  let h = h lxor (h lsr 27) in
  let h = h * 0x27d4eb2f165667c5 in
  h lxor (h lsr 31)

let fp_seed = fp_mix 0x51a6617f
let fp_branch = fp_mix 0x5eed0a11

(* Token hashes come from the token's own spelling (plus a constructor
   tag: [Tok_neg] and [Tok_op Sub] both print "-"), not [Hashtbl.hash],
   whose 30-bit range would make cross-token collisions plausible. *)
let fp_token tag s =
  let h = ref (0x27d4eb2f + tag) in
  String.iter (fun ch -> h := (!h * 0x100000001b3) lxor Char.code ch) s;
  fp_mix !h

let rule_contribution (r : Cfg.rule) =
  let n_nt =
    List.fold_left (fun a s -> match s with Cfg.NT _ -> a + 1 | Cfg.T _ -> a) 0 r.rhs
  in
  let toks =
    List.filter_map
      (function
        | Cfg.T (Cfg.Tok_tensor _ as t) -> Some (fp_token 1 (Cfg.term_to_string t))
        | Cfg.T Cfg.Tok_const -> Some (fp_token 2 "Const")
        | Cfg.T (Cfg.Tok_op op) -> Some (fp_token 3 (Ast.op_to_string op))
        | Cfg.T Cfg.Tok_neg -> Some (fp_token 4 "-")
        | Cfg.T (Cfg.Tok_assign | Cfg.Tok_lparen | Cfg.Tok_rparen) | Cfg.NT _ -> None)
      r.rhs
  in
  if n_nt >= 2 then fp_branch :: toks else toks

let fingerprints g =
  let n = Cfg.size g in
  let mult = Array.make n 1 and addend = Array.make n 0 in
  let d_branch = Array.make n false and d_gain = Array.make n false in
  let static = ref true in
  for id = 0 to n - 1 do
    let r = Cfg.rule g id in
    let m, a =
      List.fold_left (fun (m, a) v -> (m * fp_k, (a * fp_k) + v)) (1, 0) (rule_contribution r)
    in
    mult.(id) <- m;
    addend.(id) <- a;
    (* [deep] counts rhs items whose subtree always reaches depth ≥1:
       tensor/const terminals, and expression/tensor nonterminals (whose
       invariant is checked below). Everything the count treats as 0 must
       provably stay 0 (operator subtrees) or never occur where it matters
       (tail/program nonterminals under an expression lhs) — otherwise the
       grammar is flagged non-static and the top-down search rejects it. *)
    let lhs_cat = Cfg.category g r.lhs in
    let deep = ref 0 in
    List.iter
      (fun sym ->
        match sym with
        | Cfg.T (Cfg.Tok_tensor _ | Cfg.Tok_const) -> incr deep
        | Cfg.T _ -> ()
        | Cfg.NT nt -> (
            match Cfg.category g nt with
            | Cfg.Cat_expr | Cfg.Cat_tensor -> incr deep
            | Cfg.Cat_op -> ()
            | Cfg.Cat_tail | Cfg.Cat_program ->
                if lhs_cat = Cfg.Cat_expr then static := false))
      r.rhs;
    d_gain.(id) <- !deep >= 1;
    d_branch.(id) <- lhs_cat = Cfg.Cat_expr && !deep >= 2;
    (match lhs_cat with
    | Cfg.Cat_expr | Cfg.Cat_tensor ->
        (* every expression/tensor expansion must keep a depth-1 item below *)
        if !deep = 0 then static := false
    | Cfg.Cat_op ->
        (* operator subtrees must never grow depth *)
        if
          List.exists
            (function
              | Cfg.T (Cfg.Tok_tensor _ | Cfg.Tok_const) -> true
              | Cfg.T _ -> false
              | Cfg.NT nt -> Cfg.category g nt <> Cfg.Cat_op)
            r.rhs
        then static := false
    | Cfg.Cat_program | Cfg.Cat_tail -> ())
  done;
  { mult; addend; d_branch; d_gain; depth_static = !static }

let rec fp_scan fps acc = function
  | Leaf _ | Open _ -> acc
  | Node (id, ch) -> List.fold_left (fp_scan fps) ((acc * fps.mult.(id)) + fps.addend.(id)) ch

let fingerprint fps x = fp_scan fps fp_seed x

type metrics = {
  tensor_leaves : (string * string list) list;
  n_tensors : int;
  n_unique : int;
  firsts_rev : string list;
  sorted_firsts : bool;
  n_index_i : int;
  has_const_leaf : bool;
  distinct_ops : Ast.op list;
  complete : bool;
}

(* Shared accumulator for the full scan and the incremental extension, so
   the two agree field for field. Leaves must be fed left to right. *)
type macc = {
  mutable m_tensors : (string * string list) list;  (** reversed *)
  mutable m_n_tensors : int;
  mutable m_firsts : string list;  (** reversed *)
  mutable m_sorted : bool;
  mutable m_n_index_i : int;
  mutable m_has_const : bool;  (** a [Tok_const] leaf was seen *)
  mutable m_const_sym : bool;  (** the symbol "Const" was seen (leaf or tensor) *)
  mutable m_n_unique : int;
}

let macc_add_leaf a n idxs =
  a.m_tensors <- (n, idxs) :: a.m_tensors;
  a.m_n_tensors <- a.m_n_tensors + 1;
  if List.mem "i" idxs then a.m_n_index_i <- a.m_n_index_i + 1;
  if String.equal n "Const" then begin
    (* Const does not participate in the alphabetical-order criterion and
       counts once toward [n_unique], whether it came from the dedicated
       terminal or a pathological tensor of that name *)
    if not a.m_const_sym then begin
      a.m_const_sym <- true;
      a.m_n_unique <- a.m_n_unique + 1
    end
  end
  else if not (List.mem n a.m_firsts) then begin
    (match a.m_firsts with
    | [] -> ()
    | prev :: _ -> if String.compare prev n >= 0 then a.m_sorted <- false);
    a.m_firsts <- n :: a.m_firsts;
    a.m_n_unique <- a.m_n_unique + 1
  end

let metrics _g x =
  (* single left-to-right scan over the frontier *)
  let a =
    {
      m_tensors = [];
      m_n_tensors = 0;
      m_firsts = [];
      m_sorted = true;
      m_n_index_i = 0;
      m_has_const = false;
      m_const_sym = false;
      m_n_unique = 0;
    }
  in
  let ops = ref [] in
  let complete = ref true in
  let rec scan = function
    | Open _ -> complete := false
    | Leaf (Cfg.Tok_tensor (n, idxs)) -> macc_add_leaf a n idxs
    | Leaf Cfg.Tok_const ->
        macc_add_leaf a "Const" [];
        a.m_has_const <- true
    | Leaf (Cfg.Tok_op op) -> if not (List.mem op !ops) then ops := op :: !ops
    | Leaf Cfg.Tok_neg -> if not (List.mem Ast.Sub !ops) then ops := Ast.Sub :: !ops
    | Leaf (Cfg.Tok_assign | Cfg.Tok_rparen | Cfg.Tok_lparen) -> ()
    | Node (_, ch) -> List.iter scan ch
  in
  scan x;
  {
    tensor_leaves = List.rev a.m_tensors;
    n_tensors = a.m_n_tensors;
    n_unique = a.m_n_unique;
    firsts_rev = a.m_firsts;
    sorted_firsts = a.m_sorted;
    n_index_i = a.m_n_index_i;
    has_const_leaf = a.m_has_const;
    distinct_ops = List.rev !ops;
    complete = !complete;
  }

(* ---- incrementally-maintained metrics ----

   [metrics] is a full tree scan. Both searches used to rescan at every
   push (and the bottom-up one again at every pop); the scans are the
   search's hot loop. Expansion always rewrites the *leftmost* [Open]
   leaf, and in every grammar this project generates no tensor/constant
   terminal appears to the right of a nonterminal within one rule's rhs —
   so every tensor leaf of a reachable tree lies left of its leftmost
   [Open], and a child's [tensor_leaves] is exactly the parent's with the
   applied rule's tensor terminals appended. [expand_metrics] exploits
   that; [incremental_safe] checks the grammar-level precondition, and
   the searches reject grammars that fail it. *)

type annotated = {
  metrics : metrics;
  n_open : int;
  opens : string list;
  open_paths : int list;
  depth : int;
  fp : int;
}

let collect_opens x =
  let rec go acc = function
    | Open nt -> nt :: acc
    | Leaf _ -> acc
    | Node (_, ch) -> List.fold_left go acc ch
  in
  List.rev (go [] x)

(* Branching-ancestor count per open leaf, in the same left-to-right order
   as [collect_opens]. For a depth-static grammar, the depth of a partial
   tree is the max over "candidates": each tensor/const leaf and each
   expression/tensor open contributes its path count + 1, so the stored
   [depth] can be pushed forward one rule application at a time. *)
let collect_open_paths fps x =
  let rec go p acc = function
    | Open _ -> p :: acc
    | Leaf _ -> acc
    | Node (id, ch) ->
        let p = if fps.d_branch.(id) then p + 1 else p in
        List.fold_left (go p) acc ch
  in
  List.rev (go 0 [] x)

let annotate g fps x =
  let opens = collect_opens x in
  {
    metrics = metrics g x;
    n_open = List.length opens;
    opens;
    open_paths = collect_open_paths fps x;
    depth = depth g x;
    fp = fingerprint fps x;
  }

let rule_safe (r : Cfg.rule) =
  let rec go seen_nt = function
    | [] -> true
    | Cfg.NT _ :: rest -> go true rest
    | Cfg.T (Cfg.Tok_tensor _ | Cfg.Tok_const) :: rest -> (not seen_nt) && go seen_nt rest
    | Cfg.T _ :: rest -> go seen_nt rest
  in
  go false r.rhs

let incremental_safe g = Array.for_all rule_safe (Cfg.rules g)

let expand1 x (r : Cfg.rule) =
  let x', ok = subst_leftmost x (apply_rule r) in
  assert ok;
  x'

let expand_metrics fps (parent : annotated) (r : Cfg.rule) : annotated =
  begin
    let pm = parent.metrics in
    (* the accumulator resumes from the parent's per-leaf facts;
       [m_tensors] starts empty so it collects just the rule's new leaves
       (reversed), keeping the [tensor_leaves] append below cheap *)
    let a =
      {
        m_tensors = [];
        m_n_tensors = pm.n_tensors;
        m_firsts = pm.firsts_rev;
        m_sorted = pm.sorted_firsts;
        m_n_index_i = pm.n_index_i;
        m_has_const = pm.has_const_leaf;
        m_const_sym = pm.n_unique > List.length pm.firsts_rev;
        m_n_unique = pm.n_unique;
      }
    in
    let new_ops = ref [] in
    let new_nts = ref [] in
    let n_open = ref (parent.n_open - 1) in
    (* path count of the node the rule creates (it replaces the head open) *)
    let p' =
      match parent.open_paths with
      | [] -> assert false
      | p :: _ -> if fps.d_branch.(r.id) then p + 1 else p
    in
    List.iter
      (function
        | Cfg.NT n ->
            incr n_open;
            new_nts := n :: !new_nts
        | Cfg.T (Cfg.Tok_tensor (n, idxs)) -> macc_add_leaf a n idxs
        | Cfg.T Cfg.Tok_const ->
            macc_add_leaf a "Const" [];
            a.m_has_const <- true
        | Cfg.T (Cfg.Tok_op op) -> if not (List.mem op !new_ops) then new_ops := op :: !new_ops
        | Cfg.T Cfg.Tok_neg ->
            if not (List.mem Ast.Sub !new_ops) then new_ops := Ast.Sub :: !new_ops
        | Cfg.T (Cfg.Tok_assign | Cfg.Tok_lparen | Cfg.Tok_rparen) -> ())
      r.rhs;
    let tensor_leaves =
      match a.m_tensors with [] -> pm.tensor_leaves | l -> pm.tensor_leaves @ List.rev l
    in
    (* first-appearance order may differ from a fresh scan when an op
       terminal sits right of a nonterminal (EXPR -> EXPR op EXPR); the
       penalties only use membership and length, which agree *)
    let distinct_ops =
      List.fold_left
        (fun acc op -> if List.mem op acc then acc else acc @ [ op ])
        pm.distinct_ops (List.rev !new_ops)
    in
    {
      metrics =
        {
          tensor_leaves;
          n_tensors = a.m_n_tensors;
          n_unique = a.m_n_unique;
          firsts_rev = a.m_firsts;
          sorted_firsts = a.m_sorted;
          n_index_i = a.m_n_index_i;
          has_const_leaf = a.m_has_const;
          distinct_ops;
          complete = !n_open = 0;
        };
      n_open = !n_open;
      (* expansion rewrites the leftmost open leaf — the head of
         [parent.opens] — so the child's ordered open list is the rule's
         nonterminals followed by the parent's remaining opens *)
      opens =
        (match parent.opens with
        | [] -> assert false
        | _ :: rest -> List.rev !new_nts @ rest);
      open_paths =
        (match parent.open_paths with
        | [] -> assert false
        | _ :: rest ->
            let rec add n acc = if n = 0 then acc else add (n - 1) (p' :: acc) in
            add (List.length !new_nts) rest);
      (* only depth-1 items can raise the max: a weight-0 candidate sits at
         p' ≤ parent.depth (the expanded open's own candidate bounded it) *)
      depth = (if fps.d_gain.(r.id) && p' + 1 > parent.depth then p' + 1 else parent.depth);
      fp = (parent.fp * fps.mult.(r.id)) + fps.addend.(r.id);
    }
  end

(* ---- rebuilding the template AST from a complete tree ---- *)

let rec to_expr g (x : t) : Ast.expr option =
  let ( let* ) = Option.bind in
  match x with
  | Leaf (Cfg.Tok_tensor (n, idxs)) -> Some (Ast.Access (n, idxs))
  | Leaf Cfg.Tok_const -> Some (Ast.Access ("Const", []))
  | Leaf _ | Open _ -> None
  | Node (_, ch) -> (
      match ch with
      | [ sub ] -> to_expr g sub
      | [ Leaf Cfg.Tok_neg; sub ] ->
          let* e = to_expr g sub in
          Some (Ast.Neg e)
      | [ Leaf Cfg.Tok_lparen; sub; Leaf Cfg.Tok_rparen ] -> to_expr g sub
      | [ l; mid; r ] -> (
          let* op = op_of g mid in
          let* le = to_expr g l in
          let* re = to_expr g r in
          Some (Ast.Bin (op, le, re)))
      | [ hd; tail ] ->
          (* right-linear chain: TENSOR TAIL *)
          let* hd_e = to_expr g hd in
          fold_tail g hd_e tail
      | _ -> None)

and op_of g (x : t) : Ast.op option =
  match x with
  | Leaf (Cfg.Tok_op op) -> Some op
  | Node (_, [ sub ]) -> op_of g sub
  | _ -> None

and fold_tail g acc (x : t) : Ast.expr option =
  let ( let* ) = Option.bind in
  match x with
  | Node (_, []) -> Some acc (* ε *)
  | Node (_, [ opn; tn ]) ->
      let* op = op_of g opn in
      let* te = to_expr g tn in
      Some (Ast.Bin (op, acc, te))
  | Node (_, [ opn; tn; tail ]) ->
      let* op = op_of g opn in
      let* te = to_expr g tn in
      fold_tail g (Ast.Bin (op, acc, te)) tail
  | _ -> None

let to_program g (x : t) : Ast.program option =
  let ( let* ) = Option.bind in
  match x with
  | Node (_, [ lhs; Leaf Cfg.Tok_assign; rhs ]) ->
      let* lhs_e =
        match lhs with
        | Leaf (Cfg.Tok_tensor (n, idxs)) -> Some (n, idxs)
        | Node (_, [ Leaf (Cfg.Tok_tensor (n, idxs)) ]) -> Some (n, idxs)
        | _ -> None
      in
      let* rhs_e = to_expr g rhs in
      Some { Ast.lhs = lhs_e; rhs = rhs_e }
  | _ -> None

let remove_tail g (x : t) : t option =
  let rec go x =
    match x with
    | Leaf _ -> Some x
    | Open nt ->
        if Cfg.category g nt = Cfg.Cat_tail then
          List.find_map
            (fun (r : Cfg.rule) -> if r.rhs = [] then Some (Node (r.id, [])) else None)
            (Cfg.rules_for g nt)
        else None
    | Node (id, ch) ->
        let rec map_all acc = function
          | [] -> Some (List.rev acc)
          | c :: rest -> (
              match go c with Some c' -> map_all (c' :: acc) rest | None -> None)
        in
        Option.map (fun ch' -> Node (id, ch')) (map_all [] ch)
  in
  if is_complete x then Some x else go x
