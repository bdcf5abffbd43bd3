open Stagg_grammar
module Ast = Stagg_taco.Ast

type t = Leaf of Cfg.term | Open of int | Node of int * t list

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
      if Cfg.category g (Cfg.rule g rid).lhs = Cfg.Cat_expr && !expr_children >= 2 then 1 + !m
      else !m

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
  (* per-rule facts [expand_metrics] reads instead of walking the rhs:
     its nonterminals in order (as ids), their count, the operator bits
     its terminals add, and its tensor/const terminals in order, each
     packed by [leaf_code] ([] when it has none) *)
  r_nts : int list array;
  r_n_nts : int array;
  r_ops : int array;
  r_leaves : int list array;
  (* RemoveTail's ε rules, per nonterminal id, and the grammar's
     interned tensor symbols — every tensor name and "Const" — numbered
     in [String.compare] order, so comparing two ids compares the
     names. The tables belong to this value alone: each search builds
     its own. *)
  nt_eps : int array;  (** the ε rule of a [Cat_tail] nonterminal, or -1 *)
  sym_names : string array;
  const_sym : int;  (** the id of "Const" *)
}

let depth_static fps = fps.depth_static

(* One bit per operator; prefix minus counts as [Sub]. *)
let op_bit = function Ast.Add -> 1 | Ast.Sub -> 2 | Ast.Mul -> 4 | Ast.Div -> 8

let term_ops = function
  | Cfg.Tok_op op -> op_bit op
  | Cfg.Tok_neg -> op_bit Ast.Sub
  | Cfg.Tok_tensor _ | Cfg.Tok_const | Cfg.Tok_assign | Cfg.Tok_lparen | Cfg.Tok_rparen -> 0

(* A tensor/const terminal as the incremental metrics read it: its
   symbol id, whether its index list holds "i" (a1), and whether it is
   the dedicated [Tok_const] terminal. *)
let leaf_code sym ~has_i ~term = (sym lsl 2) lor (if has_i then 2 else 0) lor if term then 1 else 0

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

(* The id of the tensor symbol [n] in [names]. A grammar has a handful
   of them, and only table construction and full scans look a name up. *)
let index_of names n =
  let rec go i =
    if i = Array.length names then invalid_arg (Printf.sprintf "Node: unknown tensor symbol %s" n)
    else if String.equal names.(i) n then i
    else go (i + 1)
  in
  go 0

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
  let rules = Cfg.rules g in
  let sym_names =
    Array.fold_left
      (fun acc (r : Cfg.rule) ->
        List.fold_left
          (fun acc s -> match s with Cfg.T (Cfg.Tok_tensor (n, _)) -> n :: acc | _ -> acc)
          acc r.rhs)
      [ "Const" ] rules
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let sym_id = index_of sym_names in
  let const_sym = sym_id "Const" in
  let r_nts =
    Array.map
      (fun (r : Cfg.rule) ->
        List.filter_map (function Cfg.NT nt -> Some nt | Cfg.T _ -> None) r.rhs)
      rules
  in
  {
    mult;
    addend;
    d_branch;
    d_gain;
    depth_static = !static;
    r_nts;
    r_n_nts = Array.map List.length r_nts;
    r_ops =
      Array.map
        (fun (r : Cfg.rule) ->
          List.fold_left
            (fun acc s -> match s with Cfg.T t -> acc lor term_ops t | Cfg.NT _ -> acc)
            0 r.rhs)
        rules;
    r_leaves =
      Array.map
        (fun (r : Cfg.rule) ->
          List.filter_map
            (function
              | Cfg.T (Cfg.Tok_tensor (n, idxs)) ->
                  Some (leaf_code (sym_id n) ~has_i:(List.mem "i" idxs) ~term:false)
              | Cfg.T Cfg.Tok_const -> Some (leaf_code const_sym ~has_i:false ~term:true)
              | Cfg.T _ | Cfg.NT _ -> None)
            r.rhs)
        rules;
    nt_eps =
      Array.init (Cfg.n_nonterminals g) (fun nt ->
          if Cfg.category g nt <> Cfg.Cat_tail then -1
          else
            match List.find_opt (fun (r : Cfg.rule) -> r.rhs = []) (Cfg.rules_for g nt) with
            | Some r -> r.id
            | None -> -1);
    sym_names;
    const_sym;
  }

let sym_name fps id = fps.sym_names.(id)
let sym_id fps n = index_of fps.sym_names n

let rec fp_scan fps acc = function
  | Leaf _ | Open _ -> acc
  | Node (id, ch) -> List.fold_left (fp_scan fps) ((acc * fps.mult.(id)) + fps.addend.(id)) ch

let fingerprint fps x = fp_scan fps fp_seed x

type metrics = {
  n_tensors : int;
  n_unique : int;
  firsts_rev : int list;
  sorted_firsts : bool;
  n_index_i : int;
  has_const_leaf : bool;
  ops : int;
  complete : bool;
}

let n_distinct_ops m =
  (m.ops land 1) + ((m.ops lsr 1) land 1) + ((m.ops lsr 2) land 1) + ((m.ops lsr 3) land 1)

(* Shared accumulator for the full scan and the incremental extension, so
   the two agree field for field. Leaves must be fed left to right. *)
type macc = {
  mutable m_n_tensors : int;
  mutable m_firsts : int list;  (** reversed *)
  mutable m_sorted : bool;
  mutable m_n_index_i : int;
  mutable m_has_const : bool;  (** a [Tok_const] leaf was seen *)
  mutable m_const_sym : bool;  (** the symbol "Const" was seen (leaf or tensor) *)
  mutable m_n_unique : int;
}

(* [List.mem] would compare through [compare_val]; this is an int loop *)
let rec mem_int (x : int) = function [] -> false | y :: rest -> x = y || mem_int x rest

let macc_add_leaf fps a code =
  let sym = code lsr 2 in
  a.m_n_tensors <- a.m_n_tensors + 1;
  if code land 2 <> 0 then a.m_n_index_i <- a.m_n_index_i + 1;
  if code land 1 <> 0 then a.m_has_const <- true;
  if sym = fps.const_sym then begin
    (* Const does not participate in the alphabetical-order criterion and
       counts once toward [n_unique], whether it came from the dedicated
       terminal or a pathological tensor of that name *)
    if not a.m_const_sym then begin
      a.m_const_sym <- true;
      a.m_n_unique <- a.m_n_unique + 1
    end
  end
  else if not (mem_int sym a.m_firsts) then begin
    (* symbol ids follow [String.compare] order, so this is the name
       comparison *)
    (match a.m_firsts with [] -> () | prev :: _ -> if prev >= sym then a.m_sorted <- false);
    a.m_firsts <- sym :: a.m_firsts;
    a.m_n_unique <- a.m_n_unique + 1
  end

let metrics_of_macc a ~ops ~complete =
  {
    n_tensors = a.m_n_tensors;
    n_unique = a.m_n_unique;
    firsts_rev = a.m_firsts;
    sorted_firsts = a.m_sorted;
    n_index_i = a.m_n_index_i;
    has_const_leaf = a.m_has_const;
    ops;
    complete;
  }

let metrics fps x =
  (* single left-to-right scan over the frontier; leaves are looked up
     by name, independently of the per-rule [r_leaves] codes *)
  let a =
    {
      m_n_tensors = 0;
      m_firsts = [];
      m_sorted = true;
      m_n_index_i = 0;
      m_has_const = false;
      m_const_sym = false;
      m_n_unique = 0;
    }
  in
  let ops = ref 0 in
  let complete = ref true in
  let rec scan = function
    | Open _ -> complete := false
    | Leaf t ->
        (match t with
        | Cfg.Tok_tensor (n, idxs) ->
            macc_add_leaf fps a (leaf_code (sym_id fps n) ~has_i:(List.mem "i" idxs) ~term:false)
        | Cfg.Tok_const -> macc_add_leaf fps a (leaf_code fps.const_sym ~has_i:false ~term:true)
        | Cfg.Tok_op _ | Cfg.Tok_neg | Cfg.Tok_assign | Cfg.Tok_rparen | Cfg.Tok_lparen -> ());
        ops := !ops lor term_ops t
    | Node (_, ch) -> List.iter scan ch
  in
  scan x;
  metrics_of_macc a ~ops:!ops ~complete:!complete

(* ---- incrementally-maintained metrics ----

   [metrics] is a full tree scan. Both searches used to rescan at every
   push (and the bottom-up one again at every pop); the scans are the
   search's hot loop. Expansion always rewrites the *leftmost* [Open]
   leaf, and in every grammar this project generates no tensor/constant
   terminal appears to the right of a nonterminal within one rule's rhs —
   so every tensor leaf of a reachable tree lies left of its leftmost
   [Open], and a child's leaf sequence is exactly the parent's with the
   applied rule's tensor terminals appended. [expand_metrics] exploits
   that; [incremental_safe] checks the grammar-level precondition, and
   the searches reject grammars that fail it. *)

type annotated = {
  metrics : metrics;
  n_open : int;
  opens : int list;
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
    metrics = metrics fps x;
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

let rec macc_add_leaves fps a = function
  | [] -> ()
  | code :: rest ->
      macc_add_leaf fps a code;
      macc_add_leaves fps a rest

let rec add_paths n p acc = if n = 0 then acc else add_paths (n - 1) p (p :: acc)

let expand_metrics fps (parent : annotated) (r : Cfg.rule) : annotated =
  let id = r.id in
  let pm = parent.metrics in
  let n_open = parent.n_open - 1 + fps.r_n_nts.(id) in
  let complete = n_open = 0 in
  let ops = pm.ops lor fps.r_ops.(id) in
  (* a rule without tensor/const terminals changes at most the op bits
     and the complete flag, and most change neither: those share the
     parent's record *)
  let metrics =
    match fps.r_leaves.(id) with
    | [] -> if ops = pm.ops && complete = pm.complete then pm else { pm with ops; complete }
    | leaves ->
        (* the accumulator resumes from the parent's per-leaf facts *)
        let a =
          {
            m_n_tensors = pm.n_tensors;
            m_firsts = pm.firsts_rev;
            m_sorted = pm.sorted_firsts;
            m_n_index_i = pm.n_index_i;
            m_has_const = pm.has_const_leaf;
            m_const_sym = pm.n_unique > List.length pm.firsts_rev;
            m_n_unique = pm.n_unique;
          }
        in
        macc_add_leaves fps a leaves;
        metrics_of_macc a ~ops ~complete
  in
  match (parent.opens, parent.open_paths) with
  | _ :: rest, p :: paths ->
      (* path count of the node the rule creates (it replaces the head open) *)
      let p' = if fps.d_branch.(id) then p + 1 else p in
      {
        metrics;
        n_open;
        (* expansion rewrites the leftmost open leaf — the head of
           [parent.opens] — so the child's ordered open list is the rule's
           nonterminals followed by the parent's remaining opens *)
        opens = fps.r_nts.(id) @ rest;
        open_paths = add_paths fps.r_n_nts.(id) p' paths;
        (* only depth-1 items can raise the max: a weight-0 candidate sits at
           p' ≤ parent.depth (the expanded open's own candidate bounded it) *)
        depth = (if fps.d_gain.(id) && p' + 1 > parent.depth then p' + 1 else parent.depth);
        fp = (parent.fp * fps.mult.(id)) + fps.addend.(id);
      }
  | _ -> invalid_arg "Node.expand_metrics: the parent is complete"

(* ---- decoding a leftmost derivation ----

   A leftmost derivation creates internal nodes exactly in preorder, so
   one preorder pass over the applied rules' right-hand sides rebuilds the
   tree: each nonterminal slot takes the next rule of the sequence, or
   stays [Open] once the sequence runs out. *)

let of_derivation g rev_ids =
  let rest = ref (List.rev rev_ids) in
  let rec build nt =
    match !rest with
    | [] -> Open nt
    | id :: tl ->
        rest := tl;
        let r = Cfg.rule g id in
        assert (r.lhs = nt);
        (* an explicit left-to-right loop: children are built in preorder *)
        let rec children = function
          | [] -> []
          | Cfg.T t :: syms -> Leaf t :: children syms
          | Cfg.NT n :: syms ->
              let c = build n in
              c :: children syms
        in
        Node (id, children r.rhs)
  in
  build (Cfg.start g)

let close_tails fps opens rev_ids =
  List.fold_left
    (fun acc nt ->
      match acc with
      | None -> None
      | Some ids ->
          let eps = fps.nt_eps.(nt) in
          if eps < 0 then None else Some (eps :: ids))
    (Some rev_ids) opens

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
