(** Partial derivation trees: the states of both A* searches.

    A node is a parse tree whose frontier may contain unexpanded
    nonterminals ([Open]). Expansion rewrites the leftmost [Open] leaf by
    one grammar rule, exactly as in Algorithms 1 and 2. *)

open Stagg_grammar

type t =
  | Leaf of Cfg.term
  | Open of string  (** unexpanded nonterminal *)
  | Node of int * t list  (** applied rule id, children *)

val initial : Cfg.t -> t

(** Name of the leftmost unexpanded nonterminal, if any. *)
val leftmost_open : t -> string option

val is_complete : t -> bool

(** [expansions g x] — all single-step leftmost expansions, with the rule
    applied. Empty when [x] is complete. *)
val expansions : Cfg.t -> t -> (Cfg.rule * t) list

(** [expand1 x r] — the tree obtained by applying rule [r] at [x]'s
    leftmost open leaf (which must exist). Lets the searches keep
    (parent, rule) in the frontier and materialize child trees only when
    an entry is actually popped. *)
val expand1 : t -> Cfg.rule -> t

(** [g_cost p x] — the heuristic g(x): Σ over open leaves of −log₂ h(nt)
    (§5.1), accumulated left to right. 0 when complete. *)
val g_cost : Pcfg.t -> t -> float

(** [g_cost_opens p opens] — the same sum over an ordered open-leaf list
    (see {!annotated}); float-for-float identical to [g_cost] on the tree
    the list came from, in O(open leaves) instead of O(tree). *)
val g_cost_opens : Pcfg.t -> string list -> float

(** Expression depth as defined in §5.1: tensor/constant leaves (and open
    expression-valued leaves) have depth 1; a node of an expression-valued
    rule with ≥2 expression children adds 1; everything else is
    transparent. An O(tree) scan — the penalties never read it, so the
    top-down search computes it only on popped entries (the max-depth
    prune), not per push. *)
val depth : Cfg.t -> t -> int

(** Per-grammar tables for the canonical template fingerprint: a 63-bit
    polynomial hash of the rule-contribution sequence in
    leftmost-derivation (= preorder) order. Two complete trees of the
    same grammar have equal fingerprints iff their {!Stagg_taco.Pretty}
    canonical strings are equal, up to hash collisions (~2⁻⁶³ per pair) —
    rules contribute exactly their AST-carrying terminals plus a
    branching marker, and printing round-trips the AST. The A* [seen]
    probe keys on this instead of printed templates. *)
type fingerprints

(** Precompute the per-rule tables; O(grammar size), once per search. *)
val fingerprints : Cfg.t -> fingerprints

(** Full-tree fingerprint by preorder rescan. Agrees with the
    incrementally-maintained {!annotated}[.fp] on every tree built by
    leftmost expansion. *)
val fingerprint : fingerprints -> t -> int

(** Whether the grammar supports incrementally-maintained depth (see
    {!annotated}[.depth]): operator subtrees provably stay at depth 0,
    expression/tensor subtrees provably reach depth ≥1, and no
    tail/program nonterminal appears under an expression lhs — so each
    rule's contribution to {!depth} is a per-rule constant. Holds for
    every top-down grammar this project generates; the right-linear
    bottom-up grammars fail it (a TAIL's depth depends on where ε is
    taken), but the bottom-up search never prunes on depth. *)
val depth_static : fingerprints -> bool

(** Facts the penalty functions need, computable on partial trees. *)
type metrics = {
  tensor_leaves : (string * string list) list;
      (** tensor/const terminals in left-to-right order; [Const] appears as
          [("Const", \[\])] *)
  n_tensors : int;  (** length of [tensor_leaves] *)
  n_unique : int;
      (** distinct tensor symbols (Const counts once) — the quantity a
          dimension list has one entry per, hence the paper's "length" *)
  firsts_rev : string list;
      (** distinct non-Const tensor symbols, most recent first (reverse
          first-appearance order) *)
  sorted_firsts : bool;
      (** the first-appearance sequence of non-Const symbols is strictly
          sorted — the a3/b1 criterion, maintained in O(1) per leaf *)
  n_index_i : int;  (** leaves whose index list contains ["i"] (a1) *)
  has_const_leaf : bool;
  distinct_ops : Stagg_taco.Ast.op list;
  complete : bool;
}

val metrics : Cfg.t -> t -> metrics

(** Metrics plus the open leaves — count and ordered (left-to-right)
    nonterminal names — and the running fingerprint, carried in the A*
    queue payload so neither pops nor the g(x) of a push rescan the
    tree. [opens] and [fp] are maintained incrementally for every
    grammar: expansion always rewrites the leftmost open leaf, i.e. the
    list's head / the next preorder slot.

    [open_paths] pairs each open leaf with its branching-ancestor count
    (the number of {e depth-adding} rule applications on the path to the
    root), and [depth] carries {!val-depth} of the partial tree forward:
    for a {!depth_static} grammar a rule applied at an open with path
    count [p] yields depth [max parent (p' + 1)] whenever its rhs holds a
    depth-1 item, where [p'] adds the rule's own branch bit — letting the
    top-down search prune on depth without materializing or walking the
    popped tree. For non-static grammars both fields are still maintained
    (and [open_paths] still matches the full-scan walk over the same
    static tables), but [depth] may drift from {!val-depth} and must not
    be used. *)
type annotated = {
  metrics : metrics;
  n_open : int;
  opens : string list;
  open_paths : int list;
  depth : int;
  fp : int;
}

(** Full-scan annotation (the searches' initial node). *)
val annotate : Cfg.t -> fingerprints -> t -> annotated

(** Does every rule keep tensor/constant terminals left of any
    nonterminal in its rhs? True for all grammars this project generates;
    precondition of [expand_metrics]; the searches reject grammars that
    fail it. *)
val incremental_safe : Cfg.t -> bool

(** [expand_metrics fps parent r] — the annotation of the tree obtained
    from [parent]'s tree by applying rule [r] at the leftmost open leaf,
    computed from [parent]'s annotation and [r]'s rhs alone — O(|rhs| +
    tensor leaves), no child tree needed, so pushes don't materialize
    trees at all. Requires an {!incremental_safe} grammar, which the
    searches check on entry. Equal
    to [annotate] on that child except that [distinct_ops] may list the
    same ops in a different first-appearance order (the penalties use
    only membership/length). *)
val expand_metrics : fingerprints -> annotated -> Cfg.rule -> annotated

(** [to_program g x] rebuilds the TACO template AST from a complete tree.
    [None] if [x] has open leaves or an unrecognized rule shape. *)
val to_program : Cfg.t -> t -> Stagg_taco.Ast.program option

(** [remove_tail g x] — Algorithm 2's RemoveTail: if every open leaf is a
    [Cat_tail] nonterminal with an ε rule, close them all and return the
    completed tree. [None] otherwise. *)
val remove_tail : Cfg.t -> t -> t option
