(** Partial derivation trees: the states of both A* searches.

    A node is a parse tree whose frontier may contain unexpanded
    nonterminals ([Open]). Expansion rewrites the leftmost [Open] leaf by
    one grammar rule, exactly as in Algorithms 1 and 2. The searches hold
    a state as its leftmost derivation (the applied rule ids) plus an
    incrementally extended {!annotated}, and decode a tree
    ({!of_derivation}) only where one is read. *)

open Stagg_grammar

type t =
  | Leaf of Cfg.term
  | Open of int  (** unexpanded nonterminal, by {!Cfg} id *)
  | Node of int * t list  (** applied rule id, children *)

val initial : Cfg.t -> t

(** The id of the leftmost unexpanded nonterminal, if any. *)
val leftmost_open : t -> int option

val is_complete : t -> bool

(** [expansions g x] — all single-step leftmost expansions, with the rule
    applied. Empty when [x] is complete. The searches never call it: they
    carry derivations and decode them ({!of_derivation}). It is kept as
    the tree-surgery reference the decoder is tested against. *)
val expansions : Cfg.t -> t -> (Cfg.rule * t) list

(** [of_derivation g rd] — the partial tree of the leftmost derivation
    from [g]'s start symbol whose applied rule ids, most recent first,
    are [rd]; [Open] leaves stand for the nonterminals not yet expanded.
    One preorder pass over the rules' right-hand sides. A popped A*
    entry holds [rd] (one cons onto its parent's list) and decodes only
    where a tree or program is read. Equal to the tree the {!expansions}
    chain builds by applying the same rules. *)
val of_derivation : Cfg.t -> int list -> t


(** Expression depth as defined in §5.1: tensor/constant leaves (and open
    expression-valued leaves) have depth 1; a node of an expression-valued
    rule with ≥2 expression children adds 1; everything else is
    transparent. An O(tree) scan — the penalties never read it, so the
    top-down search computes it only on popped entries (the max-depth
    prune), not per push. *)
val depth : Cfg.t -> t -> int

(** Per-grammar tables: those of the canonical template fingerprint, the
    §5.1 depth tables, and the per-rule facts {!expand_metrics} reads.
    The fingerprint is a 63-bit
    polynomial hash of the rule-contribution sequence in
    leftmost-derivation (= preorder) order. Two complete trees of the
    same grammar have equal fingerprints iff their {!Stagg_taco.Pretty}
    canonical strings are equal, up to hash collisions (~2⁻⁶³ per pair) —
    rules contribute exactly their AST-carrying terminals plus a
    branching marker, and printing round-trips the AST. The A* [seen]
    probe keys on this instead of printed templates. *)
type fingerprints

(** Precompute the per-rule tables and intern the grammar's tensor
    symbols; O(grammar size), once per search. The intern tables belong
    to the returned value, never to the process, so searches on
    different domains never share them. *)
val fingerprints : Cfg.t -> fingerprints

(** {2 Interned symbols}

    Nonterminals are the grammar's own ids ({!Cfg.nt_name});
    {!annotated}[.opens] holds them. Tensor symbols (every tensor name
    of a rule's terminals, and ["Const"]) are numbered here, in
    [String.compare] order of their names, so comparing two ids compares
    the names; {!metrics}[.firsts_rev] holds these ids. *)

(** The name of a tensor symbol id. *)
val sym_name : fingerprints -> int -> string

(** The id of a tensor symbol name. Raises [Invalid_argument] for a name
    that no rule of the grammar mentions. *)
val sym_id : fingerprints -> string -> int

(** [close_tails fps opens rd] — Algorithm 2's RemoveTail on a
    derivation: [opens] is the derivation's ordered open-leaf list
    ({!annotated}), and each one, left to right, is closed by appending
    its ε rule to [rd]. [None] unless every open is a [Cat_tail]
    nonterminal with an ε rule. Decoding the result equals
    {!remove_tail} on the decoded tree. *)
val close_tails : fingerprints -> int list -> int list -> int list option

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
  n_tensors : int;  (** tensor/const terminals *)
  n_unique : int;
      (** distinct tensor symbols (Const counts once) — the quantity a
          dimension list has one entry per, hence the paper's "length" *)
  firsts_rev : int list;
      (** distinct non-Const tensor symbol ids ({!sym_id}), most recent
          first (reverse first-appearance order) *)
  sorted_firsts : bool;
      (** the first-appearance sequence of non-Const symbols is strictly
          sorted — the a3/b1 criterion, maintained in O(1) per leaf *)
  n_index_i : int;  (** leaves whose index list contains ["i"] (a1) *)
  has_const_leaf : bool;
  ops : int;
      (** the distinct operators, one {!op_bit} each; a prefix minus
          counts as [Sub] *)
  complete : bool;
}

(** Full-scan metrics of a tree of [fps]'s grammar; tensor leaves are
    looked up by name ({!sym_id}). *)
val metrics : fingerprints -> t -> metrics

(** [op_bit op] — [op]'s bit in {!metrics}[.ops]. *)
val op_bit : Stagg_taco.Ast.op -> int

(** The number of distinct operators in {!metrics}[.ops]. *)
val n_distinct_ops : metrics -> int

(** Metrics plus the open leaves — count and ordered (left-to-right)
    {!Cfg} nonterminal ids — and the running fingerprint, held by a
    popped A* entry and extended once per child, so neither a pop nor the
    g(x) of a push rescans a tree. [opens] and [fp] are maintained
    incrementally for every grammar: expansion always rewrites the
    leftmost open leaf, i.e. the list's head / the next preorder slot.

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
  opens : int list;
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
    distinct tensors), no child tree needed, so pushes don't materialize
    trees at all. A rule without tensor/const terminals that changes
    neither the operators nor completeness shares [parent]'s metrics
    record. Requires an {!incremental_safe} grammar, which the searches
    check on entry. Equal to [annotate] on that child. Raises
    [Invalid_argument] when [parent] is complete. *)
val expand_metrics : fingerprints -> annotated -> Cfg.rule -> annotated

(** [to_program g x] rebuilds the TACO template AST from a complete tree.
    [None] if [x] has open leaves or an unrecognized rule shape. *)
val to_program : Cfg.t -> t -> Stagg_taco.Ast.program option

(** [remove_tail g x] — Algorithm 2's RemoveTail: if every open leaf is a
    [Cat_tail] nonterminal with an ε rule, close them all and return the
    completed tree. [None] otherwise. The bottom-up search uses
    {!close_tails} on derivations instead; this tree version is kept as
    the reference that one is tested against. *)
val remove_tail : Cfg.t -> t -> t option
