(** Leftmost-derivation rule counting (paper §4.3, Def. 4.6).

    [count_rules g p] finds a parse of the template [p] (a TACO AST whose
    tensor names are the symbolic [a, b, c, ...] and whose constants are
    the [Const] symbol) in the grammar [g] and returns the rule ids used,
    with multiplicity — the multiset of rules in the leftmost derivation.
    A parenthesized rule ([EXPR ::= "(" EXPR ")"], full TACO grammar
    only) never matches: an AST carries no parentheses, and matching it
    would make derivations non-unique.

    Returns [None] when [p] is outside [L(g)] — e.g. a template with a
    parenthesized, non-chain shape is not derivable in a bottom-up grammar
    (§5.2), and its rule counts are simply not collected. *)

val count_rules : Cfg.t -> Stagg_taco.Ast.program -> int list option

(** [weights_of_templates g ts] — the §4.3 weight vector: for each rule,
    how often it occurs in the leftmost derivations of the derivable
    templates. Tensor-producing rules that never occur get the default
    weight 1 ("considered during synthesis with a lower priority");
    all other never-occurring rules keep weight 0 (paper Fig. 3 shows
    operators with probability 0). *)
val weights_of_templates : Cfg.t -> Stagg_taco.Ast.program list -> float array
