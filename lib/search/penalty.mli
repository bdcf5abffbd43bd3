(** The domain-specific penalty functions X(x) of §5.1 and §5.2.

    Five criteria for the top-down search (a1–a5) and two for the bottom-up
    search (b1–b2), individually switchable for the Table 2 ablations.
    Infinite penalties mean "never consider" — the searches drop such
    expressions instead of enqueueing them. *)

type criterion = A1 | A2 | A3 | A4 | A5 | B1 | B2

val all_topdown : criterion list
val all_bottomup : criterion list
val criterion_to_string : criterion -> string

type ctx = {
  dim_list : int list;  (** the predicted L, LHS included *)
  ops_available : Stagg_taco.Ast.op list;
      (** operators occurring in the candidate templates — the "operations
          defined in the grammar" of a5/b2 (operators the LLM never
          produced have probability 0 and are effectively undefined) *)
  grammar_has_const : bool;
  enabled : criterion list;
}

(** A context compiled for the search hot loop: criterion membership as
    flat bools, list lengths precomputed. *)
type compiled

val compile : ctx -> compiled

(** [score_compiled k m] — X(x) over every enabled criterion except a4.
    a4 adds 0 or ∞ to a sum of terms ≥ 0, so the total X(x) is
    [infinity] when {!checks_a4} holds and x applies +, − or / to two
    identical operands, and [score_compiled k m] otherwise, bit for bit
    (see {!score}). *)
val score_compiled : compiled -> Node.metrics -> float

(** Can a4 fire on x? It must be enabled and x complete, and two equal
    operands need a repeated tensor symbol (more leaves than distinct
    symbols) and one of +, −, / among x's operators. *)
val checks_a4 : compiled -> Node.metrics -> bool

(** a4's test on a decoded template's right-hand side: some +, − or /
    applied to two syntactically identical operands. *)
val same_operand_addsubdiv : Stagg_taco.Ast.expr -> bool

(** [score ctx m ~program] — the total X(x) with a4 read off the decoded
    template ([program], [None] on partial or undecodable trees); for
    tests and one-off calls. *)
val score : ctx -> Node.metrics -> program:Stagg_taco.Ast.program option -> float

(** Per-grammar tables and reusable scratch for a4 on derivations.
    Mutable: one per search, never shared between domains. *)
type a4_scan

val a4_scan : Stagg_grammar.Cfg.t -> a4_scan

(** [a4_fires s rid rd] — a4's verdict on the complete derivation
    [rid :: rd] (applied rule ids, most recent first): exactly
    {!same_operand_addsubdiv} on the program {!Node.to_program} decodes
    it to, [false] when that is [None]. One pass over the derivation,
    with no tree or program built, except for a derivation holding a
    rule whose rhs is neither one symbol, a prefix minus and one
    symbol, nor three symbols (only bottom-up grammars have such rules):
    that one is decoded. The pass also leaves in [s] a summary of the
    path from [rid]'s node to the root, for {!a4_fires_on_path}. *)
val a4_fires : a4_scan -> int -> int list -> bool

(** [a4_fires_on_path s rid'] — [a4_fires s rid' rd] for the [rd] of
    the last {!a4_fires} call on [s], where [rid'] is another rule for
    the nonterminal that call's [rid] expanded, also without
    nonterminals: a sibling of the same expansion. It folds [rid']'s
    node up the recorded path, one step per ancestor, and reads the
    rest of the derivation not at all. *)
val a4_fires_on_path : a4_scan -> int -> bool
