(** The two weighted-A* template enumerators (paper Algorithms 1 and 2).

    Both maintain a priority queue of partial leftmost derivations
    ordered by f(x) = c(x) + g(x) + X(x), expand the leftmost nonterminal
    of the cheapest one, and hand complete templates to a caller-supplied
    validator. Rules with probability 0 (cost ∞) and expressions with
    infinite penalty are never enqueued. *)

type budget = {
  max_attempts : int;  (** validator calls before giving up *)
  max_expansions : int;  (** queue pops before giving up *)
  timeout_s : float;  (** wall-clock limit *)
}

type stats = {
  attempts : int;
  expansions : int;  (** pops doing real work (entries and ghosts); excludes [suppressed] *)
  suppressed : int;
      (** admission-suppressed expansions: doomed complete children never
          enqueued on the frontier, whose keys wait in a second queue and
          are charged to the budget at their baseline pop position.
          Budget caps and the timeout poll tick on
          [expansions + suppressed] (total baseline pops), so enabling
          pruning moves no stop point; see {!search_topdown}. *)
  peak_frontier : int;
      (** the largest frontier length the search reached (entries and
          ghosts; suppressed keys are not counted). Deterministic,
          so it pins the frontier's memory high-water mark: turning the
          analysis prune off enqueues doomed children and raises it. *)
  a4_rejections : int;
      (** complete children a4 kept off the frontier. a4 is decided on
          the derivation ({!Penalty.a4_fires}), with no tree, and only
          for children every other criterion left finite and whose
          metrics allow a match ({!Penalty.checks_a4}); from the second
          such child of one expansion on, by folding the child's rule up
          the path the first one's scan recorded
          ({!Penalty.a4_fires_on_path}). *)
}

(** Which limit ended an unsuccessful search: the deterministic caps
    (validator attempts, queue pops, frontier size) or the wall-clock
    backstop, polled every 64 pops — so a [Timeout] stop always reports
    an expansion count divisible by 64. *)
type stop_reason = Attempts | Expansions | Frontier | Timeout

type 'sol outcome =
  | Solved of 'sol * stats
  | Exhausted of stats  (** queue ran dry *)
  | Budget_exceeded of stop_reason * stats

val stats_of : 'sol outcome -> stats

(** How validated templates are deduplicated. There is one scheme: the
    [seen] probe keys on {!Node.fingerprint} — O(1) per complete tree,
    no printing — and the push of a complete child whose template is
    already validated is replaced by a ghost: a key with no entry, whose
    pop counts the expansion the duplicate's no-op pop would have, so
    attempt/expansion counts and pop order are bit-identical to pushing
    the duplicate. The ghost's f is the child's own, its penalty read off
    its metrics alone: a complete twin was queued, so a4 did not fire on
    the template. A template is ghostable from its validation at the pop
    of a complete entry or the drain of a suppressed one; validated
    through a bottom-up entry's closed tails, from the first complete
    twin queued after that (no twin is queued before it in a grammar
    that derives each template one way, as the generated bottom-up
    grammars do). The type, and the searches' [?dedup], are kept only
    because the lifting benchmark's replay passes them. *)
type dedup = Fingerprint

(** How analysis-pruned (doomed) complete children are absorbed. There
    is one mode: a doomed child is never enqueued on the frontier; its
    (f, tie-break sequence) key and fingerprint go to a second priority
    queue, numbered from the frontier's sequence counter and drained in
    lockstep with it, so the suppressed pop's budget tick lands at
    exactly the position the baseline pop would have. Whether that pop
    also counts an attempt and marks the template seen (always,
    top-down; bottom-up, when the child has the predicted tensor count)
    is decided when the child is suppressed. The type, and the searches' [?prune_mode], are kept only
    because the lifting benchmark's replay passes them. *)
type prune_mode = Prune_admission

(** Top-down search (Algorithm 1): validates templates when a complete
    tree is dequeued; trees deeper than [max_depth] (default 6, §5.1) are
    discarded. The [validate] callback receives the template AST and
    returns a solution to stop the search.

    [?prune] enables analysis-guided pruning ({!Stagg_grammar.Prune}):
    complete children whose template is provably a zero-substitution
    validation are admission-suppressed with the baseline's observable
    effects (attempt counts, dedup marks, budget ticks) reproduced
    exactly, so solved/attempt outcomes are byte-identical with pruning
    on or off — only reported [expansions] (and time) drop.

    Raises [Invalid_argument] unless the grammar is
    {!Node.incremental_safe} and {!Node.depth_static}: child metrics and
    the depth prune are carried incrementally, never rescanned. Every
    grammar the pipeline builds satisfies both.

    [?domains] must be [1] (the default) and raises [Invalid_argument]
    otherwise: the search always runs on the calling domain. The
    parameter is kept only because the lifting benchmark's replay passes
    it. *)
val search_topdown :
  pcfg:Stagg_grammar.Pcfg.t ->
  penalty_ctx:Penalty.ctx ->
  ?max_depth:int ->
  ?dedup:dedup ->
  ?prune:Stagg_grammar.Prune.t ->
  ?prune_mode:prune_mode ->
  ?domains:int ->
  budget:budget ->
  validate:(Stagg_taco.Ast.program -> 'sol option) ->
  unit ->
  'sol outcome

(** Bottom-up search (Algorithm 2): when a dequeued tree has exactly the
    predicted number of tensors, its trailing TAIL nonterminals are erased
    (RemoveTail) and the completed template is validated; expansion then
    continues regardless. [?prune] / [?prune_mode] / [?domains] as in
    {!search_topdown}; the bottom-up penalties never read the rebuilt
    AST, so no completion is decoded before its pop. Raises
    [Invalid_argument] unless the grammar is {!Node.incremental_safe}
    (it need not be depth-static: this search never prunes on depth). *)
val search_bottomup :
  pcfg:Stagg_grammar.Pcfg.t ->
  penalty_ctx:Penalty.ctx ->
  dim_list:int list ->
  ?dedup:dedup ->
  ?prune:Stagg_grammar.Prune.t ->
  ?prune_mode:prune_mode ->
  ?domains:int ->
  budget:budget ->
  validate:(Stagg_taco.Ast.program -> 'sol option) ->
  unit ->
  'sol outcome
