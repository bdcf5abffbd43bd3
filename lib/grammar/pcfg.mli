(** Probabilistic context-free grammars (paper Defs. 4.2–4.3) and the
    admissible-heuristic machinery of §5.1.

    Probabilities are produced by normalizing per-nonterminal rule weights
    (§4.3). [h] is the maximal probability of deriving any terminal string
    from a nonterminal, computed as a least fixpoint; rule costs are
    [-log2 P], with probability-0 rules costing [infinity] (the search
    never applies them). *)

type t

val cfg : t -> Cfg.t

(** [of_weights g w] normalizes [w] (indexed by rule id) per left-hand
    side, and computes h for every nonterminal id of [g]. A nonterminal
    whose weights are all zero gets uniform probabilities (it would
    otherwise be underivable by accident). *)
val of_weights : Cfg.t -> float array -> t

(** Uniform probabilities for every nonterminal. *)
val uniform : Cfg.t -> t

(** Probability of a rule. *)
val prob : t -> Cfg.rule -> float

(** [-log2 (prob r)]; [infinity] when the probability is 0. *)
val cost : t -> Cfg.rule -> float

(** [h p nt] — the maximal probability of deriving a terminal string from
    the nonterminal id [nt] (§5.1); 0 if no terminal string is derivable
    with positive probability. *)
val h : t -> int -> float

(** [-log2 (h nt)]. *)
val h_cost : t -> int -> float

(** Operators that can actually be produced (positive probability on some
    rule deriving them). *)
val ops_available : t -> Stagg_taco.Ast.op list

(** The start symbol, then one line per rule — lhs and rhs by name —
    with its probability. *)
val pp : Format.formatter -> t -> unit
