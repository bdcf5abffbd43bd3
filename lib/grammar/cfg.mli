(** Context-free grammars over TACO template syntax (paper Def. 4.1).

    Terminals are whole template tokens: a tensor access like [b(i,j)] is a
    single terminal symbol, exactly as the paper's generated grammars quote
    them (Figs. 3, 6, 7). Nonterminals carry a category used by the search
    to compute expression depth and penalties without hard-coding any
    particular grammar. *)

type term =
  | Tok_tensor of string * string list
      (** tensor access terminal; an empty index list is a scalar tensor *)
  | Tok_const  (** the symbolic constant ["Const"] *)
  | Tok_op of Stagg_taco.Ast.op
  | Tok_assign  (** ["="] *)
  | Tok_lparen
  | Tok_rparen
  | Tok_neg  (** prefix minus (full TACO grammar only) *)

type category =
  | Cat_program
  | Cat_expr  (** expression-valued: contributes to depth *)
  | Cat_op
  | Cat_tensor  (** derives a single tensor/const terminal *)
  | Cat_tail  (** bottom-up continuation nonterminals (nullable) *)

type sym = NT of string | T of term

type rule = {
  id : int;
  lhs : string;
  rhs : sym list;  (** empty list = epsilon production *)
  concrete_syntax : bool;
      (** true for productions that only affect concrete syntax (parens):
          skipped when deriving ASTs for probability learning *)
}

type t

(** [make ~start prods] numbers the rules in order. Each production is
    [(lhs, rhs)]; categories are given per nonterminal.
    @raise Invalid_argument if [start] or a referenced nonterminal has no
    category or no production. *)
val make :
  start:string ->
  categories:(string * category) list ->
  ?concrete_syntax:int list ->
  (string * sym list) list ->
  t

val start : t -> string
val rules : t -> rule array
val rule : t -> int -> rule
val rules_for : t -> string -> rule list
val nonterminals : t -> string list
val category : t -> string -> category

(** [rule_lhs_cat g id] — the category of rule [id]'s left-hand side,
    precomputed at {!make} time: an O(1) array read where
    [category g (rule g id).lhs] walks the category alist. The search's
    depth computation sits on this in its pop loop. *)
val rule_lhs_cat : t -> int -> category

(** Number of rules. *)
val size : t -> int

val term_to_string : term -> string
val rule_to_string : rule -> string
