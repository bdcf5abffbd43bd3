(** Context-free grammars over TACO template syntax (paper Def. 4.1).

    Terminals are whole template tokens: a tensor access like [b(i,j)] is a
    single terminal symbol, exactly as the paper's generated grammars quote
    them (Figs. 3, 6, 7). Nonterminals carry a category used by the search
    to compute expression depth and penalties without hard-coding any
    particular grammar.

    Nonterminals are numbered once, by {!make}, densely from 0 to
    [n_nonterminals g - 1] in the order of [~categories]; every layer
    above (the PCFG's h table, the search's open-leaf lists) indexes by
    these ids. Names survive only for printing and tests ({!nt_name},
    {!nt_id}). *)

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

type sym = NT of int  (** nonterminal id *) | T of term

type rule = {
  id : int;
  lhs : int;  (** nonterminal id *)
  rhs : sym list;  (** empty list = epsilon production *)
}

type t

(** [make ~start ~categories prods] numbers the rules in order and the
    nonterminals in [categories] order, skipping those without a
    production. Each production is [(lhs, rhs)], with nonterminals named
    [`N name]. Linear in the size of the grammar.
    @raise Invalid_argument if [start], a production's lhs or a referenced
    nonterminal has no category, or [start] or a referenced nonterminal
    has no production. *)
val make :
  start:string ->
  categories:(string * category) list ->
  (string * [ `N of string | `T of term ] list) list ->
  t

(** The start symbol's id. *)
val start : t -> int

val rules : t -> rule array
val rule : t -> int -> rule

(** The productions of a nonterminal id, in rule order. *)
val rules_for : t -> int -> rule list

val category : t -> int -> category

(** Number of nonterminals; ids run from 0 to this minus 1. *)
val n_nonterminals : t -> int

(** The name of a nonterminal id. *)
val nt_name : t -> int -> string

(** The id of a nonterminal name. A linear scan, for tests and
    printing. @raise Invalid_argument for a name that is not a
    nonterminal of the grammar. *)
val nt_id : t -> string -> int

(** Number of rules. *)
val size : t -> int

val term_to_string : term -> string
val rule_to_string : t -> rule -> string
