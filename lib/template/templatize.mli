(** Templatization of candidate solutions (paper §4.2.1, Fig. 4).

    A template is a TACO program whose tensor names are the symbolic
    variables [a, b, c, ...] (LHS first, then RHS tensors in order of first
    appearance), whose index variables are the canonical [i, j, k, l]
    (in order of first appearance, LHS first), and whose constants are the
    symbol [Const] (represented as the 0-ary access [Const]). *)

(** The symbolic-constant tensor name. *)
val const_symbol : string

(** The template space's bounds: at most [max_index_vars] (4) distinct
    index variables and [max_rhs_tensors] (25) distinct RHS tensors. *)
val max_index_vars : int

val max_rhs_tensors : int

(** [templatize p] applies the three passes — tensor templatization, index
    standardization, constant templatization. Returns [None] when the
    candidate needs more than {!max_index_vars} index variables or more
    than {!max_rhs_tensors} distinct RHS tensors (outside the template
    space). *)
val templatize : Stagg_taco.Ast.program -> Stagg_taco.Ast.program option

(** [rename p mapping ~consts] instantiates a template: tensor symbols are
    renamed via [mapping] and each [Const] occurrence is replaced by the
    literal [consts]. @raise Failure on a symbol missing from [mapping]. *)
val rename :
  Stagg_taco.Ast.program ->
  mapping:(string * string) list ->
  const:Stagg_util.Rat.t option ->
  Stagg_taco.Ast.program

(** Tensor symbols of the template in first-appearance order with their
    arities, excluding [Const]. The head is the LHS symbol. *)
val symbols : Stagg_taco.Ast.program -> (string * int) list

(** Does the template mention [Const]? *)
val has_const : Stagg_taco.Ast.program -> bool

(** Arity consistency: every symbol is used with a single arity. *)
val arity_consistent : Stagg_taco.Ast.program -> bool
