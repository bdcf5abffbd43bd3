(** Recursive-descent parser for TACO index notation.

    Accepts the grammar of paper Fig. 5 with the usual precedence
    ([*], [/] bind tighter than [+], [-]; all left-associative), plus two
    notational liberties that real LLM responses take (§4.2): [:=] in place
    of [=], and explicit [sum(i, e)] wrappers, which are erased since
    summation is implicit in TACO over indices missing from the LHS. *)

(** The deepest nesting accepted: each parenthesis, prefix minus and
    call's argument list opens a level, and the right-hand side's
    outermost operand is level 1. A deeper input is refused as
    [Error "nesting deeper than 256"]. *)
val max_depth : int

(** [parse_program s] parses a full assignment [t(i,...) = e]. *)
val parse_program : string -> (Ast.program, string) result

(** @raise Failure with the error message instead of returning [Error]. *)
val parse_program_exn : string -> Ast.program
