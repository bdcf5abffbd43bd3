(** Recursive-descent parser for TACO index notation.

    Accepts the grammar of paper Fig. 5 with the usual precedence
    ([*], [/] bind tighter than [+], [-]; all left-associative), plus two
    notational liberties that real LLM responses take (§4.2): [:=] in place
    of [=], and explicit [sum(i, e)] wrappers, which are erased since
    summation is implicit in TACO over indices missing from the LHS. *)

(** [parse_program s] parses a full assignment [t(i,...) = e]. *)
val parse_program : string -> (Ast.program, string) result

(** @raise Failure with the error message instead of returning [Error]. *)
val parse_program_exn : string -> Ast.program
