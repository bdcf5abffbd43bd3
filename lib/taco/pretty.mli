(** Pretty-printing of TACO programs back to index-notation syntax.

    Parentheses are inserted only where required by precedence, so
    [parse (print p)] is the identity on ASTs (tested by round-trip
    properties). *)

val program_to_string : Ast.program -> string
