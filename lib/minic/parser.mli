(** Recursive-descent parser for the mini-C subset.

    Parses a single function definition — every benchmark in the suite is
    one function — with C expression precedence, declarations, [for]/[if],
    compound assignment, pointer arithmetic and postfix increment. *)

(** Deepest nesting {!parse_function} accepts: 256 levels. Every
    statement, every conditional [?:] and every operand at unary
    precedence opens a level. So the statements of a block or loop/branch
    body sit one level below the statement holding them, and a
    parenthesised expression, a subscript, a cast or a prefix [-], [!] or
    [*] puts its operand one level below its own: [r\[0\] = ((1));] is
    a statement (level 1) whose right-hand side opens level 2, and its
    innermost [1] sits at level 2 + 2. *)
val max_depth : int

(** [Error] on a lexical or syntax error, and on nesting deeper than
    {!max_depth}, which is reported without parsing past the offending
    token. *)
val parse_function : string -> (Ast.func, string) result
val parse_function_exn : string -> Ast.func
