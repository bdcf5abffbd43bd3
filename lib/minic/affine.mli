(** Multivariate integer polynomials over program variables.

    The abstract domain of the array-recovery analysis ({!Recover}): index
    expressions like [f*N + i] are represented exactly as polynomials over
    loop counters and size parameters, which is what lets delinearization
    count the indexing variables (paper §4.2.3). *)

type t

val zero : t
val const : int -> t
val var : string -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t

(** [scale k p] multiplies by an integer constant. *)
val scale : int -> t -> t

val equal : t -> t -> bool

(** [is_const p] is [Some k] iff [p] is the constant [k]. *)
val is_const : t -> int option

(** All variables occurring with a nonzero coefficient. *)
val vars : t -> string list

(** [mentions p v] — does [v] occur in [p]? *)
val mentions : t -> string -> bool

(** [subst p v q] replaces every occurrence of variable [v] by [q]. *)
val subst : t -> string -> t -> t

val to_string : t -> string
