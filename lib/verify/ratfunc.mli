(** Symbolic rational functions p/q over ℚ, and their {!Stagg_util.Value.S}
    instance — the value domain that turns both interpreters into a bounded
    model checker (§7).

    Denominators are formally nonzero polynomials. Equality is decided by
    cross-multiplication (p₁q₂ = p₂q₁ as canonical polynomials), which is
    sound and complete for rational functions without needing multivariate
    gcd. *)

open Stagg_util

type t

val num : t -> Poly.t
val den : t -> Poly.t

(** [make num den]. @raise Division_by_zero when [den] is the zero
    polynomial. *)
val make : Poly.t -> Poly.t -> t

val var : string -> t

include Value.S with type t := t

(** [is_const v] is [Some c] iff [v] is the constant rational [c]. *)
val is_const : t -> Rat.t option

val to_string : t -> string
