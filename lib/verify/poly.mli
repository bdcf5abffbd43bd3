(** Multivariate polynomials over exact rationals — the symbolic value
    domain of the bounded verifier (§7).

    Canonical representation (sorted monomials, no zero coefficients), so
    structural equality is semantic equality of polynomial functions
    over ℚ. *)

open Stagg_util

type t

val zero : t
val one : t
val const : Rat.t -> t
val of_int : int -> t

(** [var v] — the polynomial consisting of the single variable [v]. *)
val var : string -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val equal : t -> t -> bool

(** [is_const p] is [Some c] iff [p] is the constant [c]. *)
val is_const : t -> Rat.t option

val is_zero : t -> bool

(** [is_one p] — O(1) test for the constant polynomial 1. *)
val is_one : t -> bool

(** Number of monomials. *)
val n_terms : t -> int

val vars : t -> string list
val to_string : t -> string

(** [eval p env] substitutes concrete rationals for all variables.
    @raise Failure on an unbound variable. *)
val eval : t -> (string -> Rat.t) -> Rat.t
