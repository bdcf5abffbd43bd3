(** Arbitrary-precision signed integers.

    A small, dependency-free bignum used as the coefficient domain for exact
    rational arithmetic ({!Rat}) and symbolic verification ({!Stagg_verify}).
    Magnitudes are little-endian arrays of base-2{^30} limbs; values are
    immutable and always normalized (no leading zero limbs, zero has a unique
    representation). *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t

(** [to_int t] is [Some n] if [t] fits in a native [int]. *)
val to_int : t -> int option

(** [to_int_exn t] raises [Failure] if [t] does not fit in a native [int]. *)
val to_int_exn : t -> int

(** [to_small t] is the value of [t] when its magnitude fits in a single
    base-2{^30} limb (that is, |t| < 2{^30}), and [min_int] otherwise — an
    allocation-free probe for {!Rat}'s machine-integer fast path. [min_int]
    never fits in one limb, so the sentinel is unambiguous. *)
val to_small : t -> int

(** [of_string s] parses an optionally-signed decimal literal.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val to_string : t -> string

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is [(q, r)] with [a = q*b + r], [0 <= |r| < |b|], and [r]
    carrying the sign of [a] (truncated division, as in OCaml's [/] and
    [mod]). @raise Division_by_zero if [b] is zero. *)
val divmod : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

(** Greatest common divisor; always non-negative. [gcd zero zero = zero]. *)
val gcd : t -> t -> t

val pow : t -> int -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool

val hash : t -> int
