(** Exact rational numbers over {!Bigint}.

    Values are kept in canonical form: the denominator is strictly positive
    and [gcd num den = 1]. This is the value domain used for all tensor
    contents, interpreter states and verification, mirroring the paper's
    rational-datatype extension of CBMC (§7). *)

type t = private { num : Bigint.t; den : Bigint.t }

val zero : t
val one : t

(** [make num den] normalizes the fraction. @raise Division_by_zero if
    [den] is zero. *)
val make : Bigint.t -> Bigint.t -> t

val of_int : int -> t
val of_ints : int -> int -> t
val of_bigint : Bigint.t -> t

val to_string : t -> string

(** [to_int t] is [Some n] when [t] is an integer that fits in [int]. *)
val to_int : t -> int option

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** @raise Division_by_zero if the divisor is zero. *)
val div : t -> t -> t

val inv : t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool

(** [is_one t] — O(1) test for the constant 1, used by the polynomial
    layer to skip no-op scalings. *)
val is_one : t -> bool
val is_integer : t -> bool
val pp : Format.formatter -> t -> unit

(** Infix operators, for readable arithmetic-heavy code. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
end
