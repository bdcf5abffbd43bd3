(** Loop-carried dependence classification of stores (GCD + Banerjee).

    Consumes {!Recover.analyze}'s affine access summaries and decides, per
    store, whether the surrounding loop nest computes it pointwise (every
    enclosing counter appears in the index polynomial), as a reduction
    over the counters missing from it, or in a shape the tensor-lifting
    pipeline does not support. Same-base load/store pairs are additionally
    screened with a GCD test and a sign-based Banerjee bound on the
    distance polynomial, flagging constant stencil offsets and possible
    aliasing at loop-varying distance. *)

type classification =
  | Pointwise  (** the index mentions every enclosing loop counter *)
  | Reduction of string list  (** counters summed over (absent from the index) *)
  | Unknown of string  (** analysis could not classify; the reason *)

type store_info = {
  st_base : string;  (** parameter stored into *)
  st_loop_vars : string list;  (** enclosing loop counters, outermost first *)
  st_index : Affine.t option;  (** recovered index polynomial *)
  st_class : classification;
  st_stencils : (string * int) list;
      (** same-base loads at a constant nonzero distance [store − load];
          a positive distance is a loop-carried flow dependence (scan) *)
  st_may_alias : string list;
      (** same-base loads at a loop-varying distance not proven
          independent by either test *)
}

val classification_to_string : classification -> string
val pp_store : Format.formatter -> store_info -> unit

(** [linear_coeff p v] — [Some c] iff [p] is exactly [c·v + p[v:=0]]
    (linear in [v]); the coefficient may be symbolic ([i*M] gives [M]). *)
val linear_coeff : Affine.t -> string -> Affine.t option

(** [gcd_independent d ~loop_vars] — true iff [d = 0] provably has no
    integer solution: all loop-var coefficients are integers, the
    remainder is a constant [k], and [gcd] of the coefficients does not
    divide [k]. Conservative ([false]) on symbolic coefficients. *)
val gcd_independent : Affine.t -> loop_vars:string list -> bool

(** Sign-based Banerjee bound with counters ranging over [0, N): all
    coefficients of one sign and a constant term strictly on the same
    side bound the distance away from zero. *)
val banerjee_independent : Affine.t -> loop_vars:string list -> bool

(** One {!store_info} per recovered store, in syntactic order. *)
val classify : Recover.access list -> store_info list
