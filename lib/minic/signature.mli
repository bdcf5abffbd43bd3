(** Tensor-level signatures for benchmark functions.

    A mini-C function sees only scalars and flat pointers; the signature
    records the tensor view of each parameter — which scalars are dimension
    sizes and how each array is shaped in terms of them — plus which
    parameter receives the output. This is the metadata the validator and
    verifier need to move between the flat C world and the shaped TACO
    world. *)

type arg_spec =
  | Size of string  (** scalar parameter carrying the named dimension size *)
  | Scalar_data  (** scalar data input *)
  | Arr of string list  (** row-major array shaped by the named sizes; [\[\]] is a 1-cell scalar cell *)

type t = {
  args : (string * arg_spec) list;  (** in parameter order *)
  out : string;  (** the parameter the result is stored into *)
}

(** Rank of the tensor view: 0 for scalars, the number of dimensions for
    arrays. *)
val rank_of_spec : arg_spec -> int

(** [shape ~sizes spec] resolves dimension names to concrete sizes.
    @raise Failure on an unknown size name. *)
val shape : sizes:(string * int) list -> arg_spec -> int array

(** Total number of cells of [spec] under [sizes] (1 for scalars). *)
val n_cells : sizes:(string * int) list -> arg_spec -> int

(** All dimension-size names used by the signature. *)
val size_names : t -> string list

val out_spec : t -> arg_spec
