(** Dense row-major n-dimensional tensors, polymorphic in the element type.

    Rank 0 is a scalar (shape [[||]], one element). Used with
    {!Stagg_util.Rat} elements for concrete execution and with symbolic
    rational functions during bounded verification. *)

type 'a t

(** [create shape v] allocates a tensor filled with [v].
    @raise Invalid_argument on a negative dimension. *)
val create : int array -> 'a -> 'a t

(** [init shape f] builds a tensor whose element at multi-index [ix] is
    [f ix]. *)
val init : int array -> (int array -> 'a) -> 'a t

val scalar : 'a -> 'a t
val shape : 'a t -> int array
val rank : 'a t -> int

(** Total number of elements. *)
val size : 'a t -> int

(** [get t ix] / [set t ix v] index with a multi-index of length [rank t].
    @raise Invalid_argument on rank mismatch or out-of-bounds. *)
val get : 'a t -> int array -> 'a

val set : 'a t -> int array -> 'a -> unit

(** [get_prefix t buf n] / [set_prefix t buf n v] index with the first [n]
    entries of [buf] — a preallocated fixed-capacity buffer the staged
    evaluators reuse across cells so the hot loops stay allocation-free.
    Checks (and error messages) are identical to {!get}/{!set} with an
    [n]-length index. *)
val get_prefix : 'a t -> int array -> int -> 'a

val set_prefix : 'a t -> int array -> int -> 'a -> unit

(** Flat row-major access. *)
val get_flat : 'a t -> int -> 'a

(** The flat row-major contents (a fresh copy). *)
val to_flat_array : 'a t -> 'a array

(** [of_flat_array shape data] shares nothing with [data].
    @raise Invalid_argument if sizes disagree. *)
val of_flat_array : int array -> 'a array -> 'a t

(** Zero-copy views of the underlying buffers, for the staged evaluator
    ({!Compile}): the returned arrays are the tensor's live storage, not
    copies. Treat them as read-only. *)
val unsafe_data : 'a t -> 'a array

val unsafe_strides : 'a t -> int array
val unsafe_shape : 'a t -> int array
val copy : 'a t -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
val fill : 'a t -> 'a -> unit

(** [iteri f t] calls [f ix v] for every element in row-major order. The
    multi-index array is reused between calls; copy it if you keep it. *)
val iteri : (int array -> 'a -> unit) -> 'a t -> unit

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
