(** Imperative loop-nest IR: the target of the {!Lower} "TACO compiler".

    This plays the role of the C kernels the real TACO compiler emits
    (paper §2 and §7): lowered programs are ordinary loop nests over dense
    row-major arrays, executable both concretely and symbolically. Loop
    extents refer to tensor axis sizes symbolically ([Dim_of]), so one
    lowered kernel works for every input size. {!Codegen_c} renders a
    kernel as C. *)

type bound =
  | Dim_of of string * int  (** extent of axis [k] of input tensor [t] *)
  | Out_dim of int  (** extent of axis [k] of the output tensor *)

type exp =
  | Const of Stagg_util.Rat.t
  | Temp of string  (** scalar temporary *)
  | Load of string * string list  (** [Load (t, ["i";"j"])]: t\[i\]\[j\] *)
  | Neg of exp
  | Bin of Ast.op * exp * exp

type stmt =
  | Set_temp of string * exp
  | Accum_temp of string * exp  (** [t += e] *)
  | Store of string list * exp  (** store into the output at these loop vars *)
  | For of string * bound * stmt list  (** [for v in 0..bound-1] *)

type kernel = {
  out_indices : string list;  (** loop variables indexing the output *)
  body : stmt list;
}

module Exec (V : Stagg_util.Value.S) : sig
  (** [run ~env ~out_shape k] executes the kernel. [env] binds input
      tensors; the output tensor is allocated with [out_shape] and
      returned. *)
  val run :
    env:(string * V.t Tensor.t) list -> out_shape:int array -> kernel -> (V.t Tensor.t, string) result
end
