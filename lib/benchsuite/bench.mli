(** A lifting benchmark: a legacy mini-C program, its tensor-level
    signature, a ground-truth TACO expression (used to seed the mock LLM
    and to sanity-check the suite — never shown to any synthesizer), and
    calibration metadata. *)

type category = Artificial | Blas | Darknet | Dsp | Mathfu | Simpl_array | Llama

val category_to_string : category -> string

type t = {
  name : string;
  category : category;
  c_source : string;
  signature : Stagg_minic.Signature.t;
  ground_truth : string;
      (** TACO program over the C parameter names; [""] when the kernel has
          no TACO-expressible lifting (such benchmarks exist to exercise
          failure paths) *)
  llm_quality : Stagg_oracle.Llm_client.quality;
}

(** Parsed mini-C function (memoized). @raise Failure on a suite bug. *)
val func : t -> Stagg_minic.Ast.func

(** Parsed ground truth, [None] when not liftable. *)
val truth : t -> Stagg_taco.Ast.program option

val is_real_world : t -> bool

(** [emit_c b p] compiles the TACO program [p] over [b]'s parameters to
    C with {!Stagg_taco.Codegen_c.emit_program}: a function named
    [b.name] whose tensor parameters are [b]'s data parameters (scalars
    and cells as rank 0), writing the output parameter. *)
val emit_c : t -> Stagg_taco.Ast.program -> (string, string) result

(** Constructor used by the suite files. [args] pair each parameter with
    its spec; [out] names the output parameter. *)
val mk :
  name:string ->
  category:category ->
  quality:Stagg_oracle.Llm_client.quality ->
  args:(string * Stagg_minic.Signature.arg_spec) list ->
  out:string ->
  truth:string ->
  string ->
  t

(** Spec shorthands for suite files. *)
val size : string -> string * Stagg_minic.Signature.arg_spec

val scalar : string -> string * Stagg_minic.Signature.arg_spec
val arr : string -> string list -> string * Stagg_minic.Signature.arg_spec
val cell : string -> string * Stagg_minic.Signature.arg_spec
