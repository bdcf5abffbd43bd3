(** Trace-guided candidate oracle (no LLM in the loop).

    Instantiates the functorized mini-C interpreter
    ({!Stagg_minic.Interp.Make}) at a {e tracing} value domain whose values
    carry symbolic expression DAGs: a leaf is a flat read of an input
    parameter cell, an interior node an exact-rational arithmetic op.
    Running a kernel once on leaf-initialized buffers leaves, in every
    output cell, a DAG recording precisely how that cell was computed —
    accumulation loops unroll into explicit sums, so no widening or
    fixpoint is needed.

    The extractor then folds the DAG of one {e generic} output cell back
    into a TACO einsum program: flat leaf offsets are decoded through the
    tensor {!Stagg_minic.Signature.shape} into per-axis components, and
    components are mapped to loop-variable names through an injective
    value assignment chosen before the run. Unrolled reductions are
    re-rolled by grouping structurally identical summands and checking
    that the group size equals the product of the candidate reduction
    indices' extents. Everything is repeated under a second, independent
    value assignment at about twice the sizes; only extractions on which
    both runs agree (after canonicalizing reduction-index names) are
    emitted, which de-aliases coincidences such as [A\[i+j\]] or
    size-dependent constants. The second probe runs only when its result
    can change the answer: a refusal from the first probe is returned
    as is, and a first program outside the template space (more than
    four index variables, Fig. 5, or more than 25 RHS tensors) is
    refused as {!Outside_template_space}, since downstream
    templatization would drop it anyway.

    Determinism: both probe assignments are fixed functions of the
    signature and of [Facts.ft_loop_vars] order — no randomness, no
    ambient state — so [skeletons] is a pure function of the kernel text.
    Emitted templates are {e candidates}, not answers: downstream they are
    templatized, fed to the grammar learner exactly like parsed LLM
    responses, and every instantiation is still validated against I/O
    examples, so an over-eager trace can waste search but never corrupt a
    result. *)

open Stagg_util

(** Symbolic expression DAG carried by traced values. [Leaf (p, k)] is the
    initial content of flat cell [k] of parameter [p] (offset in row-major
    cells; scalar data parameters use offset 0). *)
type dag =
  | Leaf of string * int
  | Cst of Rat.t
  | Neg of dag
  | Bin of Stagg_taco.Ast.op * dag * dag

val equal_dag : dag -> dag -> bool
val pp_dag : Format.formatter -> dag -> unit

(** The tracing value domain. Concrete rationals stay concrete (sizes,
    loop counters, constant folding); anything touched by a leaf becomes
    symbolic. Only value-preserving simplifications are performed
    ([0 + x = x], [x - 0 = x], [0 - x = -x], constant folding), so a
    traced DAG evaluates bit-for-bit like the rational interpreter.
    Concrete integers within [Rat.to_int]'s range compute in native ints,
    falling back to [Rat] where an operation would leave that range. *)
module TV : sig
  include Stagg_util.Value.S

  val leaf : string -> int -> t
  val dag_of : t -> dag
end

(** Why the tracer declined to emit a template. Structured — callers
    surface these as warnings, never as panics or bogus templates. *)
type refusal =
  | Scan of string
      (** the store to this base reads an earlier iteration's write
          ({!Stagg_minic.Depend} stencil class) — not an einsum *)
  | Trace_failed of string  (** the traced execution itself errored *)
  | Output_unwritten  (** no store ever reached the output parameter *)
  | Output_read of string
      (** the result depends on the output buffer's initial contents *)
  | No_generic_cell
      (** no written output cell sits at pairwise-distinct loop indices *)
  | No_generic_term  (** a summand group has no per-iteration decode *)
  | Inconsistent of string  (** decodes disagree (within or across runs) *)
  | Outside_template_space of { index_vars : int; rhs_tensors : int }
      (** the first probe's program has more index variables or RHS
          tensors than {!Stagg_template.Templatize.templatize} accepts
          (at most 4 and 25); no second probe is run *)

(** Human-readable form; always prefixed ["trace: "], and the {!Scan}
    case always contains ["trace: scan unsupported"]. *)
val refusal_to_string : refusal -> string

(** [trace_cells f sg ~sizes] runs [f] once on leaf-initialized buffers
    with the given concrete dimension sizes and returns the final DAG of
    every cell of the output parameter (including untouched cells, which
    remain their own [Leaf]). This is the raw tracing layer, exposed for
    the differential test battery. *)
val trace_cells :
  Stagg_minic.Ast.func ->
  Stagg_minic.Signature.t ->
  sizes:(string * int) list ->
  (dag array, refusal) result

(** Evaluate a DAG at concrete inputs. [inputs] must bind every parameter
    mentioned by a leaf to its flat cell array (scalars as 1-cell arrays).
    @raise Not_found on an unbound parameter.
    @raise Division_by_zero as exact rational division does. *)
val eval_dag : inputs:(string * Rat.t array) list -> dag -> Rat.t

(** [skeletons f sg] traces [f] under two independent probe assignments
    and extracts the einsum candidate templates both agree on; the
    second probe is skipped when the first refuses or leaves the
    template space. The resulting programs are over [f]'s real parameter
    names with reduction indices canonically renamed — ready to be
    consumed exactly like parsed LLM candidates. *)
val skeletons :
  Stagg_minic.Ast.func ->
  Stagg_minic.Signature.t ->
  (Stagg_taco.Ast.program list, refusal) result
