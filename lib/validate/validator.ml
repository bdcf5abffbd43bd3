open Stagg_util
open Stagg_template
module Sig = Stagg_minic.Signature
module Tensor = Stagg_taco.Tensor
module Tcompile = Stagg_taco.Compile.Make (Value.Rat_value)

type solution = {
  template : Stagg_taco.Ast.program;
  subst : Subst.t;
  concrete : Stagg_taco.Ast.program;
}

(* ---- prepared examples ----

   Everything example-dependent but program-independent — the tensor
   environment (both as the public assoc list and as a slot-resolved hash
   table the compiled evaluators bind through), the output shape, the
   expected flat output, the cost — is computed once per (signature,
   examples) and reused across every instantiation. Examples are ordered
   cheapest-first (fewest cells) so the first counterexample kills a bad
   substitution as early as possible; the verdict is a conjunction, so the
   order cannot change it. *)

type prepared_example = {
  env : (string * Rat.t Tensor.t) list;
  table : Tcompile.table;  (** [env], resolved once, for the hot bind loop *)
  out_shape : int array;
  expected : Rat.t array;
  cost : int;  (** total input + output cells: evaluation work proxy *)
}

type checker = prepared_example list

let prepare_example ~(signature : Sig.t) (ex : Examples.example) : prepared_example =
  let env =
    List.map
      (fun (name, spec) ->
        let flat = List.assoc name ex.Examples.inputs in
        match spec with
        | Sig.Size _ | Sig.Scalar_data -> (name, Tensor.scalar flat.(0))
        | Sig.Arr _ -> (name, Tensor.of_flat_array (Sig.shape ~sizes:ex.sizes spec) flat))
      signature.args
  in
  let out_shape = Sig.shape ~sizes:ex.sizes (Sig.out_spec signature) in
  let cost =
    Array.length ex.output
    + List.fold_left (fun acc (_, t) -> acc + Tensor.size t) 0 env
  in
  { env; table = Tcompile.table_of_env env; out_shape; expected = ex.output; cost }

let prepare ~signature ~examples : checker =
  List.stable_sort
    (fun a b -> Int.compare a.cost b.cost)
    (List.map (prepare_example ~signature) examples)

(* Does the compiled candidate reproduce every prepared example? Each
   example is slot binding plus an early-exit cell comparison. *)
let check_compiled compiled prepared =
  List.for_all
    (fun pe ->
      Tcompile.run_equal_table compiled ~table:pe.table ~lhs_shape:pe.out_shape
        ~expected:pe.expected)
    prepared

let check prepared p = check_compiled (Tcompile.compile p) prepared

let check_concrete ~signature ~examples p = check (prepare ~signature ~examples) p

(* ---- validator telemetry ----

   Process-wide monotonic counters of the batched path's
   template-compilation traffic. Nothing resets them: a reader that
   wants an interval subtracts two [stats] snapshots. *)

type stats = {
  memo_hits : int;  (** always 0; see the interface *)
  memo_misses : int;  (** always 0; see the interface *)
  template_compiles : int;  (** [compile_template] runs (template-cache misses) *)
  template_cache_hits : int;
  template_cache_evictions : int;  (** LRU entries displaced at the cache cap *)
  template_overflows : int;  (** templates over MAXRANK: per-candidate fallback *)
}

let c_template_compiles = Atomic.make 0
let c_template_cache_hits = Atomic.make 0
let c_template_cache_evictions = Atomic.make 0
let c_template_overflows = Atomic.make 0

let stats () =
  {
    memo_hits = 0;
    memo_misses = 0;
    template_compiles = Atomic.get c_template_compiles;
    template_cache_hits = Atomic.get c_template_cache_hits;
    template_cache_evictions = Atomic.get c_template_cache_evictions;
    template_overflows = Atomic.get c_template_overflows;
  }

(* a no-op; see the interface *)
let clear_memo () = ()

(* ---- the per-domain compiled-template cache ----

   Search re-pops structurally identical complete templates constantly:
   children of one A* parent share the whole completed prefix, the
   FullGrammar template space is benchmark-independent, and the ~20 sweeps
   of a campaign traverse the same frontier. A compiled template is
   env-independent (examples only enter at bind time), so its plan and
   closure tree can be reused across all of them. The cache is
   domain-local ([Domain.DLS]) because a compiled evaluator carries
   mutable scratch that must never be shared across workers; each worker
   domain warms its own copy, which also makes the cache lock-free. *)

let template_cache_max = 8192

(* LRU, not drop-on-full: a server's pool domains live for the whole
   process, and under the old policy the 8192 slots a domain happened to
   compile first were the only templates it would ever cache — every
   later request paid a full recompile per pop. With LRU the cache
   tracks each request's working set; eviction displaces the
   least-recently-hit template (counted, observable in [stats]). The
   cache stays domain-local, so no lock: [Lru.t] is single-domain. *)
let template_cache_key : (string, Tcompile.t) Lru.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Lru.create ~cap:template_cache_max)

(* [None] = the template exceeds the fixed MAXRANK scratch capacity; the
   caller falls back to per-candidate compilation. *)
let compiled_template_for template : Tcompile.t option =
  let cache = Domain.DLS.get template_cache_key in
  let key = Stagg_taco.Pretty.program_to_string template in
  match Lru.find cache key with
  | Some ct ->
      Atomic.incr c_template_cache_hits;
      Some ct
  | None -> (
      match Tcompile.compile_template ~const_symbol:Templatize.const_symbol template with
      | exception Tcompile.Rank_overflow _ ->
          Atomic.incr c_template_overflows;
          None
      | ct ->
          Atomic.incr c_template_compiles;
          (match Lru.add cache key ct with
          | Some _ -> Atomic.incr c_template_cache_evictions
          | None -> ());
          Some ct)

(* The instantiation count is accumulated per call and returned, so no
   shared counter sits on the hot path. *)
let validate_counted ~signature ~(checker : checker) ~consts ?(verify = fun _ -> true)
    ?memo_key:_ ?(batched = true) template =
  let args =
    List.map
      (fun (name, spec) ->
        {
          Subst.name;
          rank = Some (Sig.rank_of_spec spec);
          is_size = (match spec with Sig.Size _ -> true | _ -> false);
        })
      signature.Sig.args
  in
  let out_rank = Sig.rank_of_spec (Sig.out_spec signature) in
  let substs =
    Subst.enumerate_seq ~template ~out:signature.Sig.out ~out_rank ~args ~consts
  in
  let ct = if batched then compiled_template_for template else None in
  let count = ref 0 in
  (* Both arms test the same substitutions in the same order; the batched
     arm only builds the concrete AST for a passing substitution. *)
  let test (subst : Subst.t) =
    incr count;
    let passes =
      match ct with
      | Some ct ->
          Tcompile.rebind ct ~mapping:subst.Subst.tensor_binding ~const:subst.Subst.const_binding;
          check_compiled ct checker
      | None -> check checker (Subst.instantiate template subst)
    in
    if passes then begin
      let concrete = Subst.instantiate template subst in
      if verify concrete then Some { template; subst; concrete } else None
    end
    else None
  in
  let solution = Seq.find_map test substs in
  (solution, !count)

let validate ~signature ~examples ~consts ?verify ?batched template =
  let checker = prepare ~signature ~examples in
  fst (validate_counted ~signature ~checker ~consts ?verify ?batched template)
