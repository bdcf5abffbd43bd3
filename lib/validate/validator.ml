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

let pp_solution fmt s =
  Format.fprintf fmt "%s via %a"
    (Stagg_taco.Pretty.program_to_string s.concrete)
    Subst.pp s.subst

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

   Process-wide counters: verdict-memo traffic (including entries the
   bounded memo evicts, which were previously dropped silently) and
   template-compilation traffic for the batched path.

   The underlying atomics are MONOTONIC — nothing ever writes them
   backwards. [reset_stats] subtracts instead: it snapshots the current
   totals into per-counter baselines and [stats] reports
   [total - baseline]. A reset racing concurrent [Atomic.incr]s can
   therefore never lose an increment (the old [Atomic.set c 0] could:
   an increment landing between the read and the zeroing vanished), and
   two [stats] snapshots always yield an exact interval delta — the
   serve path meters each request that way rather than resetting. *)

type stats = {
  memo_hits : int;
  memo_misses : int;
  memo_evictions : int;  (** entries dropped by generation rotation *)
  template_compiles : int;  (** [compile_template] runs (template-cache misses) *)
  template_cache_hits : int;
  template_cache_evictions : int;  (** LRU entries displaced at the cache cap *)
  template_overflows : int;  (** templates over MAXRANK: per-candidate fallback *)
}

type counter = { total : int Atomic.t; baseline : int Atomic.t }

let counter () = { total = Atomic.make 0; baseline = Atomic.make 0 }
let c_memo_hits = counter ()
let c_memo_misses = counter ()
let c_memo_evictions = counter ()
let c_template_compiles = counter ()
let c_template_cache_hits = counter ()
let c_template_cache_evictions = counter ()
let c_template_overflows = counter ()

let all_counters =
  [
    c_memo_hits;
    c_memo_misses;
    c_memo_evictions;
    c_template_compiles;
    c_template_cache_hits;
    c_template_cache_evictions;
    c_template_overflows;
  ]

let bump c = Atomic.incr c.total
let bump_by c n = if n > 0 then ignore (Atomic.fetch_and_add c.total n)
let read c = Atomic.get c.total - Atomic.get c.baseline

let stats () =
  {
    memo_hits = read c_memo_hits;
    memo_misses = read c_memo_misses;
    memo_evictions = read c_memo_evictions;
    template_compiles = read c_template_compiles;
    template_cache_hits = read c_template_cache_hits;
    template_cache_evictions = read c_template_cache_evictions;
    template_overflows = read c_template_overflows;
  }

let reset_stats () =
  List.iter (fun c -> Atomic.set c.baseline (Atomic.get c.total)) all_counters

(* ---- the cross-sweep validation memo ----

   The ~20 method sweeps of a campaign share one candidate prefix per
   benchmark, so their searches keep producing the same concrete
   programs. The example verdict is a deterministic function of
   (benchmark examples, concrete program) — examples are derived from the
   campaign seed — so it is safe to share across sweeps and across
   domains: memoized or recomputed, the verdict is identical, which keeps
   the harness's any-[--jobs N] determinism guarantee. Keyed by the
   caller-supplied [memo_key] (benchmark + example seed) plus the printed
   concrete program; guarded by a mutex like [Bench.func_cache]. Only the
   example verdict is memoized — never the [verify] (BMC) outcome, which
   is a per-method choice.

   Keyed by the (memo_key, printed program) PAIR, not their
   concatenation: a separator-joined string is ambiguous the moment a
   benchmark id contains the separator, silently sharing verdicts
   between distinct (key, program) pairs. *)

(* Bounded by two-generation rotation rather than the old reject-on-full
   backstop (which silently stopped memoizing for the rest of the
   process — fatal in a long-lived server, where the memo must keep
   admitting the CURRENT request's verdicts). [cur] fills to
   [memo_gen_max]; rotation then demotes it to [old] and discards the
   previous [old] (counted as evictions). Lookups consult both
   generations and re-promote old-generation hits, so any working set
   under [memo_gen_max] keys survives rotation indefinitely, while total
   residency never exceeds 2×[memo_gen_max] — the old 500k backstop.
   Verdicts are deterministic functions of the key, so eviction timing
   can never change an outcome, only recompute it. *)

let memo_gen_max = 250_000

type memo_state = {
  mutable cur : (string * string, bool) Hashtbl.t;
  mutable old : (string * string, bool) Hashtbl.t;
}

let memo = { cur = Hashtbl.create 4096; old = Hashtbl.create 0 }
let memo_lock = Mutex.create ()
let memo_enabled = Atomic.make true
let set_memo_enabled b = Atomic.set memo_enabled b

let clear_memo () =
  Mutex.protect memo_lock (fun () ->
      memo.cur <- Hashtbl.create 4096;
      memo.old <- Hashtbl.create 0)

let memo_size () =
  Mutex.protect memo_lock (fun () -> Hashtbl.length memo.cur + Hashtbl.length memo.old)

(* caller holds [memo_lock] *)
let memo_insert key v =
  Hashtbl.replace memo.cur key v;
  if Hashtbl.length memo.cur >= memo_gen_max then begin
    bump_by c_memo_evictions (Hashtbl.length memo.old);
    memo.old <- memo.cur;
    memo.cur <- Hashtbl.create 4096
  end

let memo_find key =
  Mutex.protect memo_lock (fun () ->
      match Hashtbl.find_opt memo.cur key with
      | Some _ as hit -> hit
      | None -> (
          match Hashtbl.find_opt memo.old key with
          | Some v as hit ->
              memo_insert key v;
              hit
          | None -> None))

let memo_add key v = Mutex.protect memo_lock (fun () -> memo_insert key v)

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
      bump c_template_cache_hits;
      Some ct
  | None -> (
      match Tcompile.compile_template ~const_symbol:Templatize.const_symbol template with
      | exception Tcompile.Rank_overflow _ ->
          bump c_template_overflows;
          None
      | ct ->
          bump c_template_compiles;
          (match Lru.add cache key ct with
          | Some _ -> bump c_template_cache_evictions
          | None -> ());
          Some ct)

(* The instantiation count is accumulated per call and returned, so no
   shared counter sits on the hot path. *)
let validate_counted ~signature ~(checker : checker) ~consts ?(verify = fun _ -> true)
    ?memo_key ?(batched = true) template =
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
  (* Both arms test the same substitutions in the same order with the same
     memo keys — the batched arm prints the would-be concrete program
     directly from the template ([program_to_string_renamed] is
     byte-identical to printing the instantiation) and only builds the
     concrete AST for a passing substitution. *)
  let test (subst : Subst.t) =
    incr count;
    let passes =
      match ct with
      | Some ct -> (
          let rebind_and_check () =
            Tcompile.rebind ct ~mapping:subst.Subst.tensor_binding
              ~const:subst.Subst.const_binding;
            check_compiled ct checker
          in
          match memo_key with
          | Some mk when Atomic.get memo_enabled -> (
              let printed =
                Stagg_taco.Pretty.program_to_string_renamed
                  ~mapping:subst.Subst.tensor_binding ~const:subst.Subst.const_binding
                  ~is_const:Templatize.is_const_symbol template
              in
              let key = (mk, printed) in
              match memo_find key with
              | Some v ->
                  bump c_memo_hits;
                  v
              | None ->
                  bump c_memo_misses;
                  let v = rebind_and_check () in
                  memo_add key v;
                  v)
          | _ -> rebind_and_check ())
      | None -> (
          let concrete = Subst.instantiate template subst in
          match memo_key with
          | Some mk when Atomic.get memo_enabled -> (
              let key = (mk, Stagg_taco.Pretty.program_to_string concrete) in
              match memo_find key with
              | Some v ->
                  bump c_memo_hits;
                  v
              | None ->
                  bump c_memo_misses;
                  let v = check checker concrete in
                  memo_add key v;
                  v)
          | _ -> check checker concrete)
    in
    if passes then begin
      let concrete = Subst.instantiate template subst in
      if verify concrete then Some { template; subst; concrete } else None
    end
    else None
  in
  let solution = Seq.find_map test substs in
  (solution, !count)

let validate ~signature ~examples ~consts ?verify ?memo_key ?batched template =
  let checker = prepare ~signature ~examples in
  fst (validate_counted ~signature ~checker ~consts ?verify ?memo_key ?batched template)
