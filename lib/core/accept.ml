open Stagg_util
module Validator = Stagg_validate.Validator
module Examples = Stagg_validate.Examples
module Bmc = Stagg_verify.Bmc

type t = {
  bench : string;
  method_label : string;
  started : float;
  (* per-phase accumulators; the search, the validator and the verifier
     all run on the calling domain *)
  mutable validate_s : float;
  mutable verify_s : float;
  mutable instantiations : int;
}

let start ~bench ~method_label =
  {
    bench;
    method_label;
    started = Clock.now ();
    validate_s = 0.;
    verify_s = 0.;
    instantiations = 0;
  }

let elapsed t = Clock.now () -. t.started

(* [f ()], its seconds returned alongside: two clock reads *)
let timed t f =
  let t0 = elapsed t in
  let r = f () in
  (r, elapsed t -. t0)

let example_seed ~seed qname = seed lxor Hashtbl.hash (qname, "examples")

let checker ~seed ~qname ~func ~signature =
  let prng = Prng.create ~seed:(example_seed ~seed qname) in
  Examples.generate ~func ~signature ~prng ()
  |> Result.map (fun examples -> Validator.prepare ~signature ~examples)

let equivalent ~func ~signature candidate =
  match Bmc.check ~func ~signature ~candidate () with
  | Bmc.Equivalent -> true
  | Bmc.Not_equivalent _ | Bmc.Inconclusive _ -> false

let validator t ?(memo_scope = "") ~seed ~func ~signature ~consts ~verify ?batched () =
  checker ~seed ~qname:t.bench ~func ~signature
  |> Result.map (fun checker ->
         (* the examples are a function of (qname, example seed), so the
            key scopes the process-wide verdict memo correctly *)
         let memo_key = Printf.sprintf "%s%s#%d" memo_scope t.bench (example_seed ~seed t.bench) in
         let verify concrete =
           (not verify)
           ||
           let ok, dt = timed t (fun () -> equivalent ~func ~signature concrete) in
           t.verify_s <- t.verify_s +. dt;
           ok
         in
         fun template ->
           let (sol, n), dt =
             timed t (fun () ->
                 Validator.validate_counted ~signature ~checker ~consts ~verify ~memo_key ?batched
                   template)
           in
           t.validate_s <- t.validate_s +. dt;
           t.instantiations <- t.instantiations + n;
           sol)

let check t checker p =
  let ok, dt = timed t (fun () -> Validator.check checker p) in
  t.validate_s <- t.validate_s +. dt;
  t.instantiations <- t.instantiations + 1;
  ok

let finish t ?(expansions = 0) ?(suppressed = 0) ?(peak_frontier = 0) ?(pruned_rules = 0)
    ?(n_candidates = 0) ?(traced = false) ?(trace_templates = 0) ?(warnings = []) ~attempts
    outcome =
  {
    Result_.bench = t.bench;
    method_label = t.method_label;
    solved = Result.is_ok outcome;
    solution = Result.to_option outcome;
    time_s = elapsed t;
    attempts;
    expansions;
    suppressed;
    peak_frontier;
    pruned_rules;
    n_candidates;
    validate_s = t.validate_s;
    verify_s = t.verify_s;
    instantiations = t.instantiations;
    traced;
    trace_templates;
    warnings;
    failure = (match outcome with Ok _ -> None | Error f -> Some f);
  }
