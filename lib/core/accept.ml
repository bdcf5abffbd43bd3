open Stagg_util
module Validator = Stagg_validate.Validator
module Examples = Stagg_validate.Examples
module Bmc = Stagg_verify.Bmc

type t = {
  bench : string;
  method_label : string;
  started : float;
  (* the search and the validator both run on the calling domain *)
  mutable instantiations : int;
}

let start ~bench ~method_label = { bench; method_label; started = Clock.now (); instantiations = 0 }

let elapsed t = Clock.now () -. t.started

let example_seed ~seed qname = seed lxor Hashtbl.hash (qname, "examples")

let checker ~seed ~qname ~func ~signature =
  let prng = Prng.create ~seed:(example_seed ~seed qname) in
  Examples.generate ~func ~signature ~prng ()
  |> Result.map (fun examples -> Validator.prepare ~signature ~examples)

let equivalent ~func ~signature candidate =
  match Bmc.check ~func ~signature ~candidate () with
  | Bmc.Equivalent -> true
  | Bmc.Not_equivalent _ | Bmc.Inconclusive _ -> false

let validator t ~seed ~func ~signature ~consts ~verify ?batched () =
  checker ~seed ~qname:t.bench ~func ~signature
  |> Result.map (fun checker ->
         let verify concrete = (not verify) || equivalent ~func ~signature concrete in
         fun template ->
           let sol, n =
             Validator.validate_counted ~signature ~checker ~consts ~verify ?batched template
           in
           t.instantiations <- t.instantiations + n;
           sol)

let check t checker p =
  let ok = Validator.check checker p in
  t.instantiations <- t.instantiations + 1;
  ok

let finish t ?(expansions = 0) ?(suppressed = 0) ?(peak_frontier = 0) ?(n_candidates = 0)
    ?(traced = false) ?(trace_templates = 0) ?(warnings = []) ~attempts outcome =
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
    n_candidates;
    instantiations = t.instantiations;
    traced;
    trace_templates;
    warnings;
    failure = (match outcome with Ok _ -> None | Error f -> Some f);
  }
