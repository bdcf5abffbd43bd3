open Stagg_util
module Bench = Stagg_benchsuite.Bench
module Validator = Stagg_validate.Validator
module Examples = Stagg_validate.Examples

let label = "LLM"

let run ~seed (b : Bench.t) : Stagg.Result_.t =
  let started = Unix.gettimeofday () in
  let validate_s = ref 0. and verify_s = ref 0. and instantiations = ref 0 in
  let finish ~solved ~solution ~attempts ~n_candidates ~failure =
    {
      Stagg.Result_.bench = b.name;
      method_label = label;
      solved;
      solution;
      time_s = Unix.gettimeofday () -. started;
      attempts;
      expansions = 0;
      suppressed = 0;
      pruned_rules = 0;
      n_candidates;
      validate_s = !validate_s;
      verify_s = !verify_s;
      instantiations = !instantiations;
      traced = false;
      trace_templates = 0;
      warnings = [];
      failure;
    }
  in
  let prng = Prng.create ~seed:(seed lxor Hashtbl.hash b.name) in
  let responses =
    match Bench.truth b with
    | Some ground_truth ->
        let (module Llm) =
          Stagg_oracle.Mock_llm.client ~prng ~ground_truth ~quality:b.llm_quality
        in
        Llm.query ~prompt:(Stagg_oracle.Prompt.build ~c_source:b.c_source)
    | None -> []
  in
  let candidates = Stagg_oracle.Response.parse_all responses in
  let func = Bench.func b in
  let eprng = Prng.create ~seed:(seed lxor Hashtbl.hash (b.name, "examples")) in
  match Examples.generate ~func ~signature:b.signature ~prng:eprng () with
  | Error msg ->
      finish ~solved:false ~solution:None ~attempts:0 ~n_candidates:(List.length candidates)
        ~failure:(Some msg)
  | Ok examples -> (
      let consts = Stagg_minic.Ast.constants func in
      let verify concrete =
        let t0 = Unix.gettimeofday () in
        let ok =
          match Stagg_verify.Bmc.check ~func ~signature:b.signature ~candidate:concrete () with
          | Stagg_verify.Bmc.Equivalent -> true
          | _ -> false
        in
        verify_s := !verify_s +. (Unix.gettimeofday () -. t0);
        ok
      in
      (* same (benchmark, example seed) as the pipeline sweeps: verdicts
         land in (and hit) the shared validation memo *)
      let memo_key = Printf.sprintf "%s#%d" b.name (seed lxor Hashtbl.hash (b.name, "examples")) in
      (* the checker depends only on (signature, examples): prepare once
         per benchmark, not once per candidate *)
      let checker = Validator.prepare ~signature:b.signature ~examples in
      let attempts = ref 0 in
      let solution =
        List.find_map
          (fun candidate ->
            match Stagg_template.Templatize.templatize candidate with
            | None -> None
            | Some template ->
                incr attempts;
                let t0 = Unix.gettimeofday () in
                let sol, n =
                  Validator.validate_counted ~signature:b.signature ~checker ~consts ~verify
                    ~memo_key template
                in
                validate_s := !validate_s +. (Unix.gettimeofday () -. t0);
                instantiations := !instantiations + n;
                sol)
          candidates
      in
      match solution with
      | Some sol ->
          finish ~solved:true ~solution:(Some sol) ~attempts:!attempts
            ~n_candidates:(List.length candidates) ~failure:None
      | None ->
          finish ~solved:false ~solution:None ~attempts:!attempts
            ~n_candidates:(List.length candidates)
            ~failure:(Some "no candidate passed validation"))

let run_suite ?jobs ~seed benches = Pool.map ?jobs (run ~seed) benches
