open Stagg_util
module Bench = Stagg_benchsuite.Bench
module Accept = Stagg.Accept

let label = "LLM"

let run ~seed (b : Bench.t) : Stagg.Result_.t =
  let acc = Accept.start ~bench:b.name ~method_label:label in
  let responses =
    let (module Llm) = Stagg.Pipeline.llm_client ~seed b in
    Llm.query ~prompt:(Stagg_oracle.Prompt.build ~c_source:b.c_source)
  in
  let candidates = Stagg_oracle.Response.parse_all responses in
  let n_candidates = List.length candidates in
  let func = Bench.func b in
  match
    Accept.validator acc ~seed ~func ~signature:b.signature
      ~consts:(Stagg_minic.Ast.constants func) ~verify:true ()
  with
  | Error msg -> Accept.finish acc ~n_candidates ~attempts:0 (Error msg)
  | Ok validate ->
      let attempts = ref 0 in
      let solution =
        List.find_map
          (fun candidate ->
            match Stagg_template.Templatize.templatize candidate with
            | None -> None
            | Some template ->
                incr attempts;
                validate template)
          candidates
      in
      Accept.finish acc ~n_candidates ~attempts:!attempts
        (Option.to_result ~none:"no candidate passed validation" solution)

let run_suite ?jobs ~seed benches = Pool.map ?jobs (run ~seed) benches
