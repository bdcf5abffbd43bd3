(** The flags [stagg lift], [stagg suite] and the §8 harness
    ([bench/main.exe]) share, defined once so both executables spell,
    document and parse them alike, and [stagg serve]'s numeric flags,
    which parse through the same {!positive_int}. *)

open Cmdliner

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %s" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs =
  Arg.(
    value
    & opt positive_int (Stagg_util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run on a pool of $(docv) domains. Results are deterministic and identical for any \
           $(docv) (modulo per-query times); 1 runs sequentially on the calling domain.")

let no_analysis =
  Arg.(
    value & flag
    & info [ "no-analysis" ]
        ~doc:
          "Disable the static liftability analysis (fail-fast and search pruning). \
           Solved/attempt outcomes are byte-identical either way; this is the reference the \
           pruning is checked against.")

let with_analysis no_analysis m = if no_analysis then Stagg.Method_.without_analysis m else m

(* [None] keeps the method's own oracle *)
let oracle =
  let parse = function
    | "default" -> Ok None
    | s -> (
        match Stagg.Method_.oracle_of_string s with
        | Some o -> Ok (Some o)
        | None -> Error (`Msg (Printf.sprintf "unknown oracle %s (expected llm|trace|trace+llm)" s)))
  in
  let print fmt o =
    Format.pp_print_string fmt (Option.fold ~none:"default" ~some:Stagg.Method_.oracle_to_string o)
  in
  Arg.(
    value
    & opt (conv (parse, print)) None
    & info [ "oracle" ] ~docv:"ORACLE"
        ~doc:
          "Candidate source: $(b,llm) (the paper's pipeline), $(b,trace) (templates extracted \
           from the kernel's own execution trace — no LLM in the loop), or $(b,trace+llm) \
           (union). $(b,default) keeps the method's own oracle (the $(b,trace)/$(b,trace+llm) \
           methods carry theirs; everything else is $(b,llm)). A run with an explicit \
           $(b,--oracle llm) is byte-identical to one without the flag.")

let with_oracle oracle m = Option.fold ~none:m ~some:(Stagg.Method_.with_oracle m) oracle

let serve_jobs =
  Arg.(
    value
    & opt positive_int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Process up to $(docv) requests concurrently. Identical concurrent requests \
           single-flight through the result cache; 1 (the default) is fully deterministic: \
           responses depend only on the request stream.")

let cache_max =
  Arg.(
    value
    & opt positive_int 1024
    & info [ "cache-max" ] ~docv:"M"
        ~doc:"Result-cache capacity (ready entries; least-recently-used eviction).")
