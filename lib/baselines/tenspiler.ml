open Stagg_util
module Bench = Stagg_benchsuite.Bench
module Validator = Stagg_validate.Validator
module Examples = Stagg_validate.Examples

let label = "Tenspiler"

(* The pattern library: the dense tensor operations Tenspiler's target
   DSLs share (elementwise arithmetic, broadcasts, reductions,
   matrix/vector products and their transposes, rank-2 elementwise ops,
   simple contractions). Deliberately no literal-constant patterns and no
   deep composite expressions — the fixed-template weakness §9.2
   attributes to verified-lifting tools. *)
let library =
  [
    (* vector elementwise *)
    "a(i) = b(i)";
    "a(i) = b(i) + c(i)";
    "a(i) = b(i) - c(i)";
    "a(i) = b(i) * c(i)";
    "a(i) = b(i) / c(i)";
    (* scalar broadcast *)
    "a(i) = b(i) * c";
    "a(i) = b * c(i)";
    "a(i) = b(i) + c";
    "a(i) = b(i) - c";
    "a(i) = b(i) / c";
    (* reductions *)
    "a = b(i)";
    "a = b(i,j)";
    "a = b(i) * c(i)";
    "a = b(i) * b(i)";
    "a = b(i) * c(i) * d(i)";
    (* matrix-vector and transposes *)
    "a(i) = b(i,j) * c(j)";
    "a(i) = b(j,i) * c(j)";
    "a(i) = b(i,j)";
    "a(i) = b(j,i)";
    (* axpy-style *)
    "a(i) = b * c(i) + d(i)";
    "a(i) = b(i) + c(i) * d";
    "a(i) = b(i) * c + d(i)";
    (* matrix elementwise / scaling *)
    "a(i,j) = b(i,j) + c(i,j)";
    "a(i,j) = b(i,j) - c(i,j)";
    "a(i,j) = b(i,j) * c(i,j)";
    "a(i,j) = b(i,j) * c";
    "a(i,j) = b(j,i)";
    (* broadcast along a dimension *)
    "a(i,j) = b(i,j) + c(i)";
    "a(i,j) = b(i,j) * c(i)";
    "a(i,j) = b(i,j) + c(j)";
    "a(i,j) = b(i,j) * c(j)";
    (* products *)
    "a(i,j) = b(i) * c(j)";
    "a(i,j) = b(i,k) * c(k,j)";
    "a(i,j) = b(i,k) * c(j,k)";
    "a(i,j) = b(k,i) * c(k,j)";
    (* gemv with accumulate *)
    "a(i) = b(i,j) * c(j) + d(i)";
    (* rank-3 elementwise *)
    "a(i,j,k) = b(i,j,k) * c";
    "a(i,j,k) = b(i,j,k) + c(i,j,k)";
    (* tensor-times-vector / matrix contractions *)
    "a(i,j) = b(i,j,k) * c(k)";
    "a(i,j,k) = b(i,j,l) * c(k,l)";
    (* scaled outer product (GER) *)
    "a(i,j) = b * c(i) * d(j)";
    (* mean/variance normalization *)
    "a(i,j) = (b(i,j) - c(i)) / d(i)";
    (* scaled full reduction *)
    "a = b * c(i,j)";
    (* three-way elementwise product *)
    "a(i) = b(i) * c(i) * d(i)";
    (* linear interpolation *)
    "a(i) = b(i) + (c(i) - b(i)) * d";
  ]

let parsed_library =
  lazy (List.map Stagg_taco.Parser.parse_program_exn library)

let run ~seed (b : Bench.t) : Stagg.Result_.t =
  let started = Unix.gettimeofday () in
  let validate_s = ref 0. and verify_s = ref 0. and instantiations = ref 0 in
  let finish ~solved ~solution ~attempts ~failure =
    {
      Stagg.Result_.bench = b.name;
      method_label = label;
      solved;
      solution;
      time_s = Unix.gettimeofday () -. started;
      attempts;
      expansions = attempts;
      suppressed = 0;
      peak_frontier = 0;
      pruned_rules = 0;
      n_candidates = 0;
      validate_s = !validate_s;
      verify_s = !verify_s;
      instantiations = !instantiations;
      traced = false;
      trace_templates = 0;
      warnings = [];
      failure;
    }
  in
  let func = Bench.func b in
  let eprng = Prng.create ~seed:(seed lxor Hashtbl.hash (b.name, "examples")) in
  match Examples.generate ~func ~signature:b.signature ~prng:eprng () with
  | Error msg -> finish ~solved:false ~solution:None ~attempts:0 ~failure:(Some msg)
  | Ok examples -> (
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
      let memo_key = Printf.sprintf "%s#%d" b.name (seed lxor Hashtbl.hash (b.name, "examples")) in
      (* the checker depends only on (signature, examples): prepare once
         per benchmark, not once per library template *)
      let checker = Validator.prepare ~signature:b.signature ~examples in
      let attempts = ref 0 in
      let solution =
        List.find_map
          (fun template ->
            incr attempts;
            (* templates in the library carry no constants, so the constant
               pool is irrelevant *)
            let t0 = Unix.gettimeofday () in
            let sol, n =
              Validator.validate_counted ~signature:b.signature ~checker ~consts:[] ~verify
                ~memo_key template
            in
            validate_s := !validate_s +. (Unix.gettimeofday () -. t0);
            instantiations := !instantiations + n;
            sol)
          (Lazy.force parsed_library)
      in
      match solution with
      | Some sol ->
          finish ~solved:true ~solution:(Some sol) ~attempts:!attempts ~failure:None
      | None ->
          finish ~solved:false ~solution:None ~attempts:!attempts
            ~failure:(Some "no library template matches"))

let run_suite ?jobs ~seed benches =
  (* force the template library before fanning out: concurrent first
     forcing of a lazy from several domains raises [Lazy.Undefined] *)
  ignore (Lazy.force parsed_library);
  Pool.map ?jobs (run ~seed) benches
