open Stagg_util
module Bench = Stagg_benchsuite.Bench
module Accept = Stagg.Accept

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
  let acc = Accept.start ~bench:b.name ~method_label:label in
  (* templates in the library carry no constants, so the constant pool is
     irrelevant *)
  match
    Accept.validator acc ~seed ~func:(Bench.func b) ~signature:b.signature ~consts:[]
      ~verify:true ()
  with
  | Error msg -> Accept.finish acc ~attempts:0 (Error msg)
  | Ok validate ->
      let attempts = ref 0 in
      let solution =
        List.find_map
          (fun template ->
            incr attempts;
            validate template)
          (Lazy.force parsed_library)
      in
      Accept.finish acc ~expansions:!attempts ~attempts:!attempts
        (Option.to_result ~none:"no library template matches" solution)

let run_suite ?jobs ~seed benches =
  (* force the template library before fanning out: concurrent first
     forcing of a lazy from several domains raises [Lazy.Undefined] *)
  ignore (Lazy.force parsed_library);
  Pool.map ?jobs (run ~seed) benches
