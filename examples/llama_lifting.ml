(** Lift the llama benchmark category — the dense kernels of a
    transformer's C inference loop (paper §8 draws 6 queries from
    llama2.cpp) — and show the optimized loop nests the TACO compiler
    substrate emits for each lifting.

    Run with: [dune exec examples/llama_lifting.exe] *)

module Suite = Stagg_benchsuite.Suite
module Bench = Stagg_benchsuite.Bench

let () =
  let kernels = Suite.by_category Bench.Llama in
  Printf.printf "Lifting %d transformer inference kernels\n" (List.length kernels);
  List.iter
    (fun (b : Bench.t) ->
      Printf.printf "\n==== %s ====\n" b.name;
      let r = Stagg.Pipeline.run Stagg.Method_.stagg_td b in
      match r.solution with
      | None ->
          Printf.printf "not lifted (%s)\n" (Option.value ~default:"?" r.failure)
      | Some sol -> (
          Printf.printf "lifted in %.3fs after %d synthesis attempts:\n  %s\n" r.time_s r.attempts
            (Stagg_taco.Pretty.program_to_string sol.concrete);
          match Bench.emit_c b sol.concrete with
          | Ok c -> Printf.printf "compiled kernel:\n%s" c
          | Error e -> Printf.printf "code generation failed: %s\n" e))
    kernels
