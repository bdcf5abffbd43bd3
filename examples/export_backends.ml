(** Lift a few kernels and render each for the high-performance backends —
    the end-to-end payoff of lifting (paper §1: access to tensor DSLs and
    their compilers).

    Run with: [dune exec examples/export_backends.exe] *)

module Suite = Stagg_benchsuite.Suite
module Export = Stagg_taco.Export

let () =
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some b -> (
          Printf.printf "==== %s ====\n" name;
          let r = Stagg.Pipeline.run Stagg.Method_.stagg_td b in
          match r.solution with
          | None -> Printf.printf "not lifted\n"
          | Some sol ->
              Printf.printf "lifted: %s\n\n" (Stagg_taco.Pretty.program_to_string sol.concrete);
              (match Export.to_numpy ~name sol.concrete with
              | Ok py -> Printf.printf "-- NumPy --\n%s\n" py
              | Error e -> Printf.printf "NumPy export: %s\n" e);
              (match Export.to_pytorch ~name sol.concrete with
              | Ok py -> Printf.printf "-- PyTorch --\n%s\n" py
              | Error e -> Printf.printf "PyTorch export: %s\n" e);
              (match Export.to_taco_cpp ~name sol.concrete with
              | Ok cpp -> Printf.printf "-- TACO C++ --\n%s\n" cpp
              | Error e -> Printf.printf "TACO export: %s\n" e);
              (* ... and back to plain C through our own TACO backend *)
              match Stagg_benchsuite.Bench.emit_c b sol.concrete with
              | Ok c -> Printf.printf "-- regenerated C (our TACO backend) --\n%s\n" c
              | Error e -> Printf.printf "C backend: %s\n" e))
    [ "art_gemv"; "blas_saxpy"; "dk_mse" ]
