(** Quickstart: lift the paper's running example (Fig. 2) end to end,
    narrating every stage of the pipeline (Fig. 1).

    Run with: [dune exec examples/quickstart.exe] *)

open Stagg_util
module Sig = Stagg_minic.Signature

(* The C program of paper Fig. 2: a row-wise dot product,
   Result = Mat1 · Mat2, written with raw pointer walks. *)
let fig2_source =
  {|
void function(int N, int* Mat1, int* Mat2, int* Result){
 int* p_m1;
 int* p_m2;
 int* p_t;
 int i, f;
 p_m1 = Mat1;
 p_t = Result;
 for (f = 0; f < N; f++) {
 *p_t = 0;
 p_m2 = &Mat2[0];
 for (i = 0; i < N; i++)
 *p_t += *p_m1++ * *p_m2++;
 p_t++;
 }
}
|}

let banner title = Printf.printf "\n=== %s ===\n" title

let () =
  banner "input legacy C (paper Fig. 2)";
  print_string fig2_source;

  (* Wrap the program as a benchmark: parameter tensor shapes, the output
     parameter, the ground truth the mock LLM conditions on. *)
  let bench =
    Stagg_benchsuite.Bench.mk ~name:"quickstart_fig2"
      ~category:Stagg_benchsuite.Bench.Artificial ~quality:Stagg_oracle.Llm_client.Near
      ~args:
        [
          Stagg_benchsuite.Bench.size "N";
          Stagg_benchsuite.Bench.arr "Mat1" [ "N"; "N" ];
          Stagg_benchsuite.Bench.arr "Mat2" [ "N" ];
          Stagg_benchsuite.Bench.arr "Result" [ "N" ];
        ]
      ~out:"Result" ~truth:"Result(i) = Mat1(i,j) * Mat2(j)" fig2_source
  in
  let func = Stagg_benchsuite.Bench.func bench in

  banner "① static analysis of the C source";
  List.iter
    (fun a -> Format.printf "  %a@." Stagg_minic.Recover.pp_access a)
    (Stagg_minic.Recover.analyze func);
  Printf.printf "  output parameter: %s\n"
    (Option.value ~default:"?" (Stagg_minic.Dims.output_param func));
  Printf.printf "  LHS dimensionality (array recovery + delinearization): %s\n"
    (match Stagg_minic.Dims.lhs_dim func with Some d -> string_of_int d | None -> "?");

  banner "② LLM candidates and the learned grammar of templates";
  let m = Stagg.Method_.stagg_td in
  (match Stagg.Pipeline.prepare m bench with
  | Error e -> Printf.printf "  preparation failed: %s\n" e
  | Ok prep ->
      Printf.printf "  %d syntactically valid candidates, e.g.:\n" (List.length prep.candidates);
      List.iteri
        (fun k c ->
          if k < 4 then Printf.printf "    %s\n" (Stagg_taco.Pretty.program_to_string c))
        prep.candidates;
      Printf.printf "  predicted dimension list: %s\n"
        (Stagg_template.Dimlist.to_string prep.dim_list);
      Format.printf "  probabilistic grammar of templates:@.%a@." Stagg_grammar.Pcfg.pp prep.pcfg);

  banner "③/④ search, validation and bounded verification";
  let r = Stagg.Pipeline.run m bench in
  Format.printf "  %a@." Stagg.Result_.pp r;
  (match r.solution with
  | None -> ()
  | Some sol ->
      Printf.printf "  winning template:     %s\n"
        (Stagg_taco.Pretty.program_to_string sol.template);
      Format.printf "  winning substitution: %a@." Stagg_template.Subst.pp sol.subst;

      banner "compiled TACO kernel (what the TACO compiler would emit)";
      (match Stagg_benchsuite.Bench.emit_c bench sol.concrete with
      | Ok c -> print_string c
      | Error e -> Printf.printf "  code generation failed: %s\n" e);

      banner "sanity: run both programs on a concrete input";
      let n = 3 in
      let module CI = Stagg_minic.Interp.Make (Value.Rat_value) in
      let module TI = Stagg_taco.Interp.Make (Value.Rat_value) in
      let mat1 = Array.init (n * n) (fun i -> Rat.of_int (i + 1)) in
      let mat2 = Array.init n (fun i -> Rat.of_int (i + 1)) in
      let result = Array.make n Rat.zero in
      (match
         CI.run func
           ~args:
             [
               CI.Scalar (Rat.of_int n); CI.Array (Array.copy mat1); CI.Array (Array.copy mat2);
               CI.Array result;
             ]
       with
      | Ok () ->
          Printf.printf "  C:    [%s]\n"
            (String.concat "; " (Array.to_list (Array.map Rat.to_string result)))
      | Error e -> Printf.printf "  C failed: %s\n" e);
      let env =
        [
          ("Mat1", Stagg_taco.Tensor.of_flat_array [| n; n |] mat1);
          ("Mat2", Stagg_taco.Tensor.of_flat_array [| n |] mat2);
          ("N", Stagg_taco.Tensor.scalar (Rat.of_int n));
          ("Result", Stagg_taco.Tensor.of_flat_array [| n |] result);
        ]
      in
      match TI.run ~env sol.concrete with
      | Ok out ->
          Printf.printf "  TACO: [%s]\n"
            (String.concat "; " (Array.to_list (Array.map Rat.to_string (Stagg_taco.Tensor.to_flat_array out))))
      | Error e -> Printf.printf "  TACO failed: %s\n" e)
