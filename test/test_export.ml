(* Tests for the backend exporters (Codegen_c, Export) and the replay LLM
   client — including the round-trip property: a TACO program compiled to
   C by our backend must be lifted back to an equivalent TACO program. *)

open Stagg_taco
module Sig = Stagg_minic.Signature

let check_bool = Alcotest.(check bool)

let contains_sub sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let parse = Parser.parse_program_exn

(* ---- Codegen_c ---- *)

let gemv_params =
  [
    { Codegen_c.tname = "A"; dims = [ "N"; "M" ] };
    { Codegen_c.tname = "X"; dims = [ "M" ] };
  ]

let gemv_out = { Codegen_c.tname = "R"; dims = [ "N" ] }

let test_codegen_gemv () =
  match
    Codegen_c.emit_program ~name:"gemv" ~params:gemv_params ~out:gemv_out
      (parse "R(i) = A(i,j) * X(j)")
  with
  | Error e -> Alcotest.fail e
  | Ok src ->
      check_bool "signature" true (contains_sub "void gemv(int M, int N, int* A, int* X, int* R)" src);
      check_bool "linearized load" true (contains_sub "A[i * M + j]" src);
      (* and the emitted C parses in our own mini-C frontend *)
      check_bool "emitted C parses" true (Result.is_ok (Stagg_minic.Parser.parse_function src))

let test_codegen_rejects_unknown_tensor () =
  check_bool "unknown tensor" true
    (Result.is_error
       (Codegen_c.emit_program ~name:"f" ~params:[] ~out:gemv_out (parse "R(i) = Z(i)")))

(* What [stagg kernel] prints: every suite ground truth compiles to C
   over its benchmark's own parameters, and the C parses in the mini-C
   frontend. *)
let test_codegen_suite_truths () =
  List.iter
    (fun (b : Stagg_benchsuite.Bench.t) ->
      match Stagg_benchsuite.Bench.truth b with
      | None -> ()
      | Some p -> (
          match Stagg_benchsuite.Bench.emit_c b p with
          | Error e -> Alcotest.fail (b.name ^ ": " ^ e)
          | Ok src ->
              check_bool (b.name ^ ": emitted C parses") true
                (Result.is_ok (Stagg_minic.Parser.parse_function src))))
    Stagg_benchsuite.Suite.all

(* The round-trip property: TACO → (our C backend) → STAGG → equivalent
   TACO. This exercises lowering, code generation, the C frontend, the
   whole synthesis pipeline and the verifier in one loop. *)
let roundtrip taco_src ~params ~out ~sig_args ~quality =
  match Codegen_c.emit_program ~name:"kernel" ~params ~out (parse taco_src) with
  | Error e -> Alcotest.fail ("codegen: " ^ e)
  | Ok c_src -> (
      let bench =
        Stagg_benchsuite.Bench.mk ~name:("roundtrip_" ^ taco_src)
          ~category:Stagg_benchsuite.Bench.Artificial ~quality ~args:sig_args
          ~out:out.Codegen_c.tname ~truth:taco_src c_src
      in
      let r = Stagg.Pipeline.run Stagg.Method_.stagg_td bench in
      match r.solution with
      | Some sol ->
          check_bool (taco_src ^ ": lifted program verifies") true
            (Stagg_verify.Bmc.check
               ~func:(Stagg_benchsuite.Bench.func bench)
               ~signature:bench.signature ~candidate:sol.concrete ()
            = Stagg_verify.Bmc.Equivalent)
      | None -> Alcotest.fail (taco_src ^ ": not lifted back"))

let test_roundtrip_gemv () =
  roundtrip "R(i) = A(i,j) * X(j)" ~params:gemv_params ~out:gemv_out
    ~sig_args:
      [
        Stagg_benchsuite.Bench.size "M";
        Stagg_benchsuite.Bench.size "N";
        Stagg_benchsuite.Bench.arr "A" [ "N"; "M" ];
        Stagg_benchsuite.Bench.arr "X" [ "M" ];
        Stagg_benchsuite.Bench.arr "R" [ "N" ];
      ]
    ~quality:Stagg_oracle.Llm_client.Near

let test_roundtrip_saxpy_like () =
  roundtrip "R(i) = A(i) * B(i) + C(i)"
    ~params:
      [
        { Codegen_c.tname = "A"; dims = [ "N" ] };
        { Codegen_c.tname = "B"; dims = [ "N" ] };
        { Codegen_c.tname = "C"; dims = [ "N" ] };
      ]
    ~out:{ Codegen_c.tname = "R"; dims = [ "N" ] }
    ~sig_args:
      [
        Stagg_benchsuite.Bench.size "N";
        Stagg_benchsuite.Bench.arr "A" [ "N" ];
        Stagg_benchsuite.Bench.arr "B" [ "N" ];
        Stagg_benchsuite.Bench.arr "C" [ "N" ];
        Stagg_benchsuite.Bench.arr "R" [ "N" ];
      ]
    ~quality:Stagg_oracle.Llm_client.Near

(* ---- Export ---- *)

let test_export_numpy_einsum () =
  match Export.to_numpy (parse "R(i) = A(i,j) * X(j)") with
  | Error e -> Alcotest.fail e
  | Ok py ->
      check_bool "einsum emitted" true (contains_sub "np.einsum(\"ij,j->i\", A, X)" py);
      check_bool "def line" true (contains_sub "def lifted(A, X):" py)

let test_export_numpy_elementwise () =
  match Export.to_numpy (parse "R(i) = A(i) + B(i) * s") with
  | Error e -> Alcotest.fail e
  | Ok py -> check_bool "broadcast arithmetic" true (contains_sub "(A) " py || contains_sub "A" py)

let test_export_pytorch () =
  match Export.to_pytorch ~name:"dot" (parse "R = A(i) * B(i)") with
  | Error e -> Alcotest.fail e
  | Ok py -> check_bool "torch backend" true (contains_sub "torch.einsum" py)

let test_export_taco_cpp () =
  match Export.to_taco_cpp ~name:"gemv" (parse "R(i) = A(i,j) * X(j)") with
  | Error e -> Alcotest.fail e
  | Ok cpp ->
      check_bool "IndexVar decl" true (contains_sub "IndexVar i, j;" cpp);
      check_bool "assignment" true (contains_sub "R(i) = (A(i, j) * X(j));" cpp);
      check_bool "compile calls" true (contains_sub "R.compile();" cpp)

(* ---- Replay client ---- *)

let test_replay_lines () =
  let (module C) =
    Stagg_oracle.Replay.of_lines
      [ "# a comment"; ""; "a(i) = b(i)"; "   "; "a(i) = b(i) * 2" ]
  in
  Alcotest.(check (list string)) "comments and blanks dropped"
    [ "a(i) = b(i)"; "a(i) = b(i) * 2" ]
    (C.query ~prompt:"whatever")

let test_replay_file () =
  let path = Filename.temp_file "stagg_replay" ".txt" in
  let oc = open_out path in
  output_string oc "R(i) = Mat1(i,j) * Mat2(j)\n# noise\nR(i) := Mat1(j,i) * Mat2(j)\n";
  close_out oc;
  let (module C) = Stagg_oracle.Replay.of_file path in
  Sys.remove path;
  Alcotest.(check int) "two candidates" 2 (List.length (C.query ~prompt:""))

let () =
  Alcotest.run "stagg_export"
    [
      ( "codegen_c",
        [
          Alcotest.test_case "gemv" `Quick test_codegen_gemv;
          Alcotest.test_case "unknown tensor" `Quick test_codegen_rejects_unknown_tensor;
          Alcotest.test_case "suite ground truths" `Quick test_codegen_suite_truths;
          Alcotest.test_case "round trip: gemv" `Slow test_roundtrip_gemv;
          Alcotest.test_case "round trip: fma" `Slow test_roundtrip_saxpy_like;
        ] );
      ( "export",
        [
          Alcotest.test_case "numpy einsum" `Quick test_export_numpy_einsum;
          Alcotest.test_case "numpy elementwise" `Quick test_export_numpy_elementwise;
          Alcotest.test_case "pytorch" `Quick test_export_pytorch;
          Alcotest.test_case "taco c++" `Quick test_export_taco_cpp;
        ] );
      ( "replay",
        [
          Alcotest.test_case "lines" `Quick test_replay_lines;
          Alcotest.test_case "file" `Quick test_replay_file;
        ] );
    ]
