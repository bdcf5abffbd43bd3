(* Differential and end-to-end battery for the trace-guided candidate
   oracle (Stagg_oracle.Trace).

   The load-bearing property is the QCheck differential: the symbolic DAG
   the tracing domain records for every output cell, evaluated at concrete
   inputs, must equal what the rational-domain interpreter computes on the
   same inputs bit for bit. Everything downstream (skeleton extraction,
   the Trace/Trace+LLM method rows) rests on that faithfulness. *)

module Suite = Stagg_benchsuite.Suite
module Bench = Stagg_benchsuite.Bench
module Trace = Stagg_oracle.Trace
module Sign = Stagg_minic.Signature
module Rat = Stagg_util.Rat
module Prng = Stagg_util.Prng
module RI = Stagg_minic.Interp.Make (Stagg_util.Value.Rat_value)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains_sub sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let bench name = Option.get (Suite.find name)
let skeletons_of b = Trace.skeletons (Bench.func b) b.Bench.signature

(* ---- QCheck differential: traced DAGs vs the rational interpreter ---- *)

(* One trial: pick a suite kernel and a salt; trace it at random small
   sizes, then run the concrete interpreter at random data over the SAME
   sizes and check every output cell against its DAG. Kernels the tracer
   refuses contribute nothing here (their refusals are unit-tested below);
   concrete runs that fail (e.g. a random zero divisor in [hi - lo]) are
   discarded, not failed. *)
let qcheck_dag_matches_interp =
  let arb =
    QCheck.make
      QCheck.Gen.(pair (int_bound (List.length Suite.all - 1)) (int_bound 1_000_000))
      ~print:(fun (i, salt) ->
        Printf.sprintf "%s / salt %d" (List.nth Suite.all i).Bench.name salt)
  in
  QCheck.Test.make ~name:"traced DAG evaluates bit-for-bit like the rational interpreter"
    ~count:150 arb (fun (i, salt) ->
      let b = List.nth Suite.all i in
      let func = Bench.func b in
      let prng = Prng.create ~seed:(salt + 1) in
      let sizes =
        List.map (fun nm -> (nm, 2 + Prng.int prng 3)) (Sign.size_names b.signature)
      in
      match Trace.trace_cells func b.signature ~sizes with
      | Error _ -> true
      | Ok dags ->
          let rand_cell () =
            let v = 1 + Prng.int prng 9 in
            Rat.of_int (if Prng.bool prng then v else -v)
          in
          (* initial contents of EVERY parameter, the output buffer
             included — accumulating kernels read it, and the DAG's leaves
             name those initial cells explicitly *)
          let inputs =
            List.map
              (fun (p, spec) ->
                match spec with
                | Sign.Size nm -> (p, [| Rat.of_int (List.assoc nm sizes) |])
                | Sign.Scalar_data -> (p, [| rand_cell () |])
                | Sign.Arr _ ->
                    (p, Array.init (Sign.n_cells ~sizes spec) (fun _ -> rand_cell ())))
              b.signature.args
          in
          let args =
            List.map
              (fun (p, spec) ->
                let cells = List.assoc p inputs in
                match spec with
                | Sign.Size _ | Sign.Scalar_data -> RI.Scalar cells.(0)
                | Sign.Arr _ -> RI.Array (Array.copy cells))
              b.signature.args
          in
          match RI.run func ~args with
          | Error _ -> QCheck.assume_fail ()
          | Ok () ->
              let out_cells =
                let rec go specs args =
                  match (specs, args) with
                  | (p, _) :: _, a :: _ when p = b.signature.out -> (
                      match a with RI.Array c -> c | RI.Scalar v -> [| v |])
                  | _ :: ss, _ :: aa -> go ss aa
                  | _ -> assert false
                in
                go b.signature.args args
              in
              Array.length dags = Array.length out_cells
              && Array.for_all2
                   (fun dag cell -> Rat.equal (Trace.eval_dag ~inputs dag) cell)
                   dags out_cells)

(* ---- TV concrete arithmetic agrees with Rat ---- *)

(* Concrete TV values take a native-int path that must be invisible: every
   operation agrees with exact rational arithmetic, and a concrete result
   is the same value [TV.of_rat] builds from its rational (so the int
   representation is canonical). Operands cluster where the int path
   switches to [Rat]: 0, +-1, +-2^30, +-2^31 and the ends of the native
   range, plus non-integer rationals. *)
let qcheck_tv_matches_rat =
  let open QCheck.Gen in
  let int_gen =
    let base =
      oneofl
        [ 0; 1; -1; 1 lsl 30; -(1 lsl 30); 1 lsl 31; -(1 lsl 31); max_int / 2; -(max_int / 2);
          max_int; min_int ]
    in
    (* the offset wraps around at the ends of the range: still an int *)
    map2 ( + ) base (int_range (-3) 3)
  in
  let rat_gen =
    oneof
      [
        map Rat.of_int int_gen;
        map2 (fun n d -> Rat.of_ints n d) (int_range (-9) 9) (oneofl [ 2; 3; -7 ]);
        map2 (fun n d -> Rat.div (Rat.of_int n) (Rat.of_int d)) int_gen
          (oneofl [ 1; 2; -1; 1 lsl 31 ]);
        map (fun n -> Rat.mul (Rat.of_int n) (Rat.of_int 4)) int_gen;
      ]
  in
  let arb =
    QCheck.make (triple rat_gen rat_gen int_gen) ~print:(fun (a, b, n) ->
        Printf.sprintf "(%s, %s, %d)" (Rat.to_string a) (Rat.to_string b) n)
  in
  let as_rat v = match Trace.TV.dag_of v with Trace.Cst r -> r | _ -> assert false in
  let same v r = Rat.equal (as_rat v) r && Trace.TV.equal v (Trace.TV.of_rat r) in
  let agree tv_op rat_op a b =
    match rat_op a b with
    | r -> same (tv_op (Trace.TV.of_rat a) (Trace.TV.of_rat b)) r
    | exception Division_by_zero -> (
        match tv_op (Trace.TV.of_rat a) (Trace.TV.of_rat b) with
        | _ -> false
        | exception Division_by_zero -> true)
  in
  QCheck.Test.make ~name:"TV concrete arithmetic agrees with Rat" ~count:2000 arb (fun (a, b, n) ->
      let ta = Trace.TV.of_rat a and tb = Trace.TV.of_rat b in
      let sign c = Int.compare c 0 in
      agree Trace.TV.add Rat.add a b
      && agree Trace.TV.sub Rat.sub a b
      && agree Trace.TV.mul Rat.mul a b
      && agree Trace.TV.div Rat.div a b
      && agree Trace.TV.div Rat.div a Rat.zero
      && same (Trace.TV.neg ta) (Rat.neg a)
      && Option.map sign (Trace.TV.compare_concrete ta tb) = Some (sign (Rat.compare a b))
      && Trace.TV.to_int ta = Rat.to_int a
      && Trace.TV.equal ta tb = Rat.equal a b
      && same (Trace.TV.of_int n) (Rat.of_int n))

(* ---- skeleton extraction over the artificial suite ---- *)

let test_artificial_skeletons () =
  List.iter
    (fun (b : Bench.t) ->
      match skeletons_of b with
      | Ok (_ :: _) -> ()
      | Ok [] -> Alcotest.failf "%s: empty skeleton list" b.name
      | Error r -> Alcotest.failf "%s: refused: %s" b.name (Trace.refusal_to_string r))
    Suite.artificial

(* ---- pinned end-to-end: the Trace method row, no LLM in the loop ---- *)

let test_trace_solves_artificial () =
  List.iter
    (fun (b : Bench.t) ->
      let r = Stagg.Pipeline.run Stagg.Method_.td_trace b in
      check_string (b.name ^ " label") "Trace" r.Stagg.Result_.method_label;
      check_bool (b.name ^ " solved by Trace") true r.solved;
      check_bool (b.name ^ " traced") true r.traced;
      check_bool (b.name ^ " emitted templates") true (r.trace_templates >= 1))
    Suite.artificial

let test_trace_refuses_diagnostics_e2e () =
  (* with the static fail-fast on, the analysis rejects these before the
     oracle is ever consulted — run with it off so the refusal itself is
     what surfaces, as a structured failure, never a panic or a template *)
  let m = { Stagg.Method_.td_trace with analysis = false } in
  List.iter
    (fun (b : Bench.t) ->
      let r = Stagg.Pipeline.run m b in
      check_bool (b.name ^ " unsolved under Trace") false r.Stagg.Result_.solved;
      check_bool (b.name ^ " not traced") false r.traced;
      check_int (b.name ^ " no templates") 0 r.trace_templates;
      check_bool
        (b.name ^ " surfaces the refusal")
        true
        (List.exists (contains_sub "trace: ") r.warnings
        || (match r.failure with Some f -> contains_sub "trace: " f | None -> false)))
    Suite.diagnostics

(* ---- Trace+LLM is a superset of plain LLM on pinned queries ---- *)

let test_trace_llm_superset () =
  let pinned = Suite.artificial @ [ bench "dk_mse"; bench "sa_norm_ratio" ] in
  List.iter
    (fun (b : Bench.t) ->
      let r_llm = Stagg.Pipeline.run Stagg.Method_.stagg_td b in
      let r_both = Stagg.Pipeline.run Stagg.Method_.td_trace_llm b in
      check_string (b.name ^ " label") "Trace+LLM" r_both.Stagg.Result_.method_label;
      if r_llm.Stagg.Result_.solved then
        check_bool (b.name ^ " Trace+LLM retains the LLM solve") true r_both.solved)
    pinned

(* ---- byte-identity: an explicit Oracle_llm is a no-op ---- *)

let test_oracle_llm_identity () =
  (* the method record itself is unchanged... *)
  check_bool "with_oracle Oracle_llm is the identity on the method" true
    (Stagg.Method_.with_oracle Stagg.Method_.stagg_td Stagg.Method_.Oracle_llm
    = Stagg.Method_.stagg_td);
  (* ...and so is every observable outcome of a run (instantiation counts
     are skipped: the validator memo is process-wide, so the second of two
     identical runs legitimately instantiates less) *)
  List.iter
    (fun name ->
      let b = bench name in
      let r1 = Stagg.Pipeline.run Stagg.Method_.stagg_td b in
      let r2 =
        Stagg.Pipeline.run
          (Stagg.Method_.with_oracle Stagg.Method_.stagg_td Stagg.Method_.Oracle_llm)
          b
      in
      let sol r =
        match r.Stagg.Result_.solution with
        | Some s -> Stagg_taco.Pretty.program_to_string s.Stagg_validate.Validator.concrete
        | None -> "<none>"
      in
      check_bool (name ^ " solved identical") true (r1.Stagg.Result_.solved = r2.solved);
      check_int (name ^ " attempts identical") r1.attempts r2.attempts;
      check_int (name ^ " expansions identical") r1.expansions r2.expansions;
      check_int (name ^ " candidates identical") r1.n_candidates r2.n_candidates;
      check_int (name ^ " suppressed identical") r1.suppressed r2.suppressed;
      check_string (name ^ " solution identical") (sol r1) (sol r2);
      check_bool (name ^ " neither traced") false (r1.traced || r2.traced);
      check_int (name ^ " no trace templates") 0 (r1.trace_templates + r2.trace_templates);
      check_bool (name ^ " warnings identical") true (r1.warnings = r2.warnings))
    [ "art_gemm"; "art_dot"; "dk_mse" ]

(* ---- structured refusals on the diagnostic kernels ---- *)

let test_diagnostic_refusals () =
  let refusal name =
    match skeletons_of (bench name) with
    | Ok _ -> Alcotest.failf "%s: expected a refusal, got templates" name
    | Error r ->
        let s = Trace.refusal_to_string r in
        check_bool (name ^ " message prefixed") true (contains_sub "trace: " s);
        (r, s)
  in
  (match refusal "diag_prefix_sum" with
  | Trace.Scan _, s ->
      check_bool "scan message" true (contains_sub "trace: scan unsupported" s)
  | _, s -> Alcotest.failf "diag_prefix_sum: expected Scan, got %s" s);
  (match refusal "diag_mod" with
  | Trace.Trace_failed _, _ -> ()
  | _, s -> Alcotest.failf "diag_mod: expected Trace_failed, got %s" s);
  (match refusal "diag_relu" with
  | Trace.Trace_failed _, _ -> ()
  | _, s -> Alcotest.failf "diag_relu: expected Trace_failed, got %s" s);
  match refusal "diag_no_store" with
  | Trace.Output_unwritten, _ -> ()
  | _, s -> Alcotest.failf "diag_no_store: expected Output_unwritten, got %s" s

(* ---- robustness on hand-written kernels ---- *)

let sig1 =
  { Sign.args = [ ("n", Sign.Size "n"); ("A", Sign.Arr [ "n" ]); ("R", Sign.Arr [ "n" ]) ];
    out = "R" }

let skel src = Trace.skeletons (Stagg_minic.Parser.parse_function_exn src) sig1

(* ---- the interpreter's symbolic-domain errors, pinned ---- *)

let test_symbolic_errors () =
  let failure body =
    let src = "void f(int n, int* A, int* R) { int i; for (i = 0; i < n; i++) " ^ body ^ " }" in
    match Trace.trace_cells (Stagg_minic.Parser.parse_function_exn src) sig1 ~sizes:[ ("n", 3) ] with
    | Error r -> Trace.refusal_to_string r
    | Ok _ -> Alcotest.failf "expected a trace failure: %s" body
  in
  check_string "branch" "trace: execution failed: symbolic branch condition"
    (failure "if (A[i]) R[i] = 1;");
  check_string "comparison" "trace: execution failed: symbolic comparison"
    (failure "if (A[i] > 0) R[i] = 1;");
  check_string "modulo" "trace: execution failed: '%' requires concrete operands"
    (failure "R[i] = A[i] % 2;");
  check_string "index" "trace: execution failed: value used as index is not concrete"
    (failure "R[A[i]] = 1;")

let test_uninitialized_accumulator_refused () =
  match
    skel
      {|
void f(int n, int* A, int* R) {
  int i;
  for (i = 0; i < n; i++) {
    R[i] = R[i] + A[i];
  }
}
|}
  with
  | Error (Trace.Output_read _) -> ()
  | Error r -> Alcotest.failf "expected Output_read, got %s" (Trace.refusal_to_string r)
  | Ok _ -> Alcotest.fail "uninitialized accumulator must not yield a template"

let test_repeated_operand_becomes_constant_multiple () =
  match
    skel
      {|
void f(int n, int* A, int* R) {
  int i;
  for (i = 0; i < n; i++) {
    R[i] = A[i] + A[i];
  }
}
|}
  with
  | Ok [ p ] ->
      check_string "doubling decodes as a constant multiple" "R(i) = 2 * A(i)"
        (Stagg_taco.Pretty.program_to_string p)
  | Ok ps -> Alcotest.failf "expected one template, got %d" (List.length ps)
  | Error r -> Alcotest.failf "refused: %s" (Trace.refusal_to_string r)

let test_scalar_mediated_scan_refused () =
  (* the running sum is carried through a scalar, so the Depend stencil
     class cannot see it — the extractor must still refuse (each cell is a
     different-length prefix sum), with a structured message, not panic *)
  match
    skel
      {|
void f(int n, int* A, int* R) {
  int i;
  int s;
  s = 0;
  for (i = 0; i < n; i++) {
    s = s + A[i];
    R[i] = s;
  }
}
|}
  with
  | Error r ->
      check_bool "structured message" true
        (contains_sub "trace: " (Trace.refusal_to_string r))
  | Ok _ -> Alcotest.fail "scalar-mediated scan must not yield a template"

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "stagg_trace"
    [
      ("differential", [ qc qcheck_dag_matches_interp; qc qcheck_tv_matches_rat ]);
      ( "skeletons",
        [
          Alcotest.test_case "artificial suite emits" `Quick test_artificial_skeletons;
          Alcotest.test_case "repeated operand" `Quick
            test_repeated_operand_becomes_constant_multiple;
        ] );
      ( "refusals",
        [
          Alcotest.test_case "diagnostics are structured" `Quick test_diagnostic_refusals;
          Alcotest.test_case "symbolic-domain errors" `Quick test_symbolic_errors;
          Alcotest.test_case "uninitialized accumulator" `Quick
            test_uninitialized_accumulator_refused;
          Alcotest.test_case "scalar-mediated scan" `Quick test_scalar_mediated_scan_refused;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "Trace solves artificial" `Quick test_trace_solves_artificial;
          Alcotest.test_case "Trace refuses diagnostics" `Quick
            test_trace_refuses_diagnostics_e2e;
          Alcotest.test_case "Trace+LLM superset" `Quick test_trace_llm_superset;
          Alcotest.test_case "explicit Oracle_llm is byte-identical" `Quick
            test_oracle_llm_identity;
        ] );
    ]
