(* Satellites of the fingerprint-dedup change:
   - a QCheck collision audit: over a large seeded corpus of random complete
     derivation trees, two trees get the same fingerprint iff they print to
     the same canonical template string (the §4.4 equality the dedup must
     respect);
   - a differential run of the pipeline with fingerprint vs legacy
     printed-string dedup: solved sets, first solutions, and search counts
     must be identical;
   - the wall-clock budget surfacing as [failure = Some "timeout"]. *)

open Stagg_grammar
open Stagg_search
module Pretty = Stagg_taco.Pretty
module Suite = Stagg_benchsuite.Suite
module Bench = Stagg_benchsuite.Bench

let parse = Stagg_taco.Parser.parse_program_exn
let templates_of = List.map parse

(* ---- random complete derivation trees ---- *)

(* Minimal completed-subtree size (rule applications) per nonterminal, by
   fixpoint. Drives the fuel-exhausted phase of the random walk: always
   taking a rule of minimal completion size shrinks the remaining work by
   exactly one application per step, so the walk terminates on any grammar,
   including ones with size-preserving unit/paren rules. *)
let min_sizes g =
  let tbl = Hashtbl.create 16 in
  List.iter (fun nt -> Hashtbl.replace tbl nt max_int) (Cfg.nonterminals g);
  let rule_size (r : Cfg.rule) =
    List.fold_left
      (fun acc sym ->
        match (acc, sym) with
        | None, _ -> None
        | Some _, Cfg.NT nt ->
            let s = Hashtbl.find tbl nt in
            if s = max_int then None else Option.map (( + ) s) acc
        | acc, Cfg.T _ -> acc)
      (Some 1) r.rhs
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (r : Cfg.rule) ->
        match rule_size r with
        | Some s when s < Hashtbl.find tbl r.lhs ->
            Hashtbl.replace tbl r.lhs s;
            changed := true
        | _ -> ())
      (Cfg.rules g)
  done;
  tbl

(* Own PRNG so the corpus is identical on every run regardless of how the
   QCheck harness is seeded. *)
let seed = ref 0x5eed2026

let next_int bound =
  seed := ((!seed * 0x2545F4914F6CDD1D) + 0x27D4EB2F165667C5) land max_int;
  !seed lsr 17 mod bound

let rec walk g sizes x fuel =
  if Node.is_complete x then Some x
  else
    match Node.expansions g x with
    | [] -> None
    | exps ->
        if fuel > 0 then
          let _, x' = List.nth exps (next_int (List.length exps)) in
          walk g sizes x' (fuel - 1)
        else
          (* out of fuel: greedily close the tree along minimal rules *)
          let weight (r : Cfg.rule) =
            List.fold_left
              (fun acc sym ->
                match (acc, sym) with
                | None, _ -> None
                | Some _, Cfg.NT nt ->
                    let s = Hashtbl.find sizes nt in
                    if s = max_int then None else Option.map (( + ) s) acc
                | acc, Cfg.T _ -> acc)
              (Some 0) r.rhs
          in
          let best =
            List.fold_left
              (fun acc ((r, _) as e) ->
                match (weight r, acc) with
                | None, _ -> acc
                | Some w, Some (bw, _) when bw <= w -> acc
                | Some w, _ -> Some (w, e))
              None exps
          in
          (match best with
          | Some (_, (_, x')) -> walk g sizes x' 0
          | None -> None)

(* Refined and full grammars, both search directions: the fingerprint must
   be collision-free within each grammar a search actually runs on. *)
let grammars =
  lazy
    (let mk label g = (label, g, Node.fingerprints g, min_sizes g) in
     [
       mk "td gemv"
         (Gen_topdown.generate ~dim_list:[ 1; 2; 1 ]
            ~templates:(templates_of [ "a(i) = b(i,j) * c(j)" ]));
       mk "td multi"
         (Gen_topdown.generate ~dim_list:[ 1; 2; 1; 0 ]
            ~templates:
              (templates_of
                 [ "a(i) = b(i,j) * c(j)"; "a(i) = b(i,j) * c(j) + d"; "a(i) = 2 * c(i)" ]));
       mk "td full" (Taco_grammar.generate ~n_rhs_tensors:3 ~max_rank:2 ~n_indices:3 ());
       mk "bu dot"
         (Gen_bottomup.generate ~dim_list:[ 0; 1; 1 ]
            ~templates:(templates_of [ "a = b(i) * c(i)" ]));
       mk "bu full" (Gen_bottomup.generate_full ~n_rhs_tensors:3 ~max_rank:2 ~n_indices:3 ());
     ])

let gen_case _st =
  let gs = Lazy.force grammars in
  let label, g, fps, sizes = List.nth gs (next_int (List.length gs)) in
  let rec fresh_tree () =
    match walk g sizes (Node.initial g) (3 + next_int 24) with
    | Some x -> x
    | None -> fresh_tree ()
  in
  let x = fresh_tree () in
  let fp = Node.fingerprint fps x in
  let s =
    match Node.to_program g x with
    | Some p -> Pretty.program_to_string p
    | None -> "<no-program>"
  in
  (label, fp, s)

let arb_case =
  QCheck.make gen_case ~print:(fun (l, fp, s) -> Printf.sprintf "%s: %016x %s" l fp s)

(* Cross-corpus audit tables (per grammar): every fingerprint must map to
   exactly one canonical string, and every string to exactly one
   fingerprint. The first direction is soundness (a fingerprint hit never
   suppresses a genuinely new template); the second is what makes the
   attempt counts match the legacy string-keyed dedup exactly. *)
let fp_to_str : (string * int, string) Hashtbl.t = Hashtbl.create 4096
let str_to_fp : (string * string, int) Hashtbl.t = Hashtbl.create 4096

let fp_soundness =
  QCheck.Test.make ~name:"equal fingerprints iff equal canonical strings" ~count:12_000
    arb_case (fun (label, fp, s) ->
      (match Hashtbl.find_opt fp_to_str (label, fp) with
      | Some s' -> String.equal s' s
      | None ->
          Hashtbl.add fp_to_str (label, fp) s;
          true)
      &&
      match Hashtbl.find_opt str_to_fp (label, s) with
      | Some fp' -> fp' = fp
      | None ->
          Hashtbl.add str_to_fp (label, s) fp;
          true)

(* ---- fingerprint vs legacy string dedup, end to end ---- *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let first_solution (r : Stagg.Result_.t) =
  match r.solution with
  | Some sol -> Pretty.program_to_string sol.concrete
  | None -> "<none>"

let test_differential () =
  let benches = Suite.artificial @ Suite.by_category Bench.Simpl_array in
  List.iter
    (fun (m : Stagg.Method_.t) ->
      let fingerprint = Stagg.Pipeline.run_suite m benches in
      let legacy =
        Stagg.Pipeline.run_suite { m with Stagg.Method_.dedup = Astar.Pretty_key } benches
      in
      List.iter2
        (fun (a : Stagg.Result_.t) (b : Stagg.Result_.t) ->
          let lbl = m.label ^ "/" ^ a.bench in
          check_bool (lbl ^ " solved") b.solved a.solved;
          check_int (lbl ^ " attempts") b.attempts a.attempts;
          (* the legacy dedup cannot replay suppressed pops, so the
             analysis pruning is off there: its expansions count every
             pop, the fingerprint side splits the same pops into real +
             suppressed *)
          check_int (lbl ^ " legacy suppresses nothing") 0 b.suppressed;
          check_int (lbl ^ " expansions") b.expansions (a.expansions + a.suppressed);
          check_string (lbl ^ " first solution") (first_solution b) (first_solution a))
        fingerprint legacy)
    [ Stagg.Method_.stagg_td; Stagg.Method_.stagg_bu ]

(* ---- timeout surfacing ---- *)

let test_pipeline_timeout () =
  (* an exhausted wall clock with unbounded count caps: the very first
     64-pop poll fires, the search stops on the poll boundary, and the
     pipeline reports the [Timeout] stop as its own failure string *)
  let m =
    {
      Stagg.Method_.td_full_grammar with
      budget = { Astar.max_attempts = max_int; max_expansions = max_int; timeout_s = 0. };
    }
  in
  let r = Stagg.Pipeline.run m (Option.get (Suite.find "art_gemv")) in
  check_bool "unsolved" false r.Stagg.Result_.solved;
  Alcotest.(check (option string)) "failure" (Some "timeout") r.failure;
  check_int "stopped on a poll boundary" 0 ((r.expansions + r.suppressed) mod 64)

let () =
  Alcotest.run "stagg_dedup"
    [
      ( "fingerprint",
        [ QCheck_alcotest.to_alcotest fp_soundness ] );
      ( "differential",
        [
          Alcotest.test_case "fingerprint dedup replicates legacy counts" `Slow
            test_differential;
        ] );
      ( "timeout",
        [ Alcotest.test_case "pipeline reports timeout" `Quick test_pipeline_timeout ] );
    ]
