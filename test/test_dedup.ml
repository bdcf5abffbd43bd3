(* Satellites of the fingerprint-dedup change:
   - a QCheck collision audit: over a large seeded corpus of random complete
     derivation trees, two trees get the same fingerprint iff they print to
     the same canonical template string (the §4.4 equality the dedup must
     respect);
   - a differential of derivation decoding against tree surgery: the A*
     frontier carries rule-id derivations, and decoding one must rebuild
     the tree, the tail-closed tree and the program the [Node.expansions]
     chain and [Node.remove_tail] build;
   - a differential of the A* search's a4 scan ({!Penalty.a4_candidate})
     against a4 on the decoded program, over random complete derivations
     of generated grammars and of every suite kernel's STAGG^TD grammar,
     and a count over one STAGG^TD suite pass that every child decoded at
     push is one a4 rejects;
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

(* [visit] sees every tree of the walk with its derivation (applied rule
   ids, most recent first), the initial tree included. *)
let rec walk ?(visit = fun _ _ -> ()) g sizes x rd fuel =
  visit x rd;
  if Node.is_complete x then Some x
  else
    match Node.expansions g x with
    | [] -> None
    | exps ->
        if fuel > 0 then
          let (r : Cfg.rule), x' = List.nth exps (next_int (List.length exps)) in
          walk ~visit g sizes x' (r.id :: rd) (fuel - 1)
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
          | Some (_, ((r : Cfg.rule), x')) -> walk ~visit g sizes x' (r.id :: rd) 0
          | None -> None)

(* Refined and full grammars, both search directions: the fingerprint must
   be collision-free within each grammar a search actually runs on. *)
let grammar_case label g = (label, g, Node.fingerprints g, min_sizes g)

let grammars =
  lazy
    (let mk = grammar_case in
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
    match walk g sizes (Node.initial g) [] (3 + next_int 24) with
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

(* ---- derivation decoding vs the tree reference ---- *)

(* Random leftmost walks over every grammar, checked at each step:
   decoding the derivation gives the tree the [Node.expansions] chain
   built; closing its open tails and decoding gives [Node.remove_tail] of
   that tree (None included); and both rebuild the same program (None
   included). Runs after the fingerprint audit, so that corpus is
   unchanged. *)
(* Two distinct tail nonterminals open side by side, so the order in
   which tails are closed matters; no generated grammar has that. *)
let two_tails =
  let t name = Cfg.T (Cfg.Tok_tensor (name, [])) in
  Cfg.make ~start:"P"
    ~categories:
      [ ("P", Cfg.Cat_program); ("E", Cfg.Cat_expr); ("T1", Cfg.Cat_tail); ("T2", Cfg.Cat_tail) ]
    [
      ("P", [ t "a"; Cfg.T Cfg.Tok_assign; Cfg.NT "E" ]);
      ("E", [ t "b"; Cfg.NT "T1"; Cfg.NT "T2" ]);
      ("T1", []);
      ("T1", [ Cfg.T (Cfg.Tok_op Stagg_taco.Ast.Add); t "c"; Cfg.NT "T1" ]);
      ("T2", []);
      ("T2", [ Cfg.T (Cfg.Tok_op Stagg_taco.Ast.Mul); t "d"; Cfg.NT "T2" ]);
    ]

let test_decoding () =
  let steps = ref 0 and closed_partials = ref 0 and programs = ref 0 in
  List.iter
    (fun (label, g, fps, sizes) ->
      let visit x rd =
        incr steps;
        let decoded = Node.of_derivation g rd in
        if decoded <> x then
          Alcotest.failf "%s: decoded tree differs after %d rules" label (List.length rd);
        let program = Node.to_program g x in
        if Node.to_program g decoded <> program then Alcotest.failf "%s: to_program differs" label;
        if Option.is_some program then incr programs;
        let opens = (Node.annotate g fps x).Node.opens in
        let closed = Option.map (Node.of_derivation g) (Node.close_tails fps opens rd) in
        let reference = Node.remove_tail g x in
        if closed <> reference then Alcotest.failf "%s: close_tails differs from remove_tail" label;
        if opens <> [] && Option.is_some reference then incr closed_partials;
        let prog_of = Option.map (Node.to_program g) in
        if prog_of closed <> prog_of reference then
          Alcotest.failf "%s: tail-closed to_program differs" label
      in
      for _ = 1 to 300 do
        ignore (walk ~visit g sizes (Node.initial g) [] (3 + next_int 24))
      done)
    (Lazy.force grammars @ [ grammar_case "two tails" two_tails ]);
  Alcotest.(check bool) "walked" true (!steps > 10_000);
  Alcotest.(check bool) "some partial trees closed by their tails" true (!closed_partials > 0);
  Alcotest.(check bool) "some programs rebuilt" true (!programs > 0)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- a4 on the derivation vs a4 on the decoded program ---- *)

let suite_td_grammars =
  lazy
    (List.filter_map
       (fun (b : Bench.t) ->
         match Stagg.Pipeline.prepare Stagg.Method_.stagg_td b with
         | Ok prep -> Some (grammar_case ("td " ^ b.name) (Stagg_grammar.Pcfg.cfg prep.pcfg))
         | Error _ -> None)
       Suite.all)

(* one a4 scanner per grammar, as each search owns one *)
let a4_grammars =
  lazy
    (List.map
       (fun ((_, g, _, _) as case) -> (case, Penalty.a4_scan g))
       (Lazy.force grammars @ [ grammar_case "two tails" two_tails ]
       @ Lazy.force suite_td_grammars))

let same_operand g rd =
  match Node.to_program g (Node.of_derivation g rd) with
  | Some p -> Penalty.same_operand_addsubdiv p.Stagg_taco.Ast.rhs
  | None -> false

let a4_candidates = ref 0
let a4_matches = ref 0

(* Case: an index into [a4_grammars] and a complete derivation of that
   grammar, most recent rule first. Runs after the decoding differential,
   so both earlier corpora are unchanged. *)
let gen_a4_case _st =
  let gs = Lazy.force a4_grammars in
  let i = next_int (List.length gs) in
  let (_, g, _, sizes), _ = List.nth gs i in
  let rec complete () =
    let rd = ref [] in
    match walk ~visit:(fun _ d -> rd := d) g sizes (Node.initial g) [] (3 + next_int 24) with
    | Some _ when !rd <> [] -> !rd
    | _ -> complete ()
  in
  (i, complete ())

let print_a4_case (i, rd) =
  let (label, _, _, _), _ = List.nth (Lazy.force a4_grammars) i in
  Printf.sprintf "%s: %s" label (String.concat " " (List.map string_of_int rd))

let a4_on =
  Penalty.compile
    { Penalty.dim_list = []; ops_available = []; grammar_has_const = false; enabled = [ Penalty.A4 ] }

(* Neither the metrics pre-check ({!Penalty.checks_a4}) nor the scan
   ever clears an a4 match, so the search's verdict — a candidate that
   passes both, decided on its decoded program — is a4's verdict. *)
let a4_scan_sound =
  QCheck.Test.make ~name:"a non-candidate never decodes to an a4 match" ~count:20_000
    (QCheck.make ~print:print_a4_case gen_a4_case)
    (fun (i, rd) ->
      let (_, g, fps, _), scan = List.nth (Lazy.force a4_grammars) i in
      let checked = Penalty.checks_a4 a4_on (Node.metrics fps (Node.of_derivation g rd)) in
      let candidate = Penalty.a4_candidate scan (List.hd rd) (List.tl rd) in
      let matches = same_operand g rd in
      if candidate then incr a4_candidates;
      if matches then incr a4_matches;
      let verdict = checked && candidate && same_operand g rd in
      ((not matches) || (checked && candidate)) && verdict = matches)

let test_a4_corpus () =
  (* the property is vacuous unless the walks reach a4 matches; the
     counters are the ones the property, run just before, filled *)
  check_bool "a4 matches reached" true (!a4_matches > 100);
  check_bool "candidates reached" true (!a4_candidates >= !a4_matches)

(* One STAGG^TD suite pass, searched as the pipeline searches it, with
   the push-side a4 counts read off the search statistics: every child
   the scan sends to decoding is one a4 rejects. The per-kernel search
   counts must match the pipeline's own run, so this is that pass. *)
let test_a4_suite_pass () =
  let m = Stagg.Method_.stagg_td in
  let results = Stagg.Pipeline.run_suite ~jobs:1 m Suite.all in
  let decodes = ref 0 and rejections = ref 0 in
  List.iter2
    (fun (b : Bench.t) (r : Stagg.Result_.t) ->
      let q = Stagg.Pipeline.query_of_bench m b in
      let liftable =
        (not m.analysis) || Result.is_ok (Stagg_minic.Facts.analyze q.func).ft_verdict
      in
      match (liftable, Stagg.Pipeline.prepare_query m q) with
      | false, _ | _, Error _ -> ()
      | true, Ok prep -> (
          let acc = Stagg.Accept.start ~bench:b.name ~method_label:m.label in
          let consts = Stagg_minic.Ast.constants q.func in
          match
            Stagg.Accept.validator acc ~seed:m.seed ~func:q.func ~signature:q.signature ~consts
              ~verify:m.verify ~batched:m.batched_validate ()
          with
          | Error _ -> ()
          | Ok validate ->
              let prune = Stagg.Pipeline.prune_of m q ~consts prep in
              let st =
                Astar.stats_of
                  (Astar.search_topdown ~pcfg:prep.pcfg ~penalty_ctx:prep.penalty_ctx
                     ~max_depth:m.max_depth ~dedup:m.dedup ?prune ~budget:m.budget ~validate ())
              in
              check_int (b.name ^ " attempts") r.attempts st.attempts;
              check_int (b.name ^ " expansions") r.expansions st.expansions;
              check_int (b.name ^ " suppressed") r.suppressed st.suppressed;
              decodes := !decodes + st.push_decodes;
              rejections := !rejections + st.a4_rejections))
    Suite.all results;
  check_bool "a4 rejects children in the pass" true (!rejections > 0);
  check_int "push-side decodes = a4 rejections" !rejections !decodes

(* ---- fingerprint vs legacy string dedup, end to end ---- *)

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
      ( "decoding",
        [
          Alcotest.test_case "derivations decode like tree surgery" `Quick test_decoding;
        ] );
      ( "a4",
        [
          QCheck_alcotest.to_alcotest a4_scan_sound;
          Alcotest.test_case "a4 corpus reaches matches" `Quick test_a4_corpus;
          Alcotest.test_case "push-side decodes are a4 rejections" `Slow test_a4_suite_pass;
        ] );
      ( "differential",
        [
          Alcotest.test_case "fingerprint dedup replicates legacy counts" `Slow
            test_differential;
        ] );
      ( "timeout",
        [ Alcotest.test_case "pipeline reports timeout" `Quick test_pipeline_timeout ] );
    ]
