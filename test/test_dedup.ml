(* Satellites of the fingerprint-dedup change:
   - a QCheck collision audit: over a large seeded corpus of random complete
     derivation trees, two trees get the same fingerprint iff they print to
     the same canonical template string (the §4.4 equality the dedup must
     respect);
   - a differential of derivation decoding against tree surgery: the A*
     frontier carries rule-id derivations, and decoding one must rebuild
     the tree, the tail-closed tree and the program the [Node.expansions]
     chain and [Node.remove_tail] build;
   - a differential of the A* search's a4 verdict on derivations
     ({!Penalty.a4_fires}) against a4 on the decoded program, over random
     complete derivations of generated grammars and of every suite
     kernel's STAGG^TD grammar; of its verdict on the siblings of one
     expansion ({!Penalty.a4_fires_on_path}) against that full scan; and
     a count of the children a4 rejects over one STAGG^TD suite pass;
   - an end-to-end check of the fingerprint dedup against printed-string
     keys: over two suite passes, no template is validated twice and each
     attempt is one distinct printed template;
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
   suppresses a genuinely new template); the second is what makes each
   distinct template count exactly one attempt. *)
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

(* ---- a4 on the derivation vs a4 on the decoded program ---- *)

let suite_td_grammars =
  lazy
    (List.filter_map
       (fun (b : Bench.t) ->
         match Stagg.Pipeline.prepare Stagg.Method_.stagg_td b with
         | Ok prep -> Some (grammar_case ("td " ^ b.name) (Stagg_grammar.Pcfg.cfg prep.pcfg))
         | Error _ -> None)
       Suite.all)

(* Every rule shape the a4 scan reads, and derivations that decode to
   no program although they hold equal a4 operands: an lhs two unit
   rules above its tensor, a tensor in an operator slot, an operator or
   an ε rule in an operand slot. Its last rule completes a tree at an
   operator slot. No generated grammar has these; a4 must read what
   does not decode as no match, as [None] is. *)
let odd_shapes =
  let t name = Cfg.T (Cfg.Tok_tensor (name, [])) in
  let op o = Cfg.T (Cfg.Tok_op o) in
  let e = Cfg.NT "E" in
  Cfg.make ~start:"P"
    ~categories:
      [
        ("P", Cfg.Cat_program);
        ("L", Cfg.Cat_tensor);
        ("M", Cfg.Cat_tensor);
        ("E", Cfg.Cat_expr);
        ("O", Cfg.Cat_op);
        ("X", Cfg.Cat_expr);
      ]
    [
      ("P", [ Cfg.NT "L"; Cfg.T Cfg.Tok_assign; e ]);
      ("P", [ Cfg.NT "M"; Cfg.T Cfg.Tok_assign; e ]);
      ("P", [ t "a"; Cfg.T Cfg.Tok_assign; e ]);
      ("L", [ t "a" ]);
      ("M", [ Cfg.NT "L" ]);
      ("E", [ e; op Stagg_taco.Ast.Add; e ]);
      ("E", [ e; op Stagg_taco.Ast.Div; e ]);
      ("E", [ e; Cfg.NT "O"; e ]);
      ("E", [ Cfg.T Cfg.Tok_lparen; e; Cfg.T Cfg.Tok_rparen ]);
      ("E", [ Cfg.T Cfg.Tok_lparen; t "b"; Cfg.T Cfg.Tok_rparen ]);
      ("E", [ Cfg.T Cfg.Tok_neg; e ]);
      ("E", [ Cfg.T Cfg.Tok_neg; t "c" ]);
      ("E", [ t "b" ]);
      ("E", [ t "c" ]);
      ("E", [ Cfg.T Cfg.Tok_const ]);
      ("E", [ t "Const" ]);
      ("E", [ Cfg.NT "X" ]);
      ("E", [ op Stagg_taco.Ast.Mul ]);
      ("X", [ t "b" ]);
      ("X", []);
      ("O", [ op Stagg_taco.Ast.Sub ]);
      ("O", [ Cfg.NT "O" ]);
      ("O", [ t "b" ]);
      ("E", [ e; Cfg.NT "O"; t "b" ]);
    ]

(* one a4 scanner per grammar, as each search owns one; a second for
   the siblings of one expansion, so the full-scan reference does not
   overwrite their path summary *)
let a4_grammars =
  lazy
    (List.map
       (fun ((_, g, _, _) as case) -> (case, Penalty.a4_scan g, Penalty.a4_scan g))
       (Lazy.force grammars @ [ grammar_case "two tails" two_tails ]
       @ Lazy.force suite_td_grammars
       @ [ grammar_case "odd shapes" odd_shapes ]))

let same_operand g rd =
  match Node.to_program g (Node.of_derivation g rd) with
  | Some p -> Penalty.same_operand_addsubdiv p.Stagg_taco.Ast.rhs
  | None -> false

let a4_matches = ref 0
let a4_cleared = ref 0
let path_siblings = ref 0
let path_matches = ref 0

(* Case: an index into [a4_grammars] and a complete derivation of that
   grammar, most recent rule first. Runs after the decoding differential,
   so both earlier corpora are unchanged. *)
let gen_a4_case _st =
  let gs = Lazy.force a4_grammars in
  let i = next_int (List.length gs) in
  let (_, g, _, sizes), _, _ = List.nth gs i in
  let rec complete () =
    let rd = ref [] in
    match walk ~visit:(fun _ d -> rd := d) g sizes (Node.initial g) [] (3 + next_int 24) with
    | Some _ when !rd <> [] -> !rd
    | _ -> complete ()
  in
  (i, complete ())

let print_a4_case (i, rd) =
  let (label, _, _, _), _, _ = List.nth (Lazy.force a4_grammars) i in
  Printf.sprintf "%s: %s" label (String.concat " " (List.map string_of_int rd))

let a4_on =
  Penalty.compile
    { Penalty.dim_list = []; ops_available = []; grammar_has_const = false; enabled = [ Penalty.A4 ] }

(* The metrics pre-check ({!Penalty.checks_a4}) never clears an a4
   match, and the verdict on the derivation is a4's on the decoded
   program, [None] included: so the search's verdict — a child that
   passes the pre-check, decided on its derivation — is a4's verdict. *)
let a4_exact =
  QCheck.Test.make ~name:"a4 on derivations = on programs" ~count:20_000
    (QCheck.make ~print:print_a4_case gen_a4_case)
    (fun (i, rd) ->
      let (_, g, fps, _), scan, _ = List.nth (Lazy.force a4_grammars) i in
      let checked = Penalty.checks_a4 a4_on (Node.metrics fps (Node.of_derivation g rd)) in
      let fires = Penalty.a4_fires scan (List.hd rd) (List.tl rd) in
      let matches = same_operand g rd in
      if matches then incr a4_matches;
      if checked && not matches then incr a4_cleared;
      ((not matches) || checked) && fires = matches)

(* Case: a random complete derivation less its last rule — a partial
   derivation with exactly one open leaf — whose completions are that
   leaf's rules without nonterminals, the complete children of one
   expansion. Scanning the one that completed the walk in full and
   folding each other one up its path must give every sibling its own
   full scan's verdict. Runs after [a4_exact], so that corpus is
   unchanged. *)
let a4_siblings_agree =
  QCheck.Test.make ~name:"sibling verdicts = full scans" ~count:5_000
    (QCheck.make ~print:print_a4_case gen_a4_case)
    (fun (i, rd) ->
      let (_, g, _, _), full, path = List.nth (Lazy.force a4_grammars) i in
      let first = List.hd rd and parent = List.tl rd in
      let siblings =
        List.filter_map
          (fun (r : Cfg.rule) ->
            if r.id <> first && List.for_all (function Cfg.T _ -> true | Cfg.NT _ -> false) r.rhs
            then Some r.id
            else None)
          (Cfg.rules_for g (Cfg.rule g first).lhs)
      in
      let by_scan = List.map (fun id -> Penalty.a4_fires full id parent) (first :: siblings) in
      let on_first = Penalty.a4_fires path first parent in
      let by_path = on_first :: List.map (Penalty.a4_fires_on_path path) siblings in
      path_siblings := !path_siblings + List.length siblings;
      path_matches := !path_matches + List.length (List.filter Fun.id by_scan);
      by_scan = by_path)

let test_a4_corpus () =
  (* the properties are vacuous unless the walks reach a4 matches, and
     non-matches the pre-check lets through; the counters are the ones
     the properties, run just before, filled *)
  check_bool "a4 matches reached" true (!a4_matches > 100);
  check_bool "pre-checked non-matches reached" true (!a4_cleared > 100);
  check_bool "siblings reached" true (!path_siblings > 10_000);
  check_bool "sibling matches reached" true (!path_matches > 100)

(* Hand-picked derivations of [odd_shapes] (rule ids in the order its
   productions are listed, applied in preorder): a4's verdict on each,
   by the scan, by folding it up from a sibling's scan, and on the
   decoded program. *)
let test_a4_odd_shapes () =
  let g = odd_shapes in
  let scan = Penalty.a4_scan g in
  List.iter
    (fun (what, preorder, expected) ->
      let rd = List.rev preorder in
      let rid = List.hd rd and parent = List.tl rd in
      check_bool (what ^ ": decoded") expected (same_operand g rd);
      check_bool (what ^ ": scan") expected (Penalty.a4_fires scan rid parent);
      (* from each sibling's scan, folded back up to [rid] *)
      List.iter
        (fun (r : Cfg.rule) ->
          if List.for_all (function Cfg.T _ -> true | Cfg.NT _ -> false) r.rhs then begin
            ignore (Penalty.a4_fires scan r.id parent : bool);
            check_bool (what ^ ": fold") expected (Penalty.a4_fires_on_path scan rid)
          end)
        (Cfg.rules_for g (Cfg.rule g rid).lhs))
    [
      ("a = b + b", [ 2; 5; 12; 12 ], true);
      ("L = b + b", [ 0; 3; 5; 12; 12 ], true);
      ("M = b + b, lhs two rules above a", [ 1; 4; 3; 5; 12; 12 ], false);
      ("a = X + X, both eps", [ 2; 5; 16; 19; 16; 19 ], false);
      ("a = X + b, X -> b", [ 2; 5; 16; 18; 12 ], true);
      ("a = b O b, O -> b", [ 2; 7; 12; 22; 12 ], false);
      ("a = b O b, O -> O -> -", [ 2; 7; 12; 21; 20; 12 ], true);
      ("a = * + *", [ 2; 5; 17; 17 ], false);
      ("a = (b) + b", [ 2; 5; 9; 12 ], true);
      ("a = (b) + b, nested paren", [ 2; 5; 8; 12; 12 ], true);
      ("a = -c / -(c)", [ 2; 6; 11; 10; 8; 13 ], true);
      ("a = -b + -c", [ 2; 5; 10; 12; 11 ], false);
      ("a = -b + -(b)", [ 2; 5; 10; 12; 10; 8; 12 ], true);
      ("a = Const + Const tensor", [ 2; 5; 14; 15 ], true);
      ("a = b + c", [ 2; 5; 12; 13 ], false);
      ("a = (b + c) + (b + c)", [ 2; 5; 8; 5; 12; 13; 5; 12; 13 ], true);
      ("a = (b + c) + (b / c)", [ 2; 5; 8; 5; 12; 13; 6; 12; 13 ], false);
      ("a = b O (b + b), O -> O -> b", [ 2; 7; 12; 21; 22; 8; 5; 12; 12 ], false);
      ("a = b O b, O last, O -> -", [ 2; 23; 12; 20 ], true);
      ("a = b O b, O last, O -> b", [ 2; 23; 12; 22 ], false);
      ("a = c O b, O last, O -> -", [ 2; 23; 13; 20 ], false);
    ]

(* Kernel [b]'s search under [m], run as the pipeline runs it, with
   [wrap] around the pipeline's validator: [None] where the pipeline
   runs no search (fail fast, no grammar, no validator). *)
let search_as_pipeline (m : Stagg.Method_.t) (b : Bench.t) ~wrap =
  let q = Stagg.Pipeline.query_of_bench m b in
  let liftable = (not m.analysis) || Result.is_ok (Stagg_minic.Facts.analyze q.func).ft_verdict in
  match (liftable, Stagg.Pipeline.prepare_query m q) with
  | false, _ | _, Error _ -> None
  | true, Ok prep -> (
      let acc = Stagg.Accept.start ~bench:b.name ~method_label:m.label in
      let consts = Stagg_minic.Ast.constants q.func in
      match
        Stagg.Accept.validator acc ~seed:m.seed ~func:q.func ~signature:q.signature ~consts
          ~verify:m.verify ~batched:m.batched_validate ()
      with
      | Error _ -> None
      | Ok validate ->
          let prune = Stagg.Pipeline.prune_of m q ~consts prep in
          let validate = wrap validate in
          Some
            (Astar.stats_of
               (match m.search with
               | Stagg.Method_.Top_down ->
                   Astar.search_topdown ~pcfg:prep.pcfg ~penalty_ctx:prep.penalty_ctx
                     ~max_depth:m.max_depth ?prune ~prune_mode:m.prune_mode ~budget:m.budget
                     ~validate ()
               | Stagg.Method_.Bottom_up ->
                   Astar.search_bottomup ~pcfg:prep.pcfg ~penalty_ctx:prep.penalty_ctx
                     ~dim_list:prep.dim_list ?prune ~prune_mode:m.prune_mode ~budget:m.budget
                     ~validate ())))

let check_counts lbl (r : Stagg.Result_.t) (st : Astar.stats) =
  check_int (lbl ^ " attempts") r.attempts st.attempts;
  check_int (lbl ^ " expansions") r.expansions st.expansions;
  check_int (lbl ^ " suppressed") r.suppressed st.suppressed

(* One STAGG^TD suite pass, searched as the pipeline searches it, with
   the children a4 rejects read off the search statistics. The
   per-kernel search counts must match the pipeline's own run, so this
   is that pass. The total was recorded when a4 was still decided on
   each candidate's decoded program (28 801 decodes, every one a
   rejection), so it pins the verdicts on derivations to those. *)
let test_a4_suite_pass () =
  let m = Stagg.Method_.stagg_td in
  let results = Stagg.Pipeline.run_suite ~jobs:1 m Suite.all in
  let rejections = ref 0 in
  List.iter2
    (fun (b : Bench.t) (r : Stagg.Result_.t) ->
      match search_as_pipeline m b ~wrap:Fun.id with
      | None -> ()
      | Some st ->
          check_counts b.name r st;
          rejections := !rejections + st.a4_rejections)
    Suite.all results;
  check_int "a4 rejections" 28_801 !rejections

(* ---- fingerprint dedup vs printed-string keys, end to end ---- *)

(* STAGG^TD and STAGG^BU over the artificial and simple-array kernels,
   searched as the pipeline searches them, with every template the
   search validates keyed by its printed string (the canonical template
   form of paper §4.4): no key is validated twice, and each attempt is
   one distinct key. The counts and verdicts are the pipeline's own. *)
let test_printed_keys () =
  let benches = Suite.artificial @ Suite.by_category Bench.Simpl_array in
  List.iter
    (fun (m : Stagg.Method_.t) ->
      List.iter2
        (fun (b : Bench.t) (r : Stagg.Result_.t) ->
          let lbl = m.label ^ "/" ^ b.name in
          let seen = Hashtbl.create 64 and dups = ref 0 and found = ref false in
          let wrap validate p =
            let key = Stagg_taco.Pretty.program_to_string p in
            if Hashtbl.mem seen key then incr dups;
            Hashtbl.replace seen key ();
            let sol = validate p in
            if Option.is_some sol then found := true;
            sol
          in
          match search_as_pipeline m b ~wrap with
          | None -> check_int (lbl ^ " no search, no attempts") 0 r.attempts
          | Some st ->
              check_int (lbl ^ " printed keys validated twice") 0 !dups;
              check_int (lbl ^ " attempts = distinct keys") (Hashtbl.length seen) st.attempts;
              check_counts lbl r st;
              check_bool (lbl ^ " solved") r.solved !found)
        benches
        (Stagg.Pipeline.run_suite ~jobs:1 m benches))
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
          QCheck_alcotest.to_alcotest a4_exact;
          QCheck_alcotest.to_alcotest a4_siblings_agree;
          Alcotest.test_case "a4 corpus reaches matches" `Quick test_a4_corpus;
          Alcotest.test_case "a4 on rule shapes that do not decode" `Quick test_a4_odd_shapes;
          Alcotest.test_case "a4 rejections over a suite pass" `Slow test_a4_suite_pass;
        ] );
      ( "differential",
        [
          Alcotest.test_case "validated templates have distinct printed keys" `Slow
            test_printed_keys;
        ] );
      ( "timeout",
        [ Alcotest.test_case "pipeline reports timeout" `Quick test_pipeline_timeout ] );
    ]
