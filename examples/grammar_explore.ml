(** Explore what the LLM teaches the synthesizer: print the learned
    probabilistic grammars for a few benchmarks and contrast the refined
    grammar against the full TACO grammar it replaces (paper §4, Table 3's
    grammar ablations).

    Run with: [dune exec examples/grammar_explore.exe] *)

module Suite = Stagg_benchsuite.Suite
module Cfg = Stagg_grammar.Cfg
module Pcfg = Stagg_grammar.Pcfg

let explore name =
  match Suite.find name with
  | None -> Printf.printf "no benchmark %s\n" name
  | Some b -> (
      Printf.printf "\n==== %s (ground truth: %s) ====\n" b.name b.ground_truth;
      match Stagg.Pipeline.prepare Stagg.Method_.stagg_td b with
      | Error e -> Printf.printf "preparation failed: %s\n" e
      | Ok prep ->
          Printf.printf "dimension list %s learned from %d candidates\n"
            (Stagg_template.Dimlist.to_string prep.dim_list)
            (List.length prep.templates);
          Format.printf "%a@." Pcfg.pp prep.pcfg;
          let refined_rules = Cfg.size (Pcfg.cfg prep.pcfg) in
          let full = Stagg_grammar.Taco_grammar.generate () in
          Printf.printf
            "refined grammar: %d productions — the full TACO template grammar has %d\n"
            refined_rules (Cfg.size full);
          (* what would the heuristic h estimate for a fresh search? *)
          let g = Pcfg.cfg prep.pcfg in
          for nt = 0 to Cfg.n_nonterminals g - 1 do
            Printf.printf "  h(%s) = %.4f (max derivable-probability, §5.1 fixpoint)\n"
              (Cfg.nt_name g nt) (Pcfg.h prep.pcfg nt)
          done)

let () =
  Printf.printf "How STAGG turns LLM guesses into a search space\n";
  explore "art_gemv";
  explore "sa_const_sub";
  explore "blas_syrk_lt";
  (* and the one query whose solution needs five index variables: the
     grammar cannot express it, illustrating the template space's bound *)
  explore "dk_conv1x1"
