(** Per-query outcome of a lifting run, with the measurements the paper's
    tables report: solved?, wall-clock time, synthesis attempts. *)

type t = {
  bench : string;
  method_label : string;
  solved : bool;
  solution : Stagg_validate.Validator.solution option;
  time_s : float;
      (** wall-clock seconds: the whole lift under [Pipeline.lift] (the
          prefix stage — oracle, templatization, dimension prediction —
          included); under [Pipeline.lift_prefixed], the per-method stages
          only, the shared prefix excluded *)
  attempts : int;  (** templates sent to validation (Table 1/3 "attempts") *)
  expansions : int;  (** queue pops doing real work (excludes [suppressed]) *)
  suppressed : int;  (** doomed expansions the static analysis kept off the queue *)
  peak_frontier : int;  (** largest A* frontier length, suppressed keys excluded *)
  n_candidates : int;  (** syntactically valid LLM candidates parsed *)
  instantiations : int;  (** concrete substitution instantiations executed *)
  traced : bool;
      (** the trace oracle ran and emitted at least one template for this
          query (always [false] under {!Method_.Oracle_llm}) *)
  trace_templates : int;  (** candidate templates the trace oracle emitted *)
  warnings : string list;  (** static-analysis warnings (precision losses etc.) *)
  failure : string option;  (** reason when unsolved *)
}

let solved_names results =
  List.filter_map (fun r -> if r.solved then Some r.bench else None) results

let pp fmt r =
  Format.fprintf fmt "%-22s %-28s %s  %6.3fs  %4d attempts%s" r.bench r.method_label
    (if r.solved then "solved " else "FAILED ")
    r.time_s r.attempts
    (match (r.solved, r.solution) with
    | true, Some s -> "  " ^ Stagg_taco.Pretty.program_to_string s.concrete
    | _, _ -> Option.fold ~none:"" ~some:(fun m -> "  (" ^ m ^ ")") r.failure);
  List.iter (fun w -> Format.fprintf fmt "@\n%-22s   warning: %s" "" w) r.warnings
