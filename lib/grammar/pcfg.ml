type t = { cfg : Cfg.t; probs : float array; h : float array  (** per nonterminal id *) }

let cfg t = t.cfg

let compute_h cfg probs =
  let h = Array.make (Cfg.n_nonterminals cfg) 0. in
  let h_of = function Cfg.T _ -> 1. | Cfg.NT nt -> h.(nt) in
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < 10_000 do
    changed := false;
    incr iters;
    for nt = 0 to Array.length h - 1 do
      let best =
        List.fold_left
          (fun acc (r : Cfg.rule) ->
            let v = List.fold_left (fun p s -> p *. h_of s) probs.(r.id) r.rhs in
            Float.max acc v)
          0. (Cfg.rules_for cfg nt)
      in
      if best > h.(nt) +. 1e-12 then begin
        h.(nt) <- best;
        changed := true
      end
    done
  done;
  h

let of_weights cfg weights =
  if Array.length weights <> Cfg.size cfg then invalid_arg "Pcfg.of_weights: weight arity";
  Array.iter (fun w -> if w < 0. then invalid_arg "Pcfg.of_weights: negative weight") weights;
  let probs = Array.make (Cfg.size cfg) 0. in
  for nt = 0 to Cfg.n_nonterminals cfg - 1 do
    let rs = Cfg.rules_for cfg nt in
    let total = List.fold_left (fun acc (r : Cfg.rule) -> acc +. weights.(r.id)) 0. rs in
    if total <= 0. then
      (* degenerate: fall back to uniform so the nonterminal stays derivable *)
      List.iter (fun (r : Cfg.rule) -> probs.(r.id) <- 1. /. float_of_int (List.length rs)) rs
    else List.iter (fun (r : Cfg.rule) -> probs.(r.id) <- weights.(r.id) /. total) rs
  done;
  { cfg; probs; h = compute_h cfg probs }

let uniform cfg = of_weights cfg (Array.make (Cfg.size cfg) 1.)

let prob t (r : Cfg.rule) = t.probs.(r.id)

let cost t (r : Cfg.rule) =
  let p = t.probs.(r.id) in
  if p <= 0. then infinity else -.Float.log2 p

let h t nt = t.h.(nt)

let h_cost t nt =
  let v = h t nt in
  if v <= 0. then infinity else -.Float.log2 v

let ops_available t =
  let ops = ref [] in
  Array.iter
    (fun (r : Cfg.rule) ->
      if t.probs.(r.id) > 0. then
        List.iter
          (function
            | Cfg.T (Cfg.Tok_op op) -> if not (List.mem op !ops) then ops := op :: !ops
            | _ -> ())
          r.rhs)
    (Cfg.rules t.cfg);
  List.rev !ops

let pp fmt t =
  Format.fprintf fmt "@[<v>start: %s@," (Cfg.nt_name t.cfg (Cfg.start t.cfg));
  Array.iter
    (fun (r : Cfg.rule) ->
      Format.fprintf fmt "%s   (%.4f)@," (Cfg.rule_to_string t.cfg r) t.probs.(r.id))
    (Cfg.rules t.cfg);
  Format.fprintf fmt "@]"
