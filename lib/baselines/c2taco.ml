open Stagg_util
open Stagg_taco
module Bench = Stagg_benchsuite.Bench
module Sig = Stagg_minic.Signature
module Validator = Stagg_validate.Validator
module Accept = Stagg.Accept

let label ~heuristics = if heuristics then "C2TACO" else "C2TACO.NoHeuristics"

(* Enumeration envelope. The heuristic configuration's budget is
   calibrated to C2TACO's published coverage envelope (it solves 67 of
   these 77 queries, Table 1); disabling the pruning heuristics keeps the
   coverage but needs an order of magnitude more attempts, reproducing the
   paper's "same coverage, slower" contrast. *)
let max_attempts ~heuristics = if heuristics then 2_500 else 50_000
let timeout_s = 30.
let idx_pool = [ "i"; "j"; "k"; "l" ]

(* loop-nest index-variable budget: distinct loop counters in the source *)
let loop_var_count func =
  let vars = Hashtbl.create 8 in
  List.iter
    (fun (a : Stagg_minic.Recover.access) ->
      List.iter (fun v -> Hashtbl.replace vars v ()) a.loop_vars)
    (Stagg_minic.Recover.analyze func);
  max 1 (min (Hashtbl.length vars) (List.length idx_pool))

let rec tuples pool = function
  | 0 -> [ [] ]
  | n ->
      List.concat_map
        (fun rest -> List.filter_map (fun v -> if List.mem v rest then None else Some (v :: rest)) pool)
        (tuples pool (n - 1))

type atom = Access_atom of string * string list | Const_atom of Rat.t

let atom_to_expr = function
  | Access_atom (t, idxs) -> Ast.Access (t, idxs)
  | Const_atom c -> Ast.Const c

let run ~seed ~heuristics (b : Bench.t) : Stagg.Result_.t =
  let acc = Accept.start ~bench:b.name ~method_label:(label ~heuristics) in
  let attempts = ref 0 in
  (* no verifier by design: a candidate counts once it passes the examples *)
  let finish outcome = Accept.finish acc ~expansions:!attempts ~attempts:!attempts outcome in
  let func = Bench.func b in
  match Accept.checker ~seed ~qname:b.name ~func ~signature:b.signature with
  | Error msg -> finish (Error msg)
  | Ok checker -> (
      let out = b.signature.out in
      (* C2TACO's own static analysis: output dimensionality and per-input
         dimensionalities *)
      let lhs_rank =
        match Stagg_minic.Dims.lhs_dim func with
        | Some d -> d
        | None -> Sig.rank_of_spec (Sig.out_spec b.signature)
      in
      let param_ranks = Stagg_minic.Dims.param_dims func in
      let n_idx = if heuristics then loop_var_count func else List.length idx_pool in
      let pool = List.filteri (fun k _ -> k < n_idx) idx_pool in
      let ops =
        if heuristics then
          match
            List.filter_map
              (fun (o : Stagg_minic.Ast.binop) ->
                match o with
                | Stagg_minic.Ast.Add -> Some Ast.Add
                | Stagg_minic.Ast.Sub -> Some Ast.Sub
                | Stagg_minic.Ast.Mul -> Some Ast.Mul
                | Stagg_minic.Ast.Div -> Some Ast.Div
                | _ -> None)
              (Stagg_minic.Ast.arith_ops_used func)
          with
          | [] -> Ast.all_ops
          | ops -> ops
        else Ast.all_ops
      in
      let lhs = (out, List.filteri (fun k _ -> k < lhs_rank) idx_pool) in
      (* RHS atoms: every non-output argument at every index arrangement of
         its analyzed rank, plus every source literal *)
      let atoms =
        List.concat_map
          (fun (name, rank) ->
            if String.equal name out then []
            else
              match rank with
              | None -> []
              | Some 0 -> [ Access_atom (name, []) ]
              | Some r when r <= List.length pool ->
                  List.map (fun t -> Access_atom (name, t)) (tuples pool r)
              | Some _ -> [])
          param_ranks
        @ List.map (fun c -> Const_atom c) (Stagg_minic.Ast.constants func)
      in
      if atoms = [] then finish (Error "no atoms to enumerate")
      else begin
        let found = ref None in
        let over_budget () =
          !attempts >= max_attempts ~heuristics || Accept.elapsed acc > timeout_s
        in
        (* shortest-first: all programs with [len] atoms, left-leaning chains
           (C2TACO builds expressions by extension, like our bottom-up) *)
        let try_program rhs =
          incr attempts;
          let p = { Ast.lhs; rhs } in
          if Accept.check acc checker p then found := Some p
        in
        let rec extend rhs len =
          if !found <> None || over_budget () then ()
          else if len = 0 then try_program rhs
          else
            List.iter
              (fun op ->
                List.iter
                  (fun atom ->
                    if !found = None && not (over_budget ()) then
                      extend (Ast.Bin (op, rhs, atom_to_expr atom)) (len - 1))
                  atoms)
              ops
        in
        let rec lengths len =
          if !found <> None || over_budget () || len > 4 then ()
          else begin
            List.iter
              (fun atom ->
                if !found = None && not (over_budget ()) then
                  extend (atom_to_expr atom) (len - 1))
              atoms;
            lengths (len + 1)
          end
        in
        lengths 1;
        match !found with
        | Some p ->
            finish
              (Ok
                 {
                   Validator.template = p;
                   subst = { Stagg_template.Subst.tensor_binding = []; const_binding = None };
                   concrete = p;
                 })
        | None ->
            finish (Error (if over_budget () then "budget exceeded" else "search space exhausted"))
      end)

let run_suite ?jobs ~seed ~heuristics benches = Pool.map ?jobs (run ~seed ~heuristics) benches
