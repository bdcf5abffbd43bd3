(* Trace-guided candidate oracle: run the kernel on symbolic leaves, fold
   the resulting expression DAGs back into TACO einsum templates. See the
   .mli for the architecture and the determinism argument. *)

open Stagg_util
module A = Stagg_minic.Ast
module Sg = Stagg_minic.Signature
module T = Stagg_taco.Ast

type dag =
  | Leaf of string * int
  | Cst of Rat.t
  | Neg of dag
  | Bin of T.op * dag * dag

let rec equal_dag d1 d2 =
  match (d1, d2) with
  | Leaf (p1, k1), Leaf (p2, k2) -> String.equal p1 p2 && k1 = k2
  | Cst c1, Cst c2 -> Rat.equal c1 c2
  | Neg a, Neg b -> equal_dag a b
  | Bin (o1, a1, b1), Bin (o2, a2, b2) ->
      T.equal_op o1 o2 && equal_dag a1 a2 && equal_dag b1 b2
  | _ -> false

let rec pp_dag fmt = function
  | Leaf (p, k) -> Format.fprintf fmt "%s[%d]" p k
  | Cst c -> Rat.pp fmt c
  | Neg d -> Format.fprintf fmt "(- %a)" pp_dag d
  | Bin (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp_dag a (T.op_to_string op) pp_dag b

module TV = struct
  (* [Int n] is a concrete integer that fits a native int, in the range
     [Rat.to_int] accepts ([-max_int, max_int]); [Conc r] is any other
     concrete rational and never holds such an integer. Sizes, loop
     counters and index arithmetic stay on the [Int] path. *)
  type t = Int of int | Conc of Rat.t | Sym of dag

  let of_rat r = match Rat.to_int r with Some n -> Int n | None -> Conc r
  let rat_of = function Int n -> Rat.of_int n | Conc r -> r | Sym _ -> assert false
  let dag_of = function Int n -> Cst (Rat.of_int n) | Conc r -> Cst r | Sym d -> d
  let leaf p k = Sym (Leaf (p, k))
  let zero = Int 0
  let one = Int 1
  let of_int n = if n = min_int then Conc (Rat.of_int n) else Int n

  (* Operands bounded so the native result cannot leave [-max_int, max_int]. *)
  let add_bound = max_int / 2
  let mul_bound = 0x7fff_ffff
  let[@inline] within bound x y = abs x <= bound && abs y <= bound

  (* Only value-preserving simplifications: anything more (e.g. [0 * x = 0],
     [1 * x = x]) would still be sound, but keeping the DAG a literal record
     of the arithmetic performed makes the differential parity suite a real
     bit-for-bit statement about the interpreter, not about a simplifier. *)
  let add a b =
    match (a, b) with
    | Int x, Int y when within add_bound x y -> Int (x + y)
    | (Int _ | Conc _), (Int _ | Conc _) -> of_rat (Rat.add (rat_of a) (rat_of b))
    | Int 0, Sym d | Sym d, Int 0 -> Sym d
    | _ -> Sym (Bin (T.Add, dag_of a, dag_of b))

  let sub a b =
    match (a, b) with
    | Int x, Int y when within add_bound x y -> Int (x - y)
    | (Int _ | Conc _), (Int _ | Conc _) -> of_rat (Rat.sub (rat_of a) (rat_of b))
    | Sym d, Int 0 -> Sym d
    | Int 0, Sym d -> Sym (Neg d)
    | _ -> Sym (Bin (T.Sub, dag_of a, dag_of b))

  let mul a b =
    match (a, b) with
    | Int x, Int y when within mul_bound x y -> Int (x * y)
    | (Int _ | Conc _), (Int _ | Conc _) -> of_rat (Rat.mul (rat_of a) (rat_of b))
    | _ -> Sym (Bin (T.Mul, dag_of a, dag_of b))

  let div a b =
    match (a, b) with
    | _, Int 0 -> raise Division_by_zero
    | Int x, Int y when x mod y = 0 -> Int (x / y)
    | (Int _ | Conc _), (Int _ | Conc _) -> of_rat (Rat.div (rat_of a) (rat_of b))
    | _ -> Sym (Bin (T.Div, dag_of a, dag_of b))

  let neg = function Int x -> Int (-x) | Conc x -> Conc (Rat.neg x) | Sym d -> Sym (Neg d)

  let equal a b =
    match (a, b) with
    | Int x, Int y -> x = y
    | Conc x, Conc y -> Rat.equal x y
    | Sym d1, Sym d2 -> equal_dag d1 d2
    | _ -> false

  let to_int = function Int n -> Some n | Conc _ | Sym _ -> None

  let compare_concrete a b =
    match (a, b) with
    | Int x, Int y -> Some (Int.compare x y)
    | (Int _ | Conc _), (Int _ | Conc _) -> Some (Rat.compare (rat_of a) (rat_of b))
    | _ -> None

  let pp fmt = function
    | Int n -> Rat.pp fmt (Rat.of_int n)
    | Conc r -> Rat.pp fmt r
    | Sym d -> pp_dag fmt d
end

module I = Stagg_minic.Interp.Make (TV)

type refusal =
  | Scan of string
  | Trace_failed of string
  | Output_unwritten
  | Output_read of string
  | No_generic_cell
  | No_generic_term
  | Inconsistent of string
  | Outside_template_space of { index_vars : int; rhs_tensors : int }

let refusal_to_string = function
  | Scan base ->
      Printf.sprintf
        "trace: scan unsupported (store to '%s' reads an earlier iteration's \
         write)"
        base
  | Trace_failed e -> "trace: execution failed: " ^ e
  | Output_unwritten -> "trace: kernel never writes its output parameter"
  | Output_read p ->
      Printf.sprintf
        "trace: output depends on the initial contents of output buffer '%s'" p
  | No_generic_cell ->
      "trace: no written output cell sits at pairwise-distinct loop indices"
  | No_generic_term ->
      "trace: a summand group admits no per-iteration access pattern"
  | Inconsistent why -> "trace: " ^ why
  | Outside_template_space { index_vars; rhs_tensors } ->
      Printf.sprintf
        "trace: candidate outside the template space (%d index variables, %d \
         RHS tensors; at most %d and %d)"
        index_vars rhs_tensors Stagg_template.Templatize.max_index_vars
        Stagg_template.Templatize.max_rhs_tensors

(* ------------------------------------------------------------------ *)
(* Tracing layer                                                       *)
(* ------------------------------------------------------------------ *)

let trace_cells (func : A.func) (sg : Sg.t) ~sizes =
  try
    let arg_of (p : A.param) =
      match List.assoc_opt p.A.pname sg.Sg.args with
      | Some (Sg.Size name) -> (
          match List.assoc_opt name sizes with
          | Some n -> I.Scalar (TV.of_int n)
          | None -> failwith (Printf.sprintf "no binding for size '%s'" name))
      | Some Sg.Scalar_data -> I.Scalar (TV.leaf p.A.pname 0)
      | Some (Sg.Arr _ as spec) ->
          let n = Sg.n_cells ~sizes spec in
          I.Array (Array.init n (fun k -> TV.leaf p.A.pname k))
      | None ->
          failwith
            (Printf.sprintf "parameter '%s' missing from signature" p.A.pname)
    in
    let args = List.map arg_of func.A.params in
    match I.run func ~args with
    | Error e -> Error (Trace_failed e)
    | Ok () -> (
        let rec out_arg ps args =
          match (ps, args) with
          | (p : A.param) :: ps', a :: args' ->
              if String.equal p.A.pname sg.Sg.out then a else out_arg ps' args'
          | _ -> failwith "output parameter not bound"
        in
        match out_arg func.A.params args with
        | I.Array cells -> Ok (Array.map TV.dag_of cells)
        | I.Scalar _ -> failwith "output parameter is not an array")
  with Failure e -> Error (Trace_failed e)

let rec eval_dag ~inputs = function
  | Leaf (p, k) -> (List.assoc p inputs).(k)
  | Cst c -> c
  | Neg d -> Rat.neg (eval_dag ~inputs d)
  | Bin (op, a, b) -> (
      let x = eval_dag ~inputs a and y = eval_dag ~inputs b in
      match op with
      | T.Add -> Rat.add x y
      | T.Sub -> Rat.sub x y
      | T.Mul -> Rat.mul x y
      | T.Div -> Rat.div x y)

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

type ctx = {
  vmap : (int * string) list;  (** probe value -> loop variable (injective) *)
  shapes : (string * int array) list;  (** array parameter -> shape *)
  free : string list;  (** LHS index variables of the representative cell *)
}

(* Row-major inverse of [Signature.shape] linearization. *)
let decode_offset shape off =
  let n = Array.length shape in
  if Array.exists (fun d -> d <= 0) shape then None
  else
    let comps = Array.make n 0 in
    let rec go k off =
      if k < 0 then if off = 0 then Some comps else None
      else begin
        comps.(k) <- off mod shape.(k);
        go (k - 1) (off / shape.(k))
      end
    in
    go (n - 1) off

(* Decode one leaf into a tensor access, returning the (variable, axis
   extent) pair of every component. Fails when a component value is not a
   probe value — e.g. a constant index like [A[0]], which TACO index
   notation cannot express. *)
let decode_leaf ctx name off =
  match List.assoc_opt name ctx.shapes with
  | None -> if off = 0 then Some (T.Access (name, []), []) else None
  | Some shape -> (
      if Array.length shape = 0 then
        if off = 0 then Some (T.Access (name, []), []) else None
      else
        match decode_offset shape off with
        | None -> None
        | Some comps ->
            let rec map k idxs vars =
              if k = Array.length comps then
                Some (T.Access (name, List.rev idxs), List.rev vars)
              else
                match List.assoc_opt comps.(k) ctx.vmap with
                | None -> None
                | Some v -> map (k + 1) (v :: idxs) ((v, shape.(k)) :: vars)
            in
            map 0 [] [])

(* Split an additive DAG into signed summands, left-to-right. *)
let flatten d =
  let rec go sign d acc =
    match d with
    | Bin (T.Add, a, b) -> go sign b (go sign a acc)
    | Bin (T.Sub, a, b) -> go (not sign) b (go sign a acc)
    | Neg d -> go (not sign) d acc
    | t -> (sign, t) :: acc
  in
  List.rev (go true d [])

(* Offset-erased structural key: two summands of one unrolled reduction
   share it, summands of genuinely different terms do not. *)
let skeleton_key d =
  let b = Buffer.create 64 in
  let rec go = function
    | Leaf (p, _) ->
        Buffer.add_char b 'L';
        Buffer.add_string b p;
        Buffer.add_char b ';'
    | Cst c ->
        Buffer.add_char b 'C';
        Buffer.add_string b (Format.asprintf "%a" Rat.pp c);
        Buffer.add_char b ';'
    | Neg d ->
        Buffer.add_string b "N(";
        go d;
        Buffer.add_char b ')'
    | Bin (op, x, y) ->
        Buffer.add_char b 'B';
        Buffer.add_string b (T.op_to_string op);
        Buffer.add_char b '(';
        go x;
        Buffer.add_char b ',';
        go y;
        Buffer.add_char b ')'
  in
  go d;
  Buffer.contents b

(* Group summands by (sign, skeleton), preserving first-occurrence order. *)
let group_terms terms =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (sign, t) ->
      let key = (sign, skeleton_key t) in
      match Hashtbl.find_opt tbl key with
      | Some r -> r := t :: !r
      | None ->
          let r = ref [ t ] in
          Hashtbl.add tbl key r;
          order := (sign, r) :: !order)
    terms;
  List.rev_map (fun (sign, r) -> (sign, List.rev !r)) !order

(* Rename every index variable not in [free] by first appearance, fresh
   names drawn from r0, r1, ... skipping collisions with [free]. This is
   the canonical form under which decodes are compared, both across the
   alternative decodes of one group and across the two probe runs. *)
let canon_expr free e =
  let bound =
    List.filter (fun v -> not (List.mem v free)) (T.indices_of_expr e)
  in
  let k = ref 0 in
  let mapping =
    List.map
      (fun v ->
        let rec fresh () =
          let c = "r" ^ string_of_int !k in
          incr k;
          if List.mem c free then fresh () else c
        in
        (v, fresh ()))
      bound
  in
  let rec sub = function
    | T.Access (t, is) ->
        T.Access
          ( t,
            List.map
              (fun i ->
                match List.assoc_opt i mapping with Some r -> r | None -> i)
              is )
    | T.Const _ as c -> c
    | T.Neg e -> T.Neg (sub e)
    | T.Bin (op, a, b) -> T.Bin (op, sub a, sub b)
  in
  sub e

(* Decode one summand. The returned (var, extent) list carries every
   index variable whose multiplicity the ENCLOSING group must still
   account for: leaf components at this multiplicative level, plus
   whatever a nested additive sub-extraction could not consume itself. A
   reduction already validated by a nested group's own count check is
   consumed there and not propagated — so [sum_k A(k) * (sum_j B(j))]
   counts only k here, while [sum_i (A(i) - B(i))^2] propagates i out of
   its singleton sub-groups and counts it once. *)
let rec decode_term ctx (d : dag) =
  match d with
  | Leaf (p, k) -> decode_leaf ctx p k
  | Cst c -> Some (T.Const c, [])
  | Neg d ->
      Option.map (fun (e, vs) -> (T.Neg e, vs)) (decode_term ctx d)
  | Bin ((T.Mul | T.Div) as op, a, b) -> (
      match (decode_term ctx a, decode_term ctx b) with
      | Some (ea, va), Some (eb, vb) -> Some (T.Bin (op, ea, eb), va @ vb)
      | _ -> None)
  | Bin ((T.Add | T.Sub), _, _) -> (
      match extract_expr ctx d with
      | Ok (e, unconsumed) -> Some (e, unconsumed)
      | Error _ -> None)

and extract_expr ctx (d : dag) : (T.expr * (string * int) list, refusal) result
    =
  let groups = group_terms (flatten d) in
  let rec build acc vars = function
    | [] -> (
        match acc with
        | Some e -> Ok (e, List.rev vars)
        | None -> Error No_generic_term)
    | (sign, ts) :: rest -> (
        match group_expr ctx ts with
        | Error r -> Error r
        | Ok (e, vs) ->
            let acc' =
              match (acc, sign) with
              | None, true -> Some e
              | None, false -> Some (T.Neg e)
              | Some a, true -> Some (T.Bin (T.Add, a, e))
              | Some a, false -> Some (T.Bin (T.Sub, a, e))
            in
            build acc' (List.rev_append vs vars) rest)
  in
  build None [] groups

(* Re-roll one summand group of size n. A decode is viable when its fresh
   (non-free) index variables have consistent axis extents whose product
   is exactly n — i.e. the group is the full unrolling of that reduction
   nest. The probe sizes are pairwise distinct, so the count equation is
   discriminating; what it cannot discriminate, the second probe run
   does. *)
and group_expr ctx ts : (T.expr * (string * int) list, refusal) result =
  let n = List.length ts in
  match ts with
  | [ t ] -> (
      (* A singleton group ran exactly once: its variables are real but
         unconsumed — the enclosing group (if any) must count them. *)
      match decode_term ctx t with
      | Some (e, vs) -> Ok (e, vs)
      | None -> Error No_generic_term)
  | _ -> (
      let decs = List.filter_map (decode_term ctx) ts in
      if decs = [] then Error No_generic_term
      else
        let fresh_vars vs =
          let rec go seen acc = function
            | [] -> Some (List.rev acc)
            | (v, ext) :: rest ->
                if List.mem v ctx.free then go seen acc rest
                else (
                  match List.assoc_opt v seen with
                  | Some e -> if e = ext then go seen acc rest else None
                  | None -> go ((v, ext) :: seen) ((v, ext) :: acc) rest)
          in
          go [] [] vs
        in
        let viable =
          List.filter_map
            (fun (e, vs) ->
              match fresh_vars vs with
              | None | Some [] -> None
              | Some nvs ->
                  let prod =
                    List.fold_left (fun p (_, ext) -> p * ext) 1 nvs
                  in
                  if prod = n then Some e else None)
            decs
        in
        match viable with
        | e :: rest ->
            let c = canon_expr ctx.free e in
            if
              List.for_all
                (fun e' -> T.equal_expr c (canon_expr ctx.free e'))
                rest
            then Ok (e, []) (* the count check consumed the fresh vars *)
            else Error (Inconsistent "ambiguous reduction decode in a summand group")
        | [] ->
            (* Constant multiplicity: n identical iteration-independent
               summands, e.g. R[i] = A[i] + A[i]. A size-dependent n is
               killed by the cross-run comparison. *)
            let no_fresh vs =
              List.for_all (fun (v, _) -> List.mem v ctx.free) vs
            in
            if List.length decs = n then (
              match decs with
              | (e0, vs0) :: rest
                when no_fresh vs0
                     && List.for_all
                          (fun (e, vs) -> no_fresh vs && T.equal_expr e e0)
                          rest ->
                  Ok (T.Bin (T.Mul, T.Const (Rat.of_int n), e0), [])
              | _ ->
                  Error
                    (Inconsistent
                       "summand group admits no uniform per-iteration decode"))
            else
              Error
                (Inconsistent
                   "summand group admits no uniform per-iteration decode"))

let rec mentions_param name = function
  | Leaf (p, _) -> String.equal p name
  | Cst _ -> false
  | Neg d -> mentions_param name d
  | Bin (_, a, b) -> mentions_param name a || mentions_param name b

let canon_program (p : T.program) : T.program =
  let _, lhs_idxs = p.T.lhs in
  { p with T.rhs = canon_expr lhs_idxs p.T.rhs }

(* One probe run: trace under an injective value assignment, pick the
   representative output cell, extract. The representative is the written
   cell whose decoded index tuple consists of pairwise-distinct loop
   variables and is lexicographically least in [ft_loop_vars] position
   order — a rule that names the SAME cell under both probe assignments. *)
let run_extract (func : A.func) (sg : Sg.t) ~loop_vars ~var_value ~size_value =
  let size_names = Sg.size_names sg in
  let sizes = List.mapi (fun k s -> (s, size_value k)) size_names in
  let vmap = List.mapi (fun i v -> (var_value i, v)) loop_vars in
  match trace_cells func sg ~sizes with
  | Error r -> Error r
  | Ok dags -> (
      let out = sg.Sg.out in
      let shape =
        try Sg.shape ~sizes (Sg.out_spec sg) with Failure _ -> [| -1 |]
      in
      if shape = [| -1 |] then Error (Trace_failed "unresolvable output shape")
      else
        let shapes =
          List.filter_map
            (fun (name, sp) ->
              match sp with
              | Sg.Arr _ -> Some (name, Sg.shape ~sizes sp)
              | Sg.Size _ | Sg.Scalar_data -> None)
            sg.Sg.args
        in
        let written = ref [] in
        Array.iteri
          (fun off d ->
            match d with
            | Leaf (p, k) when String.equal p out && k = off -> ()
            | _ -> written := (off, d) :: !written)
          dags;
        let written = List.rev !written in
        if written = [] then Error Output_unwritten
        else
          let pos v =
            let rec go k = function
              | [] -> max_int
              | v' :: rest -> if String.equal v v' then k else go (k + 1) rest
            in
            go 0 loop_vars
          in
          let candidates =
            List.filter_map
              (fun (off, d) ->
                match decode_offset shape off with
                | None -> None
                | Some comps ->
                    let rec go k vars =
                      if k = Array.length comps then Some (List.rev vars)
                      else
                        match List.assoc_opt comps.(k) vmap with
                        | None -> None
                        | Some v -> go (k + 1) (v :: vars)
                    in
                    (match go 0 [] with
                    | Some vars
                      when List.length (List.sort_uniq compare vars)
                           = List.length vars ->
                        Some (d, vars, List.map pos vars)
                    | _ -> None))
              written
          in
          match candidates with
          | [] -> Error No_generic_cell
          | first :: rest ->
              let d, vars, _ =
                List.fold_left
                  (fun ((_, _, rb) as best) ((_, _, rc) as c) ->
                    if compare rc rb < 0 then c else best)
                  first rest
              in
              if mentions_param out d then Error (Output_read out)
              else
                let ctx = { vmap; shapes; free = vars } in
                (match extract_expr ctx d with
                | Error r -> Error r
                | Ok (rhs, _) ->
                    Ok (canon_program { T.lhs = (out, vars); T.rhs = rhs })))

let skeletons (func : A.func) (sg : Sg.t) =
  let facts = Stagg_minic.Facts.analyze func in
  (* The scan class comes first and is independent of extraction: Depend
     already proved the store reads an earlier iteration's write, which no
     einsum expresses — silently mis-tracing it as a reduction is the bug
     this refusal exists to prevent. *)
  let scan =
    List.find_map
      (fun (s : Stagg_minic.Depend.store_info) ->
        if List.exists (fun (_, k) -> k > 0) s.Stagg_minic.Depend.st_stencils
        then Some s.Stagg_minic.Depend.st_base
        else None)
      facts.Stagg_minic.Facts.ft_stores
  in
  match scan with
  | Some base -> Error (Scan base)
  | None -> (
      let loop_vars = facts.Stagg_minic.Facts.ft_loop_vars in
      let nvars = List.length loop_vars in
      let probe = run_extract func sg ~loop_vars in
      (* The second probe can only confirm or contradict the first, so it
         runs only when the first yields a program the template space can
         hold: after a refusal or an untemplatizable program no second
         result can change the answer, and the second probe, at about
         twice the sizes, is most of the call's cost. *)
      match
        probe ~var_value:(fun i -> i + 1) ~size_value:(fun k -> nvars + 2 + k)
      with
      | Error r -> Error r
      | Ok p1 when Stagg_template.Templatize.templatize p1 = None ->
          Error
            (Outside_template_space
               {
                 index_vars = List.length (T.indices_of_program p1);
                 rhs_tensors = List.length (T.tensors_in_order p1) - 1;
               })
      | Ok p1 -> (
          match
            probe
              ~var_value:(fun i -> 2 * (nvars - i))
              ~size_value:(fun k -> (2 * nvars) + 2 + k)
          with
          | Error r -> Error r
          | Ok p2 ->
              if T.equal_program p1 p2 then Ok [ p1 ]
              else
                Error
                  (Inconsistent
                     "the two probe runs decode to different programs")))
