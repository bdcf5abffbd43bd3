open Stagg_taco.Ast

let const_symbol = "Const"
let is_const_symbol = String.equal const_symbol

let canonical_indices = [ "i"; "j"; "k"; "l" ]
let max_index_vars = List.length canonical_indices
let max_rhs_tensors = 25

let templatize (p : program) : program option =
  (* tensor templatization: LHS ↦ a, then RHS tensors by first appearance *)
  let tensor_map = Hashtbl.create 8 in
  let next_tensor = ref 0 in
  let map_tensor name =
    match Hashtbl.find_opt tensor_map name with
    | Some s -> Some s
    | None ->
        if !next_tensor > max_rhs_tensors then None
        else begin
          let s = String.make 1 (Char.chr (Char.code 'a' + !next_tensor)) in
          incr next_tensor;
          Hashtbl.add tensor_map name s;
          Some s
        end
  in
  (* index standardization: by first appearance, LHS first *)
  let index_map = Hashtbl.create 8 in
  let next_index = ref 0 in
  let map_index i =
    match Hashtbl.find_opt index_map i with
    | Some s -> Some s
    | None ->
        if !next_index >= max_index_vars then None
        else begin
          let s = List.nth canonical_indices !next_index in
          incr next_index;
          Hashtbl.add index_map i s;
          Some s
        end
  in
  let ( let* ) = Option.bind in
  let rec map_indices = function
    | [] -> Some []
    | i :: rest ->
        let* i' = map_index i in
        let* rest' = map_indices rest in
        Some (i' :: rest')
  in
  let rec go (e : expr) : expr option =
    match e with
    | Const _ -> Some (Access (const_symbol, []))
    | Access (name, idxs) ->
        let* name' = map_tensor name in
        let* idxs' = map_indices idxs in
        Some (Access (name', idxs'))
    | Neg e ->
        let* e' = go e in
        Some (Neg e')
    | Bin (op, a, b) ->
        let* a' = go a in
        let* b' = go b in
        Some (Bin (op, a', b'))
  in
  let lhs_name, lhs_idxs = p.lhs in
  let* lhs_name' = map_tensor lhs_name in
  let* lhs_idxs' = map_indices lhs_idxs in
  let* rhs' = go p.rhs in
  Some { lhs = (lhs_name', lhs_idxs'); rhs = rhs' }

let rename (p : program) ~mapping ~const =
  let map_name name =
    if is_const_symbol name then name
    else
      match List.assoc_opt name mapping with
      | Some n -> n
      | None -> failwith (Printf.sprintf "Templatize.rename: no binding for symbol %s" name)
  in
  let rec go = function
    | Const c -> Const c
    | Access (name, []) when is_const_symbol name -> (
        match const with
        | Some c -> Const c
        | None -> failwith "Templatize.rename: template has Const but no constant was given")
    | Access (name, idxs) -> Access (map_name name, idxs)
    | Neg e -> Neg (go e)
    | Bin (op, a, b) -> Bin (op, go a, go b)
  in
  let lhs_name, lhs_idxs = p.lhs in
  { lhs = (map_name lhs_name, lhs_idxs); rhs = go p.rhs }

let symbols (p : program) : (string * int) list =
  List.filter (fun (n, _) -> not (is_const_symbol n)) (tensors_in_order p)

let has_const (p : program) : bool =
  let rec go = function
    | Const _ -> true
    | Access (n, []) -> is_const_symbol n
    | Access _ -> false
    | Neg e -> go e
    | Bin (_, a, b) -> go a || go b
  in
  go p.rhs

let arity_consistent (p : program) : bool =
  let arities = Hashtbl.create 8 in
  let ok = ref true in
  let visit name arity =
    match Hashtbl.find_opt arities name with
    | None -> Hashtbl.add arities name arity
    | Some a -> if a <> arity then ok := false
  in
  let rec go = function
    | Const _ -> ()
    | Access (n, idxs) -> visit n (List.length idxs)
    | Neg e -> go e
    | Bin (_, a, b) ->
        go a;
        go b
  in
  let lhs_name, lhs_idxs = p.lhs in
  visit lhs_name (List.length lhs_idxs);
  go p.rhs;
  !ok
