(* A polynomial is a sorted association list from monomials to nonzero
   integer coefficients; a monomial is a sorted list of variable names
   (with repetition for powers). The representation is canonical, so
   structural equality coincides with semantic equality. *)

type monomial = string list

type t = (monomial * int) list

let zero : t = []

let const k : t = if k = 0 then [] else [ ([], k) ]

let var v : t = [ ([ v ], 1) ]

let normalize (terms : t) : t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (m, c) ->
      let m = List.sort String.compare m in
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl m) in
      Hashtbl.replace tbl m (cur + c))
    terms;
  Hashtbl.fold (fun m c acc -> if c = 0 then acc else (m, c) :: acc) tbl []
  |> List.sort (fun (m1, _) (m2, _) -> compare m1 m2)

let add a b = normalize (a @ b)
let neg a = List.map (fun (m, c) -> (m, -c)) a
let sub a b = add a (neg b)
let scale k a = if k = 0 then [] else normalize (List.map (fun (m, c) -> (m, k * c)) a)

let mul a b =
  normalize (List.concat_map (fun (ma, ca) -> List.map (fun (mb, cb) -> (ma @ mb, ca * cb)) b) a)

let equal (a : t) (b : t) = a = b

let is_const = function
  | [] -> Some 0
  | [ ([], k) ] -> Some k
  | _ -> None

let vars (p : t) =
  let seen = Hashtbl.create 8 in
  List.iter (fun (m, _) -> List.iter (fun v -> Hashtbl.replace seen v ()) m) p;
  Hashtbl.fold (fun v () acc -> v :: acc) seen [] |> List.sort String.compare

let mentions p v = List.exists (fun (m, _) -> List.mem v m) p

let subst p v q =
  List.fold_left
    (fun acc (m, c) ->
      let rec expand m =
        match m with
        | [] -> const 1
        | x :: rest ->
            let tail = expand rest in
            if String.equal x v then mul q tail else mul (var x) tail
      in
      add acc (scale c (expand m)))
    zero p

let to_string (p : t) =
  if p = [] then "0"
  else
    String.concat " + "
      (List.map
         (fun (m, c) ->
           match (m, c) with
           | [], k -> string_of_int k
           | m, 1 -> String.concat "*" m
           | m, -1 -> "-" ^ String.concat "*" m
           | m, k -> string_of_int k ^ "*" ^ String.concat "*" m)
         p)
