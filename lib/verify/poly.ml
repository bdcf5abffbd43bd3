open Stagg_util

(* Normalized-monomial representation: a polynomial is a sorted array of
   (monomial, nonzero coefficient) pairs, a monomial a sorted array of
   variable names (repetition encodes powers). Every operation *preserves*
   normalization — add is a linear merge of two sorted term arrays and mul
   merges sorted monomials pairwise then combines one sorted run — so
   nothing ever rebuilds a hash table or re-sorts an association list the
   way the old per-operation [normalize] did. Constant factors (the
   overwhelmingly common case in BMC arithmetic: loop counters, literal
   coefficients, denominator folding) scale coefficients in place, riding
   the machine-int fast paths of {!Rat}. *)

type monomial = string array

type t = (monomial * Rat.t) array

(* Same order as the old sorted association list (element-wise
   [String.compare], a strict prefix sorts first), so [to_string] prints
   terms in the historical order. *)
let compare_mono (a : monomial) (b : monomial) =
  let la = Array.length a and lb = Array.length b in
  let n = if la < lb then la else lb in
  let rec go i =
    if i = n then compare la lb
    else
      let c = String.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let zero : t = [||]
let const c : t = if Rat.is_zero c then [||] else [| ([||], c) |]
let one = const Rat.one
let of_int n = const (Rat.of_int n)
let var v : t = [| ([| v |], Rat.one) |]

let is_zero (p : t) = Array.length p = 0

let is_const : t -> Rat.t option = function
  | [||] -> Some Rat.zero
  | [| ([||], c) |] -> Some c
  | _ -> None

let is_one : t -> bool = function [| ([||], c) |] -> Rat.is_one c | _ -> false

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) a.(0) in
    let k = ref 0 and i = ref 0 and j = ref 0 in
    while !i < la && !j < lb do
      let ((ma, ca) as ta) = a.(!i) and ((mb, cb) as tb) = b.(!j) in
      let c = compare_mono ma mb in
      if c < 0 then begin
        out.(!k) <- ta;
        incr k;
        incr i
      end
      else if c > 0 then begin
        out.(!k) <- tb;
        incr k;
        incr j
      end
      else begin
        let s = Rat.add ca cb in
        if not (Rat.is_zero s) then begin
          out.(!k) <- (ma, s);
          incr k
        end;
        incr i;
        incr j
      end
    done;
    while !i < la do
      out.(!k) <- a.(!i);
      incr k;
      incr i
    done;
    while !j < lb do
      out.(!k) <- b.(!j);
      incr k;
      incr j
    done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

let neg (a : t) : t = Array.map (fun (m, c) -> (m, Rat.neg c)) a
let sub a b = add a (neg b)

(* Product of two sorted monomials: an ordinary sorted merge. *)
let mul_mono (a : monomial) (b : monomial) : monomial =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) a.(0) in
    let k = ref 0 and i = ref 0 and j = ref 0 in
    while !i < la && !j < lb do
      if String.compare a.(!i) b.(!j) <= 0 then begin
        out.(!k) <- a.(!i);
        incr i
      end
      else begin
        out.(!k) <- b.(!j);
        incr j
      end;
      incr k
    done;
    while !i < la do
      out.(!k) <- a.(!i);
      incr k;
      incr i
    done;
    while !j < lb do
      out.(!k) <- b.(!j);
      incr k;
      incr j
    done;
    out
  end

(* Scale by a nonzero constant; multiplying by 1 is the identity. *)
let scale c (p : t) : t =
  if Rat.is_one c then p else Array.map (fun (m, k) -> (m, Rat.mul k c)) p

let mul (a : t) (b : t) : t =
  if Array.length a = 0 || Array.length b = 0 then [||]
  else
    match (a, b) with
    | [| ([||], c) |], p | p, [| ([||], c) |] -> scale c p
    | _ ->
        let la = Array.length a and lb = Array.length b in
        let n = la * lb in
        let prods = Array.make n a.(0) in
        for i = 0 to la - 1 do
          let ma, ca = a.(i) in
          for j = 0 to lb - 1 do
            let mb, cb = b.(j) in
            prods.((i * lb) + j) <- (mul_mono ma mb, Rat.mul ca cb)
          done
        done;
        Array.sort (fun (m1, _) (m2, _) -> compare_mono m1 m2) prods;
        (* combine the sorted run: sum equal monomials, drop cancellations *)
        let out = Array.make n prods.(0) in
        let k = ref 0 and i = ref 0 in
        while !i < n do
          let m, c = prods.(!i) in
          let acc = ref c in
          incr i;
          while !i < n && compare_mono (fst prods.(!i)) m = 0 do
            acc := Rat.add !acc (snd prods.(!i));
            incr i
          done;
          if not (Rat.is_zero !acc) then begin
            out.(!k) <- (m, !acc);
            incr k
          end
        done;
        if !k = n then out else Array.sub out 0 !k

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  && begin
       let rec go i =
         i = Array.length a
         ||
         let m1, c1 = a.(i) and m2, c2 = b.(i) in
         compare_mono m1 m2 = 0 && Rat.equal c1 c2 && go (i + 1)
       in
       go 0
     end

let n_terms (p : t) = Array.length p

let vars (p : t) =
  let seen = Hashtbl.create 8 in
  Array.iter (fun (m, _) -> Array.iter (fun v -> Hashtbl.replace seen v ()) m) p;
  Hashtbl.fold (fun v () acc -> v :: acc) seen [] |> List.sort String.compare

let to_string (p : t) =
  if Array.length p = 0 then "0"
  else
    String.concat " + "
      (List.map
         (fun (m, c) ->
           match m with
           | [||] -> Rat.to_string c
           | _ when Rat.is_one c -> String.concat "*" (Array.to_list m)
           | _ -> Rat.to_string c ^ "*" ^ String.concat "*" (Array.to_list m))
         (Array.to_list p))

let eval (p : t) lookup =
  Array.fold_left
    (fun acc (m, c) ->
      Rat.add acc (Array.fold_left (fun v x -> Rat.mul v (lookup x)) c m))
    Rat.zero p
