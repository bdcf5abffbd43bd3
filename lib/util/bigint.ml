(* Arbitrary-precision signed integers: sign-magnitude over base-2^30 limbs.

   Invariants:
   - [mag] is little-endian, has no trailing (most-significant) zero limbs;
   - the value zero is represented by [{ sign = 0; mag = [||] }];
   - [sign] is -1, 0 or 1 and is 0 iff [mag] is empty. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* ---- magnitude helpers (arrays of limbs, no sign) ---- *)

let mag_normalize (a : int array) : int array =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r.(l) <- !carry;
  mag_normalize r

(* precondition: a >= b *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then (
      r.(i) <- s + base;
      borrow := 1)
    else (
      r.(i) <- s;
      borrow := 0)
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        (* ai, b.(j) < 2^30 so the product fits comfortably in a 63-bit int *)
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land base_mask;
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land base_mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    mag_normalize r
  end

(* multiply magnitude by a small int (0 <= m < base) *)
let mag_mul_small a m =
  if m = 0 then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let s = (a.(i) * m) + !carry in
      r.(i) <- s land base_mask;
      carry := s lsr base_bits
    done;
    r.(la) <- !carry;
    mag_normalize r
  end

(* divide magnitude by a small int, returning (quotient, remainder) *)
let mag_divmod_small a m =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / m;
    r := cur mod m
  done;
  (mag_normalize q, !r)

(* Long division of magnitudes: schoolbook, limb-estimation with correction.
   Returns (quotient, remainder). *)
let mag_divmod a b =
  if Array.length b = 0 then raise Division_by_zero;
  if mag_compare a b < 0 then ([||], a)
  else if Array.length b = 1 then begin
    let q, r = mag_divmod_small a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else begin
    (* Normalize so the top limb of the divisor is >= base/2. *)
    let shift = ref 0 in
    let top = b.(Array.length b - 1) in
    let t = ref top in
    while !t < base / 2 do
      t := !t lsl 1;
      incr shift
    done;
    let scale = 1 lsl !shift in
    let a' = mag_mul_small a scale and b' = mag_mul_small b scale in
    let n = Array.length b' in
    let m = Array.length a' - n in
    let rem = Array.make (Array.length a' + 1) 0 in
    Array.blit a' 0 rem 0 (Array.length a');
    let q = Array.make (m + 1) 0 in
    let b_top = b'.(n - 1) in
    let b_snd = if n >= 2 then b'.(n - 2) else 0 in
    for j = m downto 0 do
      (* Estimate q_j from the top two limbs of rem[j .. j+n]. *)
      let r2 = (rem.(j + n) lsl base_bits) lor rem.(j + n - 1) in
      let qhat = ref (Stdlib.min (r2 / b_top) (base - 1)) in
      let rhat = ref (r2 - (!qhat * b_top)) in
      let continue_ = ref true in
      while !continue_ && !rhat < base do
        (* check qhat * b_snd <= rhat*base + rem.(j+n-2) *)
        let lhs = !qhat * b_snd in
        let rhs = (!rhat lsl base_bits) lor (if j + n - 2 >= 0 then rem.(j + n - 2) else 0) in
        if lhs > rhs then (
          decr qhat;
          rhat := !rhat + b_top)
        else continue_ := false
      done;
      (* Multiply-subtract: rem[j..j+n] -= qhat * b'. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * b'.(i)) + !carry in
        carry := p lsr base_bits;
        let s = rem.(i + j) - (p land base_mask) - !borrow in
        if s < 0 then (
          rem.(i + j) <- s + base;
          borrow := 1)
        else (
          rem.(i + j) <- s;
          borrow := 0)
      done;
      let s = rem.(j + n) - !carry - !borrow in
      if s < 0 then begin
        (* qhat was one too large: add back. *)
        rem.(j + n) <- s + base;
        decr qhat;
        let carry2 = ref 0 in
        for i = 0 to n - 1 do
          let s2 = rem.(i + j) + b'.(i) + !carry2 in
          rem.(i + j) <- s2 land base_mask;
          carry2 := s2 lsr base_bits
        done;
        rem.(j + n) <- (rem.(j + n) + !carry2) land base_mask
      end
      else rem.(j + n) <- s;
      q.(j) <- !qhat
    done;
    let rem = mag_normalize (Array.sub rem 0 n) in
    let rem, r0 = if scale = 1 then (rem, 0) else mag_divmod_small rem scale in
    assert (r0 = 0);
    (mag_normalize q, rem)
  end

(* ---- signed interface ---- *)

let mk sign mag =
  let mag = mag_normalize mag in
  if Array.length mag = 0 then zero else { sign; mag }

(* Interned one-limb values: exact-rational evaluation builds the same
   small integers over and over, so sharing them makes [of_int]
   allocation-free on that path. Magnitudes are never mutated, so the
   shared [mag] arrays are safe; index 0 is unused ([zero] has the unique
   empty-magnitude representation). *)
let cache_limit = 1024
let pos_cache = Array.init cache_limit (fun i -> { sign = 1; mag = [| i |] })
let neg_cache = Array.init cache_limit (fun i -> { sign = -1; mag = [| i |] })

let of_int n =
  if n = 0 then zero
  else if n > 0 && n < cache_limit then pos_cache.(n)
  else if n < 0 && n > -cache_limit then neg_cache.(-n)
  else if n > -base && n < base then
    { sign = (if n < 0 then -1 else 1); mag = [| Stdlib.abs n |] }
  else begin
    let sign = if n < 0 then -1 else 1 in
    (* careful with min_int: build magnitude limb by limb using negative
       accumulator to avoid overflow on [abs min_int] *)
    let rec limbs acc n =
      (* n <= 0 here; we peel limbs of |n| *)
      if n = 0 then List.rev acc
      else
        let l = -(n mod base) in
        (* n mod base is in (-base, 0] for n <= 0 *)
        limbs (l :: acc) (n / base)
    in
    let l = limbs [] (if n > 0 then -n else n) in
    { sign; mag = Array.of_list l |> mag_normalize }
  end

let one = of_int 1
let minus_one = of_int (-1)

let to_int t =
  (* max_int has 62 bits = at most 3 limbs of 30 bits *)
  if Array.length t.mag > 3 then None
  else begin
    let v = ref 0 and overflow = ref false in
    for i = Array.length t.mag - 1 downto 0 do
      if !v > (max_int - t.mag.(i)) / base then overflow := true
      else v := (!v * base) + t.mag.(i)
    done;
    if !overflow then None else Some (t.sign * !v)
  end

let[@inline] to_small t =
  match Array.length t.mag with
  | 0 -> 0
  | 1 -> t.sign * t.mag.(0)
  | _ -> Stdlib.min_int

let to_int_exn t =
  match to_int t with Some n -> n | None -> failwith "Bigint.to_int_exn: out of range"

let is_zero t = t.sign = 0
let sign t = t.sign
let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then mk a.sign (mag_add a.mag b.mag)
  else
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then mk a.sign (mag_sub a.mag b.mag)
    else mk b.sign (mag_sub b.mag a.mag)

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero else mk (a.sign * b.sign) (mag_mul a.mag b.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = mag_divmod a.mag b.mag in
  (* truncated division: quotient sign = product of signs, remainder sign = dividend's *)
  (mk (a.sign * b.sign) q, mk a.sign r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd_mag a b = if Array.length b = 0 then a else gcd_mag b (snd (mag_divmod a b))

let gcd a b =
  let g = gcd_mag (abs a).mag (abs b).mag in
  mk 1 g

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc b) (mul b b) (e lsr 1)
    else go acc (mul b b) (e lsr 1)
  in
  go one b e

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

(* interning (see [of_int]) makes physical equality a frequent hit *)
let equal a b = a == b || compare a b = 0

let hash t = Hashtbl.hash (t.sign, t.mag)

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 16 in
    let rec go mag =
      if Array.length mag = 0 then ()
      else begin
        let q, r = mag_divmod_small mag 1_000_000_000 in
        if Array.length q = 0 then Buffer.add_string buf (string_of_int r)
        else begin
          go q;
          Buffer.add_string buf (Printf.sprintf "%09d" r)
        end
      end
    in
    go t.mag;
    (if t.sign < 0 then "-" else "") ^ Buffer.contents buf
  end

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty string";
  let neg_sign, start =
    match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0)
  in
  if start >= n then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let chunk = ref 0 and chunk_len = ref 0 in
  let flush () =
    if !chunk_len > 0 then begin
      let mult = of_int (int_of_float (10. ** float_of_int !chunk_len)) in
      acc := add (mul !acc mult) (of_int !chunk);
      chunk := 0;
      chunk_len := 0
    end
  in
  for i = start to n - 1 do
    match s.[i] with
    | '0' .. '9' as c ->
        chunk := (!chunk * 10) + (Char.code c - Char.code '0');
        incr chunk_len;
        if !chunk_len = 9 then flush ()
    | c -> invalid_arg (Printf.sprintf "Bigint.of_string: invalid character %C" c)
  done;
  flush ();
  if neg_sign then neg !acc else !acc
