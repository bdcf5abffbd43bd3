type t = { num : Bigint.t; den : Bigint.t }

let zero = { num = Bigint.zero; den = Bigint.one }

(* Small-operand fast path. When every numerator and denominator fits in a
   single bigint limb (|v| < 2^30), cross-products fit in 60 bits and their
   sums in 61 — inside OCaml's 63-bit native int — so normalization can run
   on machine integers with a machine-int gcd, skipping the limb-array
   arithmetic entirely. This is the hot case on the validation path, where
   example tensors hold small integers. *)

let rec igcd a b = if b = 0 then a else igcd b (a mod b)

(* precondition: d > 0, and n/d exact in native ints. Integer results
   (d = 1, the common case on validation tensors) skip the gcd outright. *)
let mk_small n d =
  if n = 0 then zero
  else if d = 1 then { num = Bigint.of_int n; den = Bigint.one }
  else begin
    let g = igcd (Stdlib.abs n) d in
    if g = 1 then { num = Bigint.of_int n; den = Bigint.of_int d }
    else { num = Bigint.of_int (n / g); den = Bigint.of_int (d / g) }
  end

let[@inline] small b = Bigint.to_small b
let[@inline] is_big v = v = Stdlib.min_int

let make num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then zero
  else begin
    let n = small num and d = small den in
    if not (is_big n || is_big d) then mk_small (if d < 0 then -n else n) (Stdlib.abs d)
    else begin
      let num, den =
        if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den)
      in
      let g = Bigint.gcd num den in
      { num = Bigint.div num g; den = Bigint.div den g }
    end
  end
let one = { num = Bigint.one; den = Bigint.one }
let of_bigint n = { num = n; den = Bigint.one }
let of_int n = of_bigint (Bigint.of_int n)
let of_ints n d = make (Bigint.of_int n) (Bigint.of_int d)

let to_string t =
  if Bigint.equal t.den Bigint.one then Bigint.to_string t.num
  else Bigint.to_string t.num ^ "/" ^ Bigint.to_string t.den

let is_integer t = Bigint.equal t.den Bigint.one

let to_int t = if is_integer t then Bigint.to_int t.num else None

let neg t = { t with num = Bigint.neg t.num }

let add a b =
  let an = small a.num and ad = small a.den and bn = small b.num and bd = small b.den in
  if not (is_big an || is_big ad || is_big bn || is_big bd) then
    mk_small ((an * bd) + (bn * ad)) (ad * bd)
  else
    make
      (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
      (Bigint.mul a.den b.den)

let sub a b = add a (neg b)

let mul a b =
  let an = small a.num and ad = small a.den and bn = small b.num and bd = small b.den in
  if not (is_big an || is_big ad || is_big bn || is_big bd) then mk_small (an * bn) (ad * bd)
  else make (Bigint.mul a.num b.num) (Bigint.mul a.den b.den)

let inv t = make t.den t.num
let div a b = mul a (inv b)
let sign t = Bigint.sign t.num
let is_zero t = Bigint.is_zero t.num
let is_one t = Bigint.equal t.num Bigint.one && Bigint.equal t.den Bigint.one

let compare a b =
  let an = small a.num and ad = small a.den and bn = small b.num and bd = small b.den in
  if not (is_big an || is_big ad || is_big bn || is_big bd) then
    Stdlib.compare (an * bd) (bn * ad)
  else Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)
let equal a b = a == b || (Bigint.equal a.num b.num && Bigint.equal a.den b.den)
let pp fmt t = Format.pp_print_string fmt (to_string t)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
end
