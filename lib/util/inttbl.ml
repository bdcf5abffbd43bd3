(* Linear probing over parallel arrays: the keys in an [int array], the
   values in an unboxed [float array] and occupancy in [Bytes], so an
   entry costs no allocation and nothing the GC has to scan. The slot
   is the top bits of the key times an odd constant (Fibonacci hashing),
   and the table doubles before it is half full. *)

type t = {
  mutable keys : int array;
  mutable vals : float array;
  mutable used : Bytes.t;
  mutable bits : int;  (** log2 of the capacity *)
  mutable size : int;
}

let create_bits bits =
  let cap = 1 lsl bits in
  { keys = Array.make cap 0; vals = Array.make cap 0.; used = Bytes.make cap '\000'; bits; size = 0 }

let create () = create_bits 6
let length t = t.size
let home t key = (key * 0x1e3779b97f4a7c15) lsr (Sys.int_size - t.bits)

(* the slot holding [key], or the free slot where it would go *)
let probe t key =
  let mask = (1 lsl t.bits) - 1 in
  let i = ref (home t key) in
  while Bytes.get t.used !i <> '\000' && t.keys.(!i) <> key do
    i := (!i + 1) land mask
  done;
  !i

let occupied t i = Bytes.get t.used i <> '\000'
let mem t key = occupied t (probe t key)

let rec grow t =
  let keys = t.keys and vals = t.vals and used = t.used in
  let bigger = create_bits (t.bits + 1) in
  Array.iteri (fun i k -> if Bytes.get used i <> '\000' then replace bigger k vals.(i)) keys;
  t.keys <- bigger.keys;
  t.vals <- bigger.vals;
  t.used <- bigger.used;
  t.bits <- bigger.bits

(* bind [key] in the free slot [i] that [probe] returned for it *)
and insert t i key v =
  t.keys.(i) <- key;
  t.vals.(i) <- v;
  Bytes.set t.used i '\001';
  t.size <- t.size + 1;
  if 2 * t.size > 1 lsl t.bits then grow t

and replace t key v =
  let i = probe t key in
  if occupied t i then t.vals.(i) <- v else insert t i key v

let find t key ~default =
  let i = probe t key in
  if occupied t i then t.vals.(i) else default
