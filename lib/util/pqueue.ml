(* Binary min-heap over (priority, seq, value); [seq] breaks ties FIFO.

   Stored as three parallel arrays of unboxed scalars — float
   priorities, int sequences, int values — rather than an array of
   records: a push allocates nothing (a record with a float field would
   box the float on every push — the searches push tens of millions of
   frontier entries), the sift comparisons walk one contiguous float
   array, and since no slot holds a pointer, a store is a plain write
   (no [caml_modify]) and a vacated slot can retain nothing.

   Both sifts move a hole instead of swapping: the element being placed
   is held in locals while the elements it passes shift one level, and
   it is written once, into the slot where the hole stops. *)

type t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable value : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { prio = [||]; seq = [||]; value = [||]; size = 0; next_seq = 0 }
let is_empty q = q.size = 0
let length q = q.size

let top_prio q = q.prio.(0)
let top_seq q = q.seq.(0)
let top_value q = q.value.(0)

(* compared here rather than by the caller: [top_prio] returns a boxed
   float across the module boundary *)
let precedes a b =
  let pa = a.prio.(0) and pb = b.prio.(0) in
  pa < pb || (pa = pb && a.seq.(0) < b.seq.(0))

let grow q =
  let cap = Array.length q.prio in
  if q.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let np = Array.make ncap 0. in
    Array.blit q.prio 0 np 0 q.size;
    q.prio <- np;
    let ns = Array.make ncap 0 in
    Array.blit q.seq 0 ns 0 q.size;
    q.seq <- ns;
    let nv = Array.make ncap 0 in
    Array.blit q.value 0 nv 0 q.size;
    q.value <- nv
  end

let push_seq q p s v =
  grow q;
  let prio = q.prio and seq = q.seq and value = q.value in
  (* sift up: the hole starts at the new last slot *)
  let i = ref q.size in
  q.size <- q.size + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = prio.(parent) in
    if p < pp || (p = pp && s < seq.(parent)) then begin
      prio.(!i) <- pp;
      seq.(!i) <- seq.(parent);
      value.(!i) <- value.(parent);
      i := parent
    end
    else continue_ := false
  done;
  prio.(!i) <- p;
  seq.(!i) <- s;
  value.(!i) <- v

let push q p v =
  push_seq q p q.next_seq v;
  q.next_seq <- q.next_seq + 1

let drop q =
  if q.size = 0 then invalid_arg "Pqueue.drop: empty queue";
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    let prio = q.prio and seq = q.seq and value = q.value in
    (* sift down: the last element moves into the hole left at the root *)
    let p = prio.(n) and s = seq.(n) and v = value.(n) in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= n then continue_ := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (prio.(r) < prio.(l) || (prio.(r) = prio.(l) && seq.(r) < seq.(l))) then r
          else l
        in
        let cp = prio.(c) in
        if cp < p || (cp = p && seq.(c) < s) then begin
          prio.(!i) <- cp;
          seq.(!i) <- seq.(c);
          value.(!i) <- value.(c);
          i := c
        end
        else continue_ := false
      end
    done;
    prio.(!i) <- p;
    seq.(!i) <- s;
    value.(!i) <- v
  end
