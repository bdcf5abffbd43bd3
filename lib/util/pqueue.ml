(* Binary min-heap over (priority, seq, value); [seq] breaks ties FIFO.

   Stored as parallel arrays rather than an array of records: the
   priorities live in an unboxed float array, so a push allocates nothing
   (a record with a float field would box the float on every push — the
   searches push tens of millions of frontier entries), and the sift
   comparisons walk one contiguous float array.

   Every slot outside [0, size) holds [dummy]. Without that discipline a
   pop leaves the vacated slot pointing at whatever lived there before
   the swap, and [grow]'s [Array.make] pins the triggering push's value
   in every unused slot — on a frontier that grew to millions of entries
   the dead region retains popped values — for the A* frontier, each
   popped child's parent entry and everything it reaches — until
   [clear], which the GC cannot see past. *)

type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable value : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ~dummy = { prio = [||]; seq = [||]; value = [||]; size = 0; next_seq = 0; dummy }
let is_empty q = q.size = 0
let length q = q.size

let top_prio q = q.prio.(0)
let top_seq q = q.seq.(0)

let less q i j = q.prio.(i) < q.prio.(j) || (q.prio.(i) = q.prio.(j) && q.seq.(i) < q.seq.(j))

let swap q i j =
  let p = q.prio.(i) in
  q.prio.(i) <- q.prio.(j);
  q.prio.(j) <- p;
  let s = q.seq.(i) in
  q.seq.(i) <- q.seq.(j);
  q.seq.(j) <- s;
  let v = q.value.(i) in
  q.value.(i) <- q.value.(j);
  q.value.(j) <- v

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
    let nv = Array.make ncap q.dummy in
    Array.blit q.value 0 nv 0 q.size;
    q.value <- nv
  end

let push_seq q prio seq value =
  grow q;
  let i = ref q.size in
  q.prio.(!i) <- prio;
  q.seq.(!i) <- seq;
  q.value.(!i) <- value;
  q.size <- q.size + 1;
  (* sift up *)
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less q !i parent then begin
      swap q !i parent;
      i := parent
    end
    else continue_ := false
  done

let push q prio value =
  push_seq q prio q.next_seq value;
  q.next_seq <- q.next_seq + 1

let peek q = if q.size = 0 then None else Some (q.prio.(0), q.value.(0))

let pop q =
  if q.size = 0 then None
  else begin
    let prio = q.prio.(0) and value = q.value.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.prio.(0) <- q.prio.(q.size);
      q.seq.(0) <- q.seq.(q.size);
      q.value.(0) <- q.value.(q.size);
      (* sift down *)
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < q.size && less q l !smallest then smallest := l;
        if r < q.size && less q r !smallest then smallest := r;
        if !smallest <> !i then begin
          swap q !smallest !i;
          i := !smallest
        end
        else continue_ := false
      done
    end;
    (* the vacated slot (or slot 0 when the heap just emptied) must not
       keep the old value reachable *)
    q.value.(q.size) <- q.dummy;
    Some (prio, value)
  end

let clear q =
  q.size <- 0;
  q.prio <- [||];
  q.seq <- [||];
  q.value <- [||]
