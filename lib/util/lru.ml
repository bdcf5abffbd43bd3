(* Hash table + intrusive doubly-linked recency list with a sentinel
   node: [sentinel.next] is most-recent, [sentinel.prev] least-recent.
   Every operation is O(1); nodes are reused on replacement so a hot
   working set allocates nothing after warm-up. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node;
  mutable next : ('k, 'v) node;
}

type ('k, 'v) t = {
  cap : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable sentinel : ('k, 'v) node option;
      (** allocated lazily on the first [add] — a sentinel needs a key of
          type ['k] and we have none until then *)
}

let create ~cap = { cap = max 1 cap; tbl = Hashtbl.create 64; sentinel = None }
let capacity t = t.cap
let length t = Hashtbl.length t.tbl

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

(* insert [n] right after the sentinel: most-recently-used *)
let link_front s n =
  n.next <- s.next;
  n.prev <- s;
  s.next.prev <- n;
  s.next <- n

let promote s n =
  if s.next != n then begin
    unlink n;
    link_front s n
  end

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some n ->
      (match t.sentinel with Some s -> promote s n | None -> ());
      Some n.value

let mem t k = Hashtbl.mem t.tbl k

let add t k v =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      n.value <- v;
      (match t.sentinel with Some s -> promote s n | None -> ());
      None
  | None ->
      let s =
        match t.sentinel with
        | Some s -> s
        | None ->
            let rec s = { key = k; value = v; prev = s; next = s } in
            t.sentinel <- Some s;
            s
      in
      let n = { key = k; value = v; prev = s; next = s } in
      link_front s n;
      Hashtbl.replace t.tbl k n;
      if Hashtbl.length t.tbl > t.cap then begin
        let lru = s.prev in
        unlink lru;
        Hashtbl.remove t.tbl lru.key;
        Some (lru.key, lru.value)
      end
      else None

let remove t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> ()
  | Some n ->
      unlink n;
      Hashtbl.remove t.tbl k
