(* Tests for stagg_util: Bigint, Rat, Pqueue, Pool, Lru, Inttbl, Prng. *)

open Stagg_util

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- Bigint ---- *)

let bi = Bigint.of_int

let test_bigint_basic () =
  check_string "zero" "0" (Bigint.to_string Bigint.zero);
  check_string "small" "42" (Bigint.to_string (bi 42));
  check_string "negative" "-42" (Bigint.to_string (bi (-42)));
  check_string "add" "100" (Bigint.to_string (Bigint.add (bi 58) (bi 42)));
  check_string "sub to negative" "-16" (Bigint.to_string (Bigint.sub (bi 42) (bi 58)));
  check_string "mul" "2436" (Bigint.to_string (Bigint.mul (bi 58) (bi 42)));
  check_bool "equal" true (Bigint.equal (bi 7) (bi 7));
  check_int "compare" (-1) (Bigint.compare (bi 3) (bi 4));
  check_int "sign neg" (-1) (Bigint.sign (bi (-9)));
  check_int "sign zero" 0 (Bigint.sign Bigint.zero)

let test_bigint_large () =
  (* values far beyond a 63-bit int *)
  let a = Bigint.of_string "123456789012345678901234567890" in
  let b = Bigint.of_string "987654321098765432109876543210" in
  check_string "big add" "1111111110111111111011111111100" (Bigint.to_string (Bigint.add a b));
  check_string "big mul"
    "121932631137021795226185032733622923332237463801111263526900"
    (Bigint.to_string (Bigint.mul a b));
  check_string "string round trip" "123456789012345678901234567890" (Bigint.to_string a);
  check_bool "to_int overflows" true (Bigint.to_int a = None);
  check_int "to_int small" (-37) (Bigint.to_int_exn (bi (-37)))

let test_bigint_divmod () =
  let q, r = Bigint.divmod (bi 17) (bi 5) in
  check_string "q" "3" (Bigint.to_string q);
  check_string "r" "2" (Bigint.to_string r);
  (* truncated division: remainder takes the dividend's sign *)
  let q, r = Bigint.divmod (bi (-17)) (bi 5) in
  check_string "q neg" "-3" (Bigint.to_string q);
  check_string "r neg" "-2" (Bigint.to_string r);
  let q, r = Bigint.divmod (bi 17) (bi (-5)) in
  check_string "q negdiv" "-3" (Bigint.to_string q);
  check_string "r negdiv" "2" (Bigint.to_string r);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bigint.divmod (bi 1) Bigint.zero))

let test_bigint_gcd_pow () =
  check_string "gcd" "6" (Bigint.to_string (Bigint.gcd (bi 54) (bi (-24))));
  check_string "gcd zero" "5" (Bigint.to_string (Bigint.gcd Bigint.zero (bi 5)));
  check_string "pow" "1024" (Bigint.to_string (Bigint.pow (bi 2) 10));
  check_string "pow zero exp" "1" (Bigint.to_string (Bigint.pow (bi 99) 0));
  check_string "pow of ten" "100000000000000000000" (Bigint.to_string (Bigint.pow (bi 10) 20))

let arb_int_pair = QCheck.pair (QCheck.int_range (-1_000_000) 1_000_000) (QCheck.int_range (-1_000_000) 1_000_000)

let qcheck_bigint_ring =
  QCheck.Test.make ~name:"bigint agrees with native int arithmetic" ~count:500 arb_int_pair
    (fun (a, b) ->
      Bigint.to_int_exn (Bigint.add (bi a) (bi b)) = a + b
      && Bigint.to_int_exn (Bigint.mul (bi a) (bi b)) = a * b
      && Bigint.to_int_exn (Bigint.sub (bi a) (bi b)) = a - b
      && Bigint.compare (bi a) (bi b) = compare a b)

let qcheck_bigint_divmod =
  QCheck.Test.make ~name:"bigint divmod satisfies a = q*b + r, |r| < |b|" ~count:500
    (QCheck.pair (QCheck.int_range (-1_000_000_000) 1_000_000_000) (QCheck.int_range 1 100_000))
    (fun (a, b) ->
      let q, r = Bigint.divmod (bi a) (bi b) in
      Bigint.equal (bi a) (Bigint.add (Bigint.mul q (bi b)) r)
      && Bigint.compare (Bigint.abs r) (bi b) < 0)

let qcheck_bigint_string =
  QCheck.Test.make ~name:"bigint string round trip" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 1 40) (QCheck.int_range 0 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let normalized =
        let s' = ref 0 in
        while !s' < String.length s - 1 && s.[!s'] = '0' do
          incr s'
        done;
        String.sub s !s' (String.length s - !s')
      in
      String.equal (Bigint.to_string (Bigint.of_string s)) normalized)

(* ---- Rat ---- *)

let r = Rat.of_ints

let test_rat_normalization () =
  check_string "reduced" "2/3" (Rat.to_string (r 4 6));
  check_string "sign in numerator" "-2/3" (Rat.to_string (r 4 (-6)));
  check_string "integer denominator folded" "5" (Rat.to_string (r 10 2));
  check_string "zero canonical" "0" (Rat.to_string (r 0 (-7)));
  check_bool "equality structural after normalization" true (Rat.equal (r 1 2) (r 2 4))

let test_rat_arith () =
  check_string "add" "5/6" (Rat.to_string (Rat.add (r 1 2) (r 1 3)));
  check_string "mul" "1/6" (Rat.to_string (Rat.mul (r 1 2) (r 1 3)));
  check_string "div" "3/2" (Rat.to_string (Rat.div (r 1 2) (r 1 3)));
  check_string "sub" "1/6" (Rat.to_string (Rat.sub (r 1 2) (r 1 3)));
  check_bool "compare" true (Rat.compare (r 1 3) (r 1 2) < 0);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (Rat.div Rat.one Rat.zero))

let arb_rat =
  QCheck.map
    (fun (n, d) -> r n (if d = 0 then 1 else d))
    (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range (-50) 50))

let qcheck_rat_field =
  QCheck.Test.make ~name:"rat field laws" ~count:300 (QCheck.triple arb_rat arb_rat arb_rat)
    (fun (a, b, c) ->
      Rat.equal (Rat.add a b) (Rat.add b a)
      && Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c))
      && Rat.equal (Rat.add a (Rat.neg a)) Rat.zero
      && (Rat.is_zero a || Rat.equal (Rat.mul a (Rat.inv a)) Rat.one))

let qcheck_rat_compare_consistent =
  QCheck.Test.make ~name:"rat compare consistent with subtraction sign" ~count:300
    (QCheck.pair arb_rat arb_rat) (fun (a, b) -> Rat.compare a b = Rat.sign (Rat.sub a b))

(* ---- Pqueue ---- *)

(* The queue is read through its head accessors and emptied with an
   allocation-free [drop]; the tests pop through this option-returning
   helper. *)
let pop q =
  if Pqueue.is_empty q then None
  else begin
    let p = Pqueue.top_prio q and v = Pqueue.top_value q in
    Pqueue.drop q;
    Some (p, v)
  end

let test_pqueue_order () =
  let q = Pqueue.create () in
  let names = [| "c"; "a"; "b"; "z" |] in
  List.iter (fun (p, v) -> Pqueue.push q p v) [ (3., 0); (1., 1); (2., 2); (0.5, 3) ];
  let drain () =
    let rec go acc = match pop q with None -> List.rev acc | Some (_, v) -> go (names.(v) :: acc) in
    go []
  in
  Alcotest.(check (list string)) "sorted by priority" [ "z"; "a"; "b"; "c" ] (drain ())

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 1. v) [ 1; 2; 3; 4; 5 ];
  let rec drain acc = match pop q with None -> List.rev acc | Some (_, v) -> drain (v :: acc) in
  Alcotest.(check (list int)) "equal priorities drain FIFO" [ 1; 2; 3; 4; 5 ] (drain [])

let qcheck_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue drains in nondecreasing priority" ~count:200
    (QCheck.list (QCheck.float_bound_exclusive 1000.))
    (fun prios ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p 0) prios;
      let rec drain acc =
        match pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      let out = drain [] in
      List.length out = List.length prios
      && (List.sort compare out = out))

let drain_payloads q =
  let rec go acc = match pop q with None -> List.rev acc | Some (_, v) -> go (v :: acc) in
  go []

(* a small priority alphabet forces plenty of ties *)
let arb_small_prios = QCheck.list (QCheck.int_range 0 3)

let qcheck_pqueue_fifo_ties =
  QCheck.Test.make ~name:"pqueue breaks equal priorities FIFO (stable drain)" ~count:300
    arb_small_prios
    (fun prios ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.push q (float_of_int p) i) prios;
      (* stable sort of (prio, insertion index) by prio = expected drain *)
      let expected = List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.mapi (fun i p -> (p, i)) prios) in
      drain_payloads q = List.map snd expected)

let qcheck_pqueue_roundtrip =
  QCheck.Test.make ~name:"pqueue push/pop round-trips the payload multiset" ~count:300
    (QCheck.list (QCheck.pair (QCheck.float_bound_exclusive 100.) QCheck.small_int))
    (fun entries ->
      let q = Pqueue.create () in
      List.iter (fun (p, v) -> Pqueue.push q p v) entries;
      let n = List.length entries in
      Pqueue.length q = n
      && List.sort compare (drain_payloads q) = List.sort compare (List.map snd entries)
      && Pqueue.is_empty q
      && pop q = None)

let test_pqueue_push_seq () =
  let q = Pqueue.create () in
  let names = [| "a"; "b"; "z" |] in
  Pqueue.push_seq q 1. 5 1;
  Pqueue.push_seq q 1. 2 0;
  Pqueue.push_seq q 0.5 9 2;
  (* head accessors observe priority, tie-break and value without popping *)
  Alcotest.(check (float 0.)) "top_prio" 0.5 (Pqueue.top_prio q);
  check_int "top_seq" 9 (Pqueue.top_seq q);
  check_int "top_value" 2 (Pqueue.top_value q);
  (* equal priorities order by the CALLER-supplied sequence, not insertion *)
  Alcotest.(check (list string))
    "seq tie-break" [ "z"; "a"; "b" ]
    (List.map (fun v -> names.(v)) (drain_payloads q))

(* Heap-order property under INTERLEAVED push/pop (the drain-only
   properties above never exercise pops of a partially filled heap after
   the backing array has gone through grow/shrink cycles). Reference
   model: a sorted list keyed by (priority, arrival index) — priority
   monotonicity and FIFO tie-break in one comparison. *)
let qcheck_pqueue_interleaved =
  QCheck.Test.make ~name:"pqueue matches reference model under interleaved push/pop" ~count:400
    (QCheck.list (QCheck.option (QCheck.int_range 0 4)))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] in
      (* ascending (prio, seq) *)
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some p ->
              let v = (p, !seq) in
              Pqueue.push q (float_of_int p) !seq;
              incr seq;
              model := List.merge compare !model [ v ]
          | None -> (
              match (pop q, !model) with
              | None, [] -> ()
              | Some (_, v), (_, s) :: rest when v = s -> model := rest
              | _ -> ok := false))
        ops;
      !ok && Pqueue.length q = List.length !model)

(* Retention regression. The queue used to hold arbitrary values, and a
   popped one stayed reachable from its vacated slot until a later push
   overwrote it — on an A* frontier, dead search trees by the thousand.
   The slots now hold unboxed ints and floats, so nothing popped can be
   retained; what remains to check is that emptying the queue creates
   nothing for the collector either: a full drain allocates no word. *)
let test_pqueue_no_retention () =
  let n = 4096 in
  let q = Pqueue.create () in
  for i = 0 to n - 1 do
    Pqueue.push q (float_of_int ((i * 7919) land 1023)) i
  done;
  let before = Gc.minor_words () in
  while not (Pqueue.is_empty q) do
    Pqueue.drop q
  done;
  let allocated = Gc.minor_words () -. before in
  check_int "drained" 0 (Pqueue.length q);
  check_int "words allocated by the drain" 0 (int_of_float allocated)

(* Model property for the int queue's hole-moving sifts: heavy priority
   ties (two priorities), caller-supplied sequence numbers that arrive
   out of order, and pushes interleaved with drops. Before every drop the
   three head accessors must read the smallest (prio, seq) of a sorted
   reference list, with the value pushed alongside it. *)
let qcheck_pqueue_ties_model =
  QCheck.Test.make ~name:"pqueue heads match a sorted (prio, seq) model under ties" ~count:400
    (QCheck.list (QCheck.option QCheck.bool))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] in
      let k = ref 0 in
      List.for_all
        (function
          | Some hi ->
              let prio = if hi then 1. else 0. in
              (* odd multiplier then xor: unique, but not increasing *)
              let seq = (!k * 7919) lxor 0x2a5 in
              incr k;
              Pqueue.push_seq q prio seq (-seq);
              model := List.merge compare !model [ (prio, seq) ];
              Pqueue.length q = List.length !model
          | None -> (
              match !model with
              | [] -> Pqueue.is_empty q
              | (p, s) :: rest ->
                  let ok =
                    Pqueue.top_prio q = p && Pqueue.top_seq q = s && Pqueue.top_value q = -s
                  in
                  Pqueue.drop q;
                  model := rest;
                  ok))
        ops)

(* ---- Pool ---- *)

let qcheck_pool_map_ordered =
  QCheck.Test.make ~name:"pool map agrees with List.map for any jobs" ~count:50
    (QCheck.pair (QCheck.int_range 1 6) (QCheck.list QCheck.small_int))
    (fun (jobs, xs) ->
      let f x = (x * 31) + 7 in
      Pool.map ~jobs f xs = List.map f xs)

let test_pool_exception_propagates () =
  Alcotest.check_raises "worker exception re-raised" Exit (fun () ->
      ignore (Pool.map ~jobs:3 (fun x -> if x = 4 then raise Exit else x) [ 1; 2; 3; 4; 5 ]))

(* Poison regression: after a task raises, no worker may CLAIM further
   tasks (in-flight ones finish). Task 0 raises; every other task spins
   until the poison has been thrown, so only tasks already claimed at
   that moment can complete — with 2 workers that is at most 1. Before
   the cursor was parked past the end on failure, the surviving worker
   drained all remaining tasks. *)
let test_pool_poison_stops_claiming () =
  let poisoned = Atomic.make false in
  let ran = Atomic.make 0 in
  let task i =
    if i = 0 then begin
      Atomic.set poisoned true;
      raise Exit
    end
    else begin
      while not (Atomic.get poisoned) do
        Domain.cpu_relax ()
      done;
      Atomic.incr ran;
      i
    end
  in
  Alcotest.check_raises "poison re-raised" Exit (fun () ->
      ignore (Pool.map ~jobs:2 task (List.init 32 Fun.id)));
  check_bool "claiming stopped after poison" true (Atomic.get ran <= 1)

(* ---- Frontier: two queues under one sequence numbering ---- *)

(* The admission-mode A* keeps its frontier and the keys of its
   suppressed children in two [Pqueue]s numbered from one counter, and
   decides which head the baseline would pop next by an exact
   (priority, seq) comparison of the two tops. Merging two [push_seq]
   queues that way must pop exactly like one queue holding every
   element, under interleaved pushes and pops. *)
let qcheck_frontier_split_merge =
  QCheck.Test.make ~name:"two queues sharing one sequence counter pop like one queue"
    ~count:300
    QCheck.(small_list (option (pair bool (int_range 0 3))))
    (fun ops ->
      let a = Pqueue.create () and b = Pqueue.create () in
      let one = Pqueue.create () in
      let seq = ref 0 in
      let pop_merged () =
        let from q =
          let s = Pqueue.top_seq q in
          Option.map (fun (p, v) -> (p, s, v)) (pop q)
        in
        match (Pqueue.is_empty a, Pqueue.is_empty b) with
        | true, true -> None
        | false, true -> from a
        | true, false -> from b
        | false, false ->
            let pa = Pqueue.top_prio a and pb = Pqueue.top_prio b in
            let a_first = pa < pb || (pa = pb && Pqueue.top_seq a < Pqueue.top_seq b) in
            (* [precedes] makes the same comparison inside the queue *)
            if Pqueue.precedes a b <> a_first || Pqueue.precedes b a = a_first then None
            else if a_first then from a
            else from b
      in
      List.for_all
        (function
          | Some (to_a, p) ->
              let prio = float_of_int p in
              Pqueue.push_seq (if to_a then a else b) prio !seq !seq;
              Pqueue.push_seq one prio !seq !seq;
              incr seq;
              Pqueue.length a + Pqueue.length b = Pqueue.length one
          | None ->
              let expected =
                if Pqueue.is_empty one then None
                else
                  let s = Pqueue.top_seq one in
                  Option.map (fun (p, v) -> (p, s, v)) (pop one)
              in
              pop_merged () = expected)
        ops)

(* ---- Lru ---- *)

let test_lru_basic () =
  let l = Lru.create ~cap:2 in
  check_int "capacity recorded" 2 (Lru.capacity l);
  check_bool "fresh add evicts nothing" true (Lru.add l "a" 1 = None);
  check_bool "fresh add evicts nothing" true (Lru.add l "b" 2 = None);
  check_bool "find returns the value" true (Lru.find l "a" = Some 1);
  (* "a" was just promoted, so the third insert displaces "b" *)
  check_bool "over-cap add evicts the LRU entry" true (Lru.add l "c" 3 = Some ("b", 2));
  check_bool "evicted key gone" true (Lru.find l "b" = None);
  check_bool "promoted key survives" true (Lru.find l "a" = Some 1);
  check_int "length at cap" 2 (Lru.length l)

let test_lru_replace_and_remove () =
  let l = Lru.create ~cap:2 in
  ignore (Lru.add l "a" 1);
  ignore (Lru.add l "b" 2);
  (* replacing a resident key is not an insertion: nothing may be evicted *)
  check_bool "replacement evicts nothing" true (Lru.add l "a" 10 = None);
  check_bool "replacement updates the value" true (Lru.find l "a" = Some 10);
  check_int "replacement keeps the length" 2 (Lru.length l);
  Lru.remove l "a";
  check_bool "removed key gone" true (Lru.find l "a" = None);
  check_int "length after remove" 1 (Lru.length l);
  check_bool "room after remove: no eviction" true (Lru.add l "c" 3 = None);
  check_bool "back at cap: oldest goes" true (Lru.add l "d" 4 = Some ("b", 2));
  check_bool "mem does not promote" true (Lru.mem l "c");
  check_bool "mem left c as LRU" true (Lru.add l "e" 5 = Some ("c", 3))

let qcheck_lru_model =
  (* differential against a naive model: a bounded assoc list with
     move-to-front on find and tail-drop on overflow *)
  QCheck.Test.make ~name:"lru: matches the move-to-front model" ~count:200
    QCheck.(list (pair (int_range 0 9) (option (int_range 0 99))))
    (fun ops ->
      let cap = 4 in
      let l = Lru.create ~cap in
      let model = ref [] in
      List.for_all
        (fun (k, op) ->
          match op with
          | Some v ->
              let evicted = Lru.add l k v in
              let without = List.remove_assoc k !model in
              let resident = List.mem_assoc k !model in
              model := (k, v) :: without;
              let expect =
                if resident || List.length !model <= cap then None
                else begin
                  match List.rev !model with
                  | (ek, ev) :: _ ->
                      model := List.filter (fun (k', _) -> k' <> ek) !model;
                      Some (ek, ev)
                  | [] -> None
                end
              in
              evicted = expect && Lru.length l = List.length !model
          | None -> (
              match (Lru.find l k, List.assoc_opt k !model) with
              | None, None -> true
              | Some v, Some v' when v = v' ->
                  model := (k, v) :: List.remove_assoc k !model;
                  true
              | _ -> false))
        ops)

(* ---- Prng ---- *)

let test_prng_determinism () =
  let a = Prng.create ~seed:17 and b = Prng.create ~seed:17 in
  let seq t = List.init 20 (fun _ -> Prng.int t 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq a) (seq b);
  let c = Prng.create ~seed:18 in
  check_bool "different seed, different stream" false (seq (Prng.create ~seed:17) = seq c)

let test_prng_bounds () =
  let t = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Prng.int t 7 in
    if v < 0 || v >= 7 then Alcotest.fail "out of bounds"
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_range t (-3) 4 in
    if v < -3 || v > 4 then Alcotest.fail "range out of bounds"
  done;
  for _ = 1 to 100 do
    let f = Prng.float t in
    if f < 0. || f >= 1. then Alcotest.fail "float out of bounds"
  done

let test_prng_shuffle_choose () =
  let t = Prng.create ~seed:11 in
  let xs = [ 1; 2; 3; 4; 5; 6 ] in
  let shuffled = Prng.shuffle t xs in
  Alcotest.(check (list int)) "shuffle is a permutation" xs (List.sort compare shuffled);
  for _ = 1 to 50 do
    if not (List.mem (Prng.choose t xs) xs) then Alcotest.fail "choose outside list"
  done;
  Alcotest.check_raises "choose on empty" (Invalid_argument "Prng.choose: empty list") (fun () ->
      ignore (Prng.choose t ([] : int list)))

let test_prng_split () =
  let t = Prng.create ~seed:3 in
  let s1 = Prng.split t in
  let s2 = Prng.split t in
  let seq t = List.init 10 (fun _ -> Prng.int t 1_000_000) in
  check_bool "split streams differ" false (seq s1 = seq s2)

(* ---- Inttbl ---- *)

(* Model: the stdlib Hashtbl. Keys come from a small range (so probes
   collide and tables grow through several doublings) plus the extreme
   ints a fingerprint can take. *)
let qcheck_inttbl_model =
  let key =
    QCheck.(oneof [ int_range (-40) 400; oneofl [ 0; -1; max_int; min_int; 1 lsl 62 ] ])
  in
  QCheck.Test.make ~name:"inttbl matches the Hashtbl model" ~count:300
    QCheck.(list (triple (int_range 0 2) key (int_range 0 9)))
    (fun ops ->
      let t = Inttbl.create () and model = Hashtbl.create 16 in
      List.for_all
        (fun (op, k, v) ->
          let v = float_of_int v in
          match op with
          | 0 ->
              Inttbl.replace t k v;
              Hashtbl.replace model k v;
              true
          | 1 -> Inttbl.mem t k = Hashtbl.mem model k
          | _ -> (
              let x = Inttbl.find t k ~default:nan in
              match Hashtbl.find_opt model k with Some y -> x = y | None -> Float.is_nan x))
        ops
      && Inttbl.length t = Hashtbl.length model)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "stagg_util"
    [
      ( "bigint",
        [
          Alcotest.test_case "basic" `Quick test_bigint_basic;
          Alcotest.test_case "large values" `Quick test_bigint_large;
          Alcotest.test_case "divmod" `Quick test_bigint_divmod;
          Alcotest.test_case "gcd and pow" `Quick test_bigint_gcd_pow;
          qc qcheck_bigint_ring;
          qc qcheck_bigint_divmod;
          qc qcheck_bigint_string;
        ] );
      ( "rat",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          qc qcheck_rat_field;
          qc qcheck_rat_compare_consistent;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "priority order" `Quick test_pqueue_order;
          Alcotest.test_case "FIFO tie-breaking" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "caller-supplied sequences" `Quick test_pqueue_push_seq;
          Alcotest.test_case "no retention of popped values" `Quick test_pqueue_no_retention;
          qc qcheck_pqueue_sorted;
          qc qcheck_pqueue_fifo_ties;
          qc qcheck_pqueue_roundtrip;
          qc qcheck_pqueue_interleaved;
          qc qcheck_pqueue_ties_model;
        ] );
      ( "pool",
        [
          qc qcheck_pool_map_ordered;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagates;
          Alcotest.test_case "poison stops claiming" `Quick test_pool_poison_stops_claiming;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic add/find/evict" `Quick test_lru_basic;
          Alcotest.test_case "replace and remove" `Quick test_lru_replace_and_remove;
          qc qcheck_lru_model;
        ] );
      ( "inttbl", [ qc qcheck_inttbl_model ] );
      ( "frontier", [ qc qcheck_frontier_split_merge ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "shuffle and choose" `Quick test_prng_shuffle_choose;
          Alcotest.test_case "split" `Quick test_prng_split;
        ] );
    ]
