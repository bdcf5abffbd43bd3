(* Tests for stagg_serve: the canonical kernel fingerprint, the
   single-flight result cache, and the serve request loop. *)

open Stagg_serve
module Sig = Stagg_minic.Signature
module Canon = Stagg_minic.Canon
module Sigspec = Stagg_minic.Sigspec
module Bench = Stagg_benchsuite.Bench
module J = Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let parse_c = Stagg_minic.Parser.parse_function_exn
let parse_sig s = Result.get_ok (Sigspec.parse s)

(* ---- the canonical fingerprint ---- *)

(* One fixed kernel shape — elementwise scale — rendered over arbitrary
   parameter names and an arbitrary scale constant. Alpha renaming and
   constant renaming must both be invisible to the fingerprint: that is
   the donor-remap contract. *)
let scale_kernel ~fn ~n ~a ~r ~c =
  ( Printf.sprintf
      "void %s(int %s, int *%s, int *%s) { int i; for (i = 0; i < %s; i++) %s[i] = %s[i] * %s; \
       }"
      fn n a r n r a c,
    Printf.sprintf "%s:size,%s:arr[%s],%s:out[%s]" n a n r n )

let fingerprint_of (src, sg) = Canon.fingerprint ~signature:(parse_sig sg) (parse_c src)
let canonical_of (src, sg) = Canon.canonical ~signature:(parse_sig sg) (parse_c src)
let base_scale = scale_kernel ~fn:"f" ~n:"n" ~a:"a" ~r:"r" ~c:"3"
let name_pool = [| "p"; "q"; "alpha"; "beta"; "gamma"; "delta"; "kappa"; "omega" |]

let qcheck_canon_alpha_invariant =
  QCheck.Test.make ~name:"canon: alpha-renamed kernels share the fingerprint" ~count:50
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (i, j, k, l) ->
      let pick x = name_pool.(x mod Array.length name_pool) in
      let n = pick i and a = pick j and r = pick k and fn = "fn" ^ string_of_int l in
      QCheck.assume (n <> a && n <> r && a <> r);
      fingerprint_of (scale_kernel ~fn ~n ~a ~r ~c:"3") = fingerprint_of base_scale)

let qcheck_canon_const_invariant =
  QCheck.Test.make ~name:"canon: constant-renamed kernels share the fingerprint" ~count:50
    QCheck.(int_range 1 1_000_000)
    (fun c ->
      fingerprint_of (scale_kernel ~fn:"f" ~n:"n" ~a:"a" ~r:"r" ~c:(string_of_int c))
      = fingerprint_of base_scale)

let test_canon_distinguishes_structure () =
  let variant op =
    ( Printf.sprintf
        "void f(int n, int *a, int *r) { int i; for (i = 0; i < n; i++) r[i] = a[i] %s 3; }" op,
      "n:size,a:arr[n],r:out[n]" )
  in
  let fps = List.map (fun op -> (op, fingerprint_of (variant op))) [ "*"; "+"; "-"; "/" ] in
  List.iteri
    (fun x (opx, fx) ->
      List.iteri
        (fun y (opy, fy) ->
          if x < y then
            check_bool (Printf.sprintf "'%s' and '%s' kernels differ" opx opy) true (fx <> fy))
        fps)
    fps;
  (* zero is excluded from the constant pool (substitution can never
     rebind it), so a zero literal must NOT collapse into the generic
     constant bucket *)
  check_bool "scale by 0 is not a constant variant of scale by 3" true
    (fingerprint_of (scale_kernel ~fn:"f" ~n:"n" ~a:"a" ~r:"r" ~c:"0")
    <> fingerprint_of base_scale)

let test_canon_canonical_form () =
  let alpha = scale_kernel ~fn:"g" ~n:"m" ~a:"x" ~r:"y" ~c:"9" in
  check_string "alpha + const variant canonicalizes identically" (canonical_of base_scale)
    (canonical_of alpha);
  let canon = canonical_of base_scale in
  check_bool "data constants are abstracted" true
    (String.split_on_char '#' canon |> List.length > 1);
  (* the scale constant is gone; the loop structure (a control position)
     is still concrete *)
  check_bool "no concrete data constant survives" true
    (not (String.contains canon '3'))

(* Every pair of suite benchmarks that collides in the 63-bit fingerprint
   must collide in the full canonical string too — a fingerprint match
   may only ever mean "same kernel up to naming and constants", because
   the server uses it to pick donor solutions for remapping. The suite
   contains genuine alpha/constant variants, so the donor path is
   exercised by construction. *)
let test_suite_fingerprint_audit () =
  let tbl = Hashtbl.create 97 in
  let dups = ref 0 in
  List.iter
    (fun (b : Bench.t) ->
      let fp = Canon.fingerprint ~signature:b.signature (Bench.func b) in
      let canon = Canon.canonical ~signature:b.signature (Bench.func b) in
      match Hashtbl.find_opt tbl fp with
      | Some (name, canon') ->
          incr dups;
          check_string
            (Printf.sprintf "%s and %s share a fingerprint, so they must share a canonical form"
               name b.name)
            canon' canon
      | None -> Hashtbl.add tbl fp (b.name, canon))
    Stagg_benchsuite.Suite.all;
  check_bool "the suite contains fingerprint-sharing variants (remap path is live)" true
    (!dups >= 1);
  check_bool "most kernels are canonically distinct" true (Hashtbl.length tbl >= 60)

(* ---- the single-flight cache ---- *)

let outcome_for k =
  {
    Cache.solved = false;
    lifted = None;
    attempts = k;
    expansions = 2 * k;
    instantiations = 0;
    failure = Some (string_of_int k);
  }

(* 4 domains race the same key workload (each in a rotated order) from
   behind a start barrier. Single-flight means: per distinct key exactly
   one acquirer becomes the searching owner; everyone else must receive
   that owner's exact outcome (as a hit or a join), and nobody is left
   blocked — termination of all domains IS the no-lost-wakeup check. *)
let qcheck_cache_single_flight =
  let domains = 4 in
  QCheck.Test.make ~name:"cache: one search per distinct key under contention" ~count:20
    (QCheck.int_range 1 8)
    (fun keys ->
      let c = Cache.create ~max:64 in
      let owners = Array.init keys (fun _ -> Atomic.make 0) in
      let bad = Atomic.make 0 in
      let started = Atomic.make 0 in
      let body d () =
        Atomic.incr started;
        while Atomic.get started < domains do
          Domain.cpu_relax ()
        done;
        for i = 0 to keys - 1 do
          let k = (i + d) mod keys in
          let key = Printf.sprintf "k%d" k in
          match Cache.acquire c ~key ~fp:k with
          | Cache.Owner None ->
              Atomic.incr owners.(k);
              (* hold the entry in flight so waiters pile up *)
              Unix.sleepf 0.001;
              Cache.fulfill c ~key ~fp:k (outcome_for k)
          | Cache.Owner (Some _) ->
              (* nothing here is solved, so no donor may be offered *)
              Atomic.incr bad
          | Cache.Hit o | Cache.Joined o -> if o.Cache.attempts <> k then Atomic.incr bad
        done
      in
      let ds = List.init (domains - 1) (fun d -> Domain.spawn (body (d + 1))) in
      body 0 ();
      List.iter Domain.join ds;
      let st = Cache.stats c in
      Atomic.get bad = 0
      && Array.for_all (fun o -> Atomic.get o = 1) owners
      && st.Cache.misses = keys
      && st.Cache.hits + st.Cache.joins = (domains * keys) - keys
      && st.Cache.inflight = 0 && st.Cache.entries = keys)

(* Kill-mid-request: the first owner dies (aborts) instead of
   fulfilling. Exactly one successor must inherit ownership and run the
   search; every other contender — including the killed requester
   retrying — still ends with the fulfilled outcome. *)
let test_cache_abort_inheritance () =
  let domains = 4 in
  let c = Cache.create ~max:8 in
  let key = "k" in
  let aborted = Atomic.make false in
  let owners = Atomic.make 0 and searched = Atomic.make 0 and bad = Atomic.make 0 in
  let started = Atomic.make 0 in
  let body () =
    Atomic.incr started;
    while Atomic.get started < domains do
      Domain.cpu_relax ()
    done;
    let rec go () =
      match Cache.acquire c ~key ~fp:1 with
      | Cache.Owner _ ->
          Atomic.incr owners;
          if Atomic.compare_and_set aborted false true then begin
            Unix.sleepf 0.001;
            Cache.abort c ~key;
            (* the killed requester retries like a fresh client *)
            go ()
          end
          else begin
            Atomic.incr searched;
            Unix.sleepf 0.001;
            Cache.fulfill c ~key ~fp:1 (outcome_for 7)
          end
      | Cache.Hit o | Cache.Joined o -> if o.Cache.attempts <> 7 then Atomic.incr bad
    in
    go ()
  in
  let ds = List.init (domains - 1) (fun _ -> Domain.spawn body) in
  body ();
  List.iter Domain.join ds;
  check_int "every non-owner saw the searched outcome" 0 (Atomic.get bad);
  check_int "the abort handed ownership to exactly one successor" 2 (Atomic.get owners);
  check_int "exactly one search completed" 1 (Atomic.get searched);
  check_int "nothing left in flight" 0 (Cache.stats c).Cache.inflight

let test_cache_lru_eviction () =
  let c = Cache.create ~max:2 in
  let put k =
    (match Cache.acquire c ~key:k ~fp:(Hashtbl.hash k) with
    | Cache.Owner None -> ()
    | _ -> Alcotest.fail "expected fresh ownership");
    Cache.fulfill c ~key:k ~fp:(Hashtbl.hash k) (outcome_for 1)
  in
  put "a";
  put "b";
  (* touch "a": it becomes most-recent, so admitting "c" must evict "b" *)
  (match Cache.acquire c ~key:"a" ~fp:(Hashtbl.hash "a") with
  | Cache.Hit _ -> ()
  | _ -> Alcotest.fail "expected a hit on a resident key");
  put "c";
  let st = Cache.stats c in
  check_int "one eviction at the cap" 1 st.Cache.evictions;
  check_int "two entries resident" 2 st.Cache.entries;
  match Cache.acquire c ~key:"b" ~fp:(Hashtbl.hash "b") with
  | Cache.Owner _ -> Cache.abort c ~key:"b"
  | _ -> Alcotest.fail "LRU key should have been evicted"

(* ---- the serve loop ---- *)

let mul3_src =
  "void f(int n, int *a, int *r) { int i; for (i = 0; i < n; i++) r[i] = a[i] * 3; }"

let mul3_sig = "n:size,a:arr[n],r:out[n]"

let lift_req ?id src sg =
  let fields =
    (match id with Some i -> [ ("id", J.String i) ] | None -> [])
    @ [ ("c", J.String src); ("sig", J.String sg) ]
  in
  J.to_string (J.Obj fields)

let parse_resp line = Result.get_ok (J.of_string line)
let field name j = Option.bind (J.member name j) J.to_str
let telem name j = Option.bind (J.member "telemetry" j) (fun t -> Option.bind (J.member name t) J.to_int)
let get o = Option.get o

(* The first satellite bug this PR fixes: process-wide validator
   counters used to bleed across requests. Two sequential requests on
   one server must meter their own memo traffic — and the repeat must be
   answered from the cache without validating anything at all. *)
let test_server_telemetry_independent () =
  let s = Server.create () in
  match List.map parse_resp (Server.run_lines s [ lift_req mul3_src mul3_sig; lift_req mul3_src mul3_sig ]) with
  | [ r1; r2 ] ->
      check_string "first request searches" "miss" (get (field "cache" r1));
      check_bool "search validated against the memo" true (get (telem "memo_misses" r1) > 0);
      check_string "repeat is a cache hit" "hit" (get (field "cache" r2));
      check_int "hit does no validation: zero memo misses" 0 (get (telem "memo_misses" r2));
      check_int "hit does no validation: zero memo hits" 0 (get (telem "memo_hits" r2));
      check_string "hit answer is byte-identical to the searched one"
        (get (field "taco" r1)) (get (field "taco" r2))
  | _ -> Alcotest.fail "expected two responses"

(* Epoch scoping: a second server must never see the first server's
   memo verdicts (its memo keys live in a different epoch), even though
   both run in one process. Before the epoch scope, server B's search
   here reported memo hits it never earned. *)
let test_server_epoch_isolation () =
  let a = Server.create () in
  let b = Server.create () in
  check_bool "each server gets its own epoch" true (Server.epoch a <> Server.epoch b);
  let ra = parse_resp (List.hd (Server.run_lines a [ lift_req mul3_src mul3_sig ])) in
  let rb = parse_resp (List.hd (Server.run_lines b [ lift_req mul3_src mul3_sig ])) in
  check_string "server A searches" "miss" (get (field "cache" ra));
  check_string "server B searches its own cache" "miss" (get (field "cache" rb));
  check_int "server B's memo starts cold: no cross-epoch hits" 0 (get (telem "memo_hits" rb));
  check_bool "server B validates for itself" true (get (telem "memo_misses" rb) > 0);
  check_string "same answer either way" (get (field "taco" ra)) (get (field "taco" rb))

(* jobs = 4 races the mix through the single-flight cache; which request
   becomes the searching owner is scheduling-dependent, but every
   per-request answer (status and rendered program) must match the
   sequential run byte for byte. *)
let test_server_jobs_agree () =
  let alpha_src =
    "void g(int m, int *x, int *y) { int j; for (j = 0; j < m; j++) y[j] = x[j] * 3; }"
  in
  let add_src =
    "void h(int n, int *a, int *b, int *r) { int i; for (i = 0; i < n; i++) r[i] = a[i] + b[i]; }"
  in
  let mix =
    [
      lift_req ~id:"m1" mul3_src mul3_sig;
      lift_req ~id:"m1" mul3_src mul3_sig;
      lift_req ~id:"al" alpha_src "m:size,x:arr[m],y:out[m]";
      lift_req ~id:"ad" add_src "n:size,a:arr[n],b:arr[n],r:out[n]";
      J.to_string (J.Obj [ ("id", J.String "bad"); ("c", J.String "void f(int n { }"); ("sig", J.String "n:size") ]);
    ]
  in
  let run jobs =
    let s = Server.create ~config:{ Server.jobs; cache_max = 32; verify = true } () in
    List.map
      (fun line ->
        let j = parse_resp line in
        Printf.sprintf "%s %s %s"
          (Option.value ~default:"-" (field "id" j))
          (Option.value ~default:"-" (field "status" j))
          (Option.value ~default:"-" (field "taco" j)))
      (Server.run_lines s mix)
  in
  Alcotest.(check (list string)) "4-way run answers like the sequential one" (run 1) (run 4)

(* ---- the streaming loop over a socket ---- *)

(* One '\n'-terminated line from [fd] within [timeout] seconds, [buf]
   carrying bytes read past the previous line; [None] on timeout, EOF
   or a reset connection. *)
let read_line_within fd buf ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then None
        else
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> None
          | _ -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> None
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  go ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None))
  in
  go ()

let send fd line =
  let s = line ^ "\n" in
  try ignore (Unix.write_substring fd s 0 (String.length s))
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

(* Shutdown at jobs = 2 over a connection whose writer stays open, so
   only the shutdown line, not EOF, can end the server's reading: [bye]
   must arrive while the client is still connected, and a line sent
   after the shutdown must not be answered. *)
let test_shutdown_stops_reading () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "stagg-serve-test-%d.sock" (Unix.getpid ()))
  in
  let s = Server.create ~config:{ Server.jobs = 2; cache_max = 8; verify = true } () in
  let server = Domain.spawn (fun () -> Server.run_socket s ~path) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec connect tries =
    try Unix.connect fd (Unix.ADDR_UNIX path)
    with Unix.Unix_error _ when tries > 0 ->
      Unix.sleepf 0.01;
      connect (tries - 1)
  in
  connect 500;
  let buf = Buffer.create 256 in
  send fd (J.to_string (J.Obj [ ("id", J.String "s"); ("op", J.String "shutdown") ]));
  let first = read_line_within fd buf ~timeout:10. in
  send fd (J.to_string (J.Obj [ ("op", J.String "stats") ]));
  let after = read_line_within fd buf ~timeout:0.5 in
  (* half-close so a server still reading sees EOF and the domain joins *)
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let rec rest acc =
    match read_line_within fd buf ~timeout:10. with
    | Some l -> rest (l :: acc)
    | None -> List.rev acc
  in
  let later = Option.to_list after @ rest [] in
  Unix.close fd;
  Domain.join server;
  check_string "bye while the writer is still open" "bye"
    (match first with Some l -> Option.value ~default:"-" (field "status" (parse_resp l)) | None -> "-");
  Alcotest.(check (list string)) "nothing answered after the shutdown" []
    (List.map (fun l -> Option.value ~default:"-" (field "status" (parse_resp l))) later)

(* The nesting caps at the request boundary. A request line a million
   brackets deep gets exactly one error response, reported at offset
   [Json.max_depth]: the parser stops at the cap instead of reading the
   rest of the line. A kernel a million parentheses deep is refused the
   same way by the mini-C parser. Input nested exactly to either cap is
   served normally, and one level past the JSON cap is not. The time
   bounds are loose (each refusal takes well under a second) so that
   slow instrumented builds pass. *)
let test_server_nesting_caps () =
  let s = Server.create () in
  let timed_lines lines =
    let t0 = Stagg_util.Clock.now () in
    let rs = Server.run_lines s lines in
    (List.map parse_resp rs, Stagg_util.Clock.now () -. t0)
  in
  let deep_c k =
    Printf.sprintf "void f(int n, int *a, int *r) { int i; for (i = 0; i < n; i++) r[i] = a[i] * %s3%s; }"
      (String.make k '(') (String.make k ')')
  in
  (match timed_lines [ String.make 1_000_000 '[' ] with
  | [ r ], dt ->
      check_string "deep line is an error" "error" (get (field "status" r));
      check_string "refused at the JSON cap"
        (Printf.sprintf "bad request: nesting deeper than %d at offset %d" J.max_depth J.max_depth)
        (get (field "error" r));
      check_bool "refused fast" true (dt < 5.0)
  | rs, _ -> Alcotest.failf "expected one response, got %d" (List.length rs));
  (match timed_lines [ lift_req ~id:"deep-c" (deep_c 1_000_000) mul3_sig ] with
  | [ r ], dt ->
      check_string "refused at the mini-C cap"
        (Printf.sprintf "C parse error: nesting deeper than %d" Stagg_minic.Parser.max_depth)
        (get (field "error" r));
      check_bool "refused fast" true (dt < 5.0)
  | rs, _ -> Alcotest.failf "expected one response, got %d" (List.length rs));
  (* the request object is one JSON level and the pad fills the rest;
     the loop, its body and the product's right operand are three mini-C
     levels and the parentheses the rest *)
  let brackets k = String.make k '[' ^ String.make k ']' in
  check_bool "one past the JSON cap refused" true (Result.is_error (J.of_string (brackets (J.max_depth + 1))));
  check_bool "at the JSON cap parsed" true (Result.is_ok (J.of_string (brackets J.max_depth)));
  let pad = brackets (J.max_depth - 1) in
  let at_cap =
    Printf.sprintf {|{"id":"at-cap","c":%s,"sig":%s,"pad":%s}|}
      (J.to_string (J.String (deep_c (Stagg_minic.Parser.max_depth - 3))))
      (J.to_string (J.String mul3_sig))
      pad
  in
  match timed_lines [ at_cap ] with
  | [ r ], _ ->
      check_string "nested exactly to both caps: lifted" "ok" (get (field "status" r));
      check_string "the scale kernel's lift" "r(i) = a(i) * 3" (get (field "taco" r))
  | rs, _ -> Alcotest.failf "expected one response, got %d" (List.length rs)

let () =
  Alcotest.run "stagg_serve"
    [
      ( "canon",
        [
          QCheck_alcotest.to_alcotest qcheck_canon_alpha_invariant;
          QCheck_alcotest.to_alcotest qcheck_canon_const_invariant;
          Alcotest.test_case "structure distinguishes" `Quick test_canon_distinguishes_structure;
          Alcotest.test_case "canonical form" `Quick test_canon_canonical_form;
          Alcotest.test_case "77-suite fingerprint audit" `Quick test_suite_fingerprint_audit;
        ] );
      ( "cache",
        [
          QCheck_alcotest.to_alcotest qcheck_cache_single_flight;
          Alcotest.test_case "abort hands off ownership" `Quick test_cache_abort_inheritance;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        ] );
      ( "server",
        [
          Alcotest.test_case "telemetry independent per request" `Quick
            test_server_telemetry_independent;
          Alcotest.test_case "epoch isolation" `Quick test_server_epoch_isolation;
          Alcotest.test_case "jobs=4 answers match jobs=1" `Quick test_server_jobs_agree;
          Alcotest.test_case "shutdown stops reading at jobs 2" `Quick test_shutdown_stops_reading;
          Alcotest.test_case "nesting caps" `Quick test_server_nesting_caps;
        ] );
    ]
