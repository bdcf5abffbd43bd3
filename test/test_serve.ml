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

(* Two sequential requests on one server: each response carries the
   cache counters as of its own answer, and the repeat is answered from
   the cache without validating anything at all. A search validates
   through the compiled-template cache, so validation shows as that
   cache's traffic (compiles plus hits) over the request. *)
let test_server_telemetry_independent () =
  let s = Server.create () in
  let validated_by f =
    let v0 = Stagg_validate.Validator.stats () in
    let r = f () in
    let v1 = Stagg_validate.Validator.stats () in
    (r, v1.template_compiles - v0.template_compiles + v1.template_cache_hits - v0.template_cache_hits)
  in
  let lift () = parse_resp (List.hd (Server.run_lines s [ lift_req mul3_src mul3_sig ])) in
  let r1, v1 = validated_by lift in
  let r2, v2 = validated_by lift in
  check_string "first request searches" "miss" (get (field "cache" r1));
  check_bool "search validated" true (v1 > 0);
  check_int "first request: one cache miss" 1 (get (telem "cache_misses" r1));
  check_string "repeat is a cache hit" "hit" (get (field "cache" r2));
  check_int "hit does no validation" 0 v2;
  check_int "repeat: one cache hit" 1 (get (telem "cache_hits" r2));
  check_string "hit answer is byte-identical to the searched one"
    (get (field "taco" r1)) (get (field "taco" r2))

let alpha_src = "void g(int m, int *x, int *y) { int j; for (j = 0; j < m; j++) y[j] = x[j] * 3; }"

let add_src =
  "void h(int n, int *a, int *b, int *r) { int i; for (i = 0; i < n; i++) r[i] = a[i] + b[i]; }"

(* A miss ("m1"), its exact repeat ([repeat_id]), an alpha variant, a
   distinct kernel and a malformed request. *)
let jobs_mix ~repeat_id =
  [
    lift_req ~id:"m1" mul3_src mul3_sig;
    lift_req ~id:repeat_id mul3_src mul3_sig;
    lift_req ~id:"al" alpha_src "m:size,x:arr[m],y:out[m]";
    lift_req ~id:"ad" add_src "n:size,a:arr[n],b:arr[n],r:out[n]";
    J.to_string
      (J.Obj [ ("id", J.String "bad"); ("c", J.String "void f(int n { }"); ("sig", J.String "n:size") ]);
  ]

let jobs_server jobs = Server.create ~config:{ Server.jobs; cache_max = 32; verify = true } ()

(* a server returns only BMC-verified results, so it refuses to start
   with verification off *)
let test_server_refuses_verify_off () =
  match Server.create ~config:{ Server.jobs = 1; cache_max = 32; verify = false } () with
  | _ -> Alcotest.fail "a server with verify = false was created"
  | exception Invalid_argument _ -> ()

(* "id status taco" of a response line *)
let answer line =
  let j = parse_resp line in
  Printf.sprintf "%s %s %s"
    (Option.value ~default:"-" (field "id" j))
    (Option.value ~default:"-" (field "status" j))
    (Option.value ~default:"-" (field "taco" j))

(* jobs = 4 races the mix through the single-flight cache; which request
   becomes the searching owner is scheduling-dependent, but every
   per-request answer (status and rendered program) must match the
   sequential run byte for byte. *)
let test_server_jobs_agree () =
  let mix = jobs_mix ~repeat_id:"m1" in
  let run jobs = List.map answer (Server.run_lines (jobs_server jobs) mix) in
  Alcotest.(check (list string)) "4-way run answers like the sequential one" (run 1) (run 4)

(* The same mix through the streaming loop [stagg serve --jobs N] runs,
   where every request at jobs > 1 is processed on a domain of its own:
   the responses come back in request order and answer like jobs = 1. *)
let test_channel_jobs_agree () =
  let input = Filename.temp_file "stagg-serve-test" ".in" in
  let output = Filename.temp_file "stagg-serve-test" ".out" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ input; output ])
    (fun () ->
      Out_channel.with_open_bin input (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) (jobs_mix ~repeat_id:"m2"));
      let run jobs =
        let stopped =
          In_channel.with_open_bin input (fun ic ->
              Out_channel.with_open_bin output (fun oc ->
                  Server.serve_channel (jobs_server jobs) ~ic ~oc))
        in
        check_bool "ended by EOF, not a shutdown" false stopped;
        In_channel.with_open_bin output In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
        |> List.map answer
      in
      let seq = run 1 and par = run 4 in
      Alcotest.(check (list string))
        "responses in request order" [ "m1"; "m2"; "al"; "ad"; "bad" ]
        (List.map (fun a -> List.hd (String.split_on_char ' ' a)) par);
      Alcotest.(check (list string)) "4-way channel loop answers like the sequential one" seq par)

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

(* The nesting caps at the request boundary. A request line of
   [Server.max_line_bytes] opening brackets gets exactly one error
   response, reported at offset [Json.max_depth]: the parser stops at
   the cap instead of reading the rest of the line. A kernel nested as
   deep as a served line can hold is refused the same way by the mini-C
   parser. Input nested exactly to either cap is served normally, and
   one level past the JSON cap is not. The time
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
  (match timed_lines [ String.make Server.max_line_bytes '[' ] with
  | [ r ], dt ->
      check_string "deep line is an error" "error" (get (field "status" r));
      check_string "refused at the JSON cap"
        (Printf.sprintf "bad request: nesting deeper than %d at offset %d" J.max_depth J.max_depth)
        (get (field "error" r));
      check_bool "refused fast" true (dt < 5.0)
  | rs, _ -> Alcotest.failf "expected one response, got %d" (List.length rs));
  let deepest =
    (Server.max_line_bytes - String.length (lift_req ~id:"deep-c" (deep_c 0) mul3_sig)) / 2
  in
  (match timed_lines [ lift_req ~id:"deep-c" (deep_c deepest) mul3_sig ] with
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

(* The request-size cap. A line one byte longer than
   [Server.max_line_bytes] gets exactly one error response before any
   parser reads it, however well-formed the request inside it; a line
   of exactly the cap, and a normal request, still lift. *)
let test_server_line_cap () =
  let s = Server.create () in
  let padded len =
    let request pad =
      Printf.sprintf {|{"c":%s,"sig":%s,"pad":"%s"}|}
        (J.to_string (J.String mul3_src))
        (J.to_string (J.String mul3_sig))
        pad
    in
    request (String.make (len - String.length (request "")) 'x')
  in
  let over = padded (Server.max_line_bytes + 1) and at = padded Server.max_line_bytes in
  check_int "over-cap line length" (Server.max_line_bytes + 1) (String.length over);
  check_int "at-cap line length" Server.max_line_bytes (String.length at);
  let t0 = Stagg_util.Clock.now () in
  (match List.map parse_resp (Server.run_lines s [ over ]) with
  | [ r ] ->
      check_string "over-cap line is an error" "error" (get (field "status" r));
      check_string "refused for its length"
        (Printf.sprintf "bad request: line longer than %d bytes" Server.max_line_bytes)
        (get (field "error" r))
  | rs -> Alcotest.failf "expected one response, got %d" (List.length rs));
  check_bool "refused fast" true (Stagg_util.Clock.now () -. t0 < 5.0);
  match List.map parse_resp (Server.run_lines s [ at; lift_req mul3_src mul3_sig ]) with
  | [ r_at; r ] ->
      check_string "line of exactly the cap lifts" "ok" (get (field "status" r_at));
      check_string "normal request still lifts" "ok" (get (field "status" r));
      check_string "the scale kernel's lift" "r(i) = a(i) * 3" (get (field "taco" r))
  | rs -> Alcotest.failf "expected two responses, got %d" (List.length rs)

(* A request for the one suite kernel the trace oracle cannot lift is
   answered unsolved, with the oracle's refusal as its failure. *)
let test_server_outside_template_space () =
  let b = Option.get (Stagg_benchsuite.Suite.find "dk_conv1x1") in
  let s = Server.create () in
  match Server.run_lines s [ lift_req ~id:b.name b.c_source (Sigspec.to_string b.signature) ] with
  | [ line ] ->
      let r = parse_resp line in
      check_string "unsolved" "unsolved" (get (field "status" r));
      let f = get (field "failure" r) in
      check_bool ("failure is the trace refusal: " ^ f) true
        (String.starts_with ~prefix:"trace: candidate outside the template space" f)
  | rs -> Alcotest.failf "expected one response, got %d" (List.length rs)

(* The line cap in the streaming loop itself: a 16 MiB line gets one
   length error and the request after it is answered normally, and the
   loop allocates well under the line's length meanwhile (it keeps at
   most [Server.max_line_bytes + 1] bytes of any line). *)
let test_channel_long_line () =
  let input = Filename.temp_file "stagg-serve-test" ".in" in
  let output = Filename.temp_file "stagg-serve-test" ".out" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ input; output ])
    (fun () ->
      Out_channel.with_open_bin input (fun oc ->
          let block = String.make 65_536 'x' in
          for _ = 1 to 256 do
            output_string oc block
          done;
          output_string oc ("\n" ^ J.to_string (J.Obj [ ("op", J.String "stats") ]) ^ "\n"));
      let s = Server.create () in
      let a0 = Gc.allocated_bytes () in
      let stopped =
        In_channel.with_open_bin input (fun ic ->
            Out_channel.with_open_bin output (fun oc -> Server.serve_channel s ~ic ~oc))
      in
      let allocated = Gc.allocated_bytes () -. a0 in
      check_bool "ended by EOF, not a shutdown" false stopped;
      check_bool
        (Printf.sprintf "allocated %.0f bytes, under 1 MiB" allocated)
        true (allocated < 1_048_576.);
      let responses =
        In_channel.with_open_bin output In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
      in
      match List.map parse_resp responses with
      | [ r_long; r_stats ] ->
          check_string "long line refused for its length"
            (Printf.sprintf "bad request: line longer than %d bytes" Server.max_line_bytes)
            (get (field "error" r_long));
          check_string "next line served" "stats" (get (field "status" r_stats))
      | rs -> Alcotest.failf "expected two responses, got %d" (List.length rs))

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
          Alcotest.test_case "jobs=4 answers match jobs=1" `Quick test_server_jobs_agree;
          Alcotest.test_case "shutdown stops reading at jobs 2" `Quick test_shutdown_stops_reading;
          Alcotest.test_case "nesting caps" `Quick test_server_nesting_caps;
          Alcotest.test_case "line length cap" `Quick test_server_line_cap;
          Alcotest.test_case "outside the template space" `Quick
            test_server_outside_template_space;
          Alcotest.test_case "16 MiB line through the channel loop" `Quick
            test_channel_long_line;
          Alcotest.test_case "jobs=4 channel loop answers match jobs=1" `Quick
            test_channel_jobs_agree;
          Alcotest.test_case "verify off refused" `Quick test_server_refuses_verify_off;
        ] );
    ]
