(* liftbench: the repository's lifting benchmark.

     liftbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     liftbench --workload NAME [--seed N] --setup-only

   Workloads (BENCHMARK.json records why each of its workloads was
   chosen):
   - search-td: STAGG^TD over the 77 kernels, mock LLM, one domain;
   - serve-mix: a seeded request stream through
     [Stagg_serve.Server.process_line] from two closed-loop clients;
   - validate-bu: STAGG^BU and BU.EqualProbability over the 77 kernels.
     Not in BENCHMARK.json: its run-to-run spread on a shared 2-vCPU
     host exceeded the bounds, but it runs by hand like the others.

   Every lift is timed from outside the library: the suite workloads
   time [Pipeline.prefix_of_query] plus [Pipeline.lift_prefixed],
   serve-mix times [Server.process_line]. No [time_s] field the library
   reports is read. [--trace 0] measures the end-to-end metrics with
   tracing off; [--trace 1] is the separate traced run that gives the
   per-layer metrics and writes a Chrome trace-event file.

   The seed draws the serve stream and the examples of the independent
   answer check. It never reaches the methods: they keep the campaign
   seed, so the pinned counts hold for every seed.

   The last line of stdout is one JSON object. The run exits 1 on a
   wrong answer, a raised exception, a moved pinned count, a traced
   replay that diverges from the untraced run, or layer self times that
   leave more than [unattributed_tolerance] of the traced lift time
   unaccounted for. *)

open Stagg_util
module Bench = Stagg_benchsuite.Bench
module Suite = Stagg_benchsuite.Suite
module Method_ = Stagg.Method_
module Pipeline = Stagg.Pipeline
module Server = Stagg_serve.Server
module Json = Stagg_serve.Json

let program_start = Spans.now ()
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("[liftbench] " ^ s)) fmt

(* Faults fail the whole run: a moved pinned count, or a lift whose
   outcome differs between passes or between traced and untraced runs. *)
let faults = ref 0

let fault fmt =
  Printf.ksprintf
    (fun s ->
      incr faults;
      log "FAIL %s" s)
    fmt

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let median = percentile 50.
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

(* Every pass validates under a memo scope of its own, so no pass finds
   the verdicts of an earlier one. The memo is emptied and the heap
   collected too, so every pass also starts from the same memory: the
   verdicts of earlier scopes would otherwise pile up to the memo's
   bound and make later passes pay for a larger heap. A full major
   collection, not a compaction: on OCaml 5.1 a compaction leaves pass
   times twice as spread and a heap peak that grows with the number of
   passes. *)
let reset_memory () =
  Stagg_validate.Validator.clear_memo ();
  Gc.full_major ()

let scopes = ref 0

let fresh_scope () =
  incr scopes;
  reset_memory ();
  Printf.sprintf "liftbench%d|" !scopes

(* ---- pinned counts ----

   Totals over the 77 kernels with the wall-clock backstop disabled, so
   the deterministic caps decide every stop. A run fails when one moves. *)

type pin = { solved : int; expansions : int; instantiations : int }

let pins =
  [
    ("STAGG^TD", { solved = 76; expansions = 127_759; instantiations = 7_942 });
    ("STAGG^BU", { solved = 67; expansions = 13_282; instantiations = 152_012 });
    ("STAGG^BU.EqualProbability", { solved = 67; expansions = 67_107; instantiations = 524_946 });
    ("Trace", { solved = 76; expansions = 28_983; instantiations = 34_692 });
  ]

let check_pin label (got : pin) =
  match List.assoc_opt label pins with
  | Some want when want <> got ->
      fault "%s moved: solved %d, expansions %d, instantiations %d (pinned %d, %d, %d)" label
        got.solved got.expansions got.instantiations want.solved want.expansions
        want.instantiations
  | _ -> ()

let tally totals label (o : Replay.outcome) =
  let t =
    Option.value (Hashtbl.find_opt totals label)
      ~default:{ solved = 0; expansions = 0; instantiations = 0 }
  in
  Hashtbl.replace totals label
    {
      solved = (t.solved + if o.solved then 1 else 0);
      expansions = t.expansions + o.expansions;
      instantiations = t.instantiations + o.instantiations;
    }

(* ---- metrics ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type report = { attempted : int; failed : int; metrics : metric list }

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

(* A set-up runs from process start to the first timed lift: module
   initialisation, inputs, the untimed warm-up pass and the checks made
   before timing. A run's own set-up is one cold sample; [extra_setups]
   more come from fresh processes of this program ([--setup-only]), each
   cold too, started after the timed passes so they do not overlap them.
   [setup_s] is the median of the three. *)
let extra_setups = 2

let cold_setup ~workload ~seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--setup-only" |]
  in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, List.rev (String.split_on_char '\n' (String.trim out))) with
  | Unix.WEXITED 0, last :: _ when Float.of_string_opt last <> None -> Float.of_string last
  | _ ->
      fault "a --setup-only run failed";
      Float.nan

let setup_median ~workload ~seed own =
  let setups = own :: List.init extra_setups (fun _ -> cold_setup ~workload ~seed) in
  log "cold set-ups %s s" (String.concat " " (List.map (Printf.sprintf "%.3f") setups));
  median setups

(* The end-to-end metrics over the timed repetitions: [latencies] holds
   the latency samples, [busy] the time they were answered in;
   [attempted] counts every timed lift, solved and failed ones among
   them. *)
let end_to_end ~setup_s ~latencies ~busy ~attempted ~solved ~failed =
  log "set-up %.3f s; %d latency samples, %.3f s busy; %d timed lifts" setup_s
    (List.length latencies) busy attempted;
  {
    attempted;
    failed;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "lifts_per_s" "1/s" (ratio (float_of_int (List.length latencies)) busy);
        m "latency_p50_ms" "ms" (1e3 *. percentile 50. latencies);
        m "latency_p90_ms" "ms" (1e3 *. percentile 90. latencies);
        m "solved_share" "ratio" (ratio (float_of_int solved) (float_of_int attempted));
        m "peak_heap_mb" "MB" (peak_heap_mb ());
      ];
  }

(* Repeat [pass] until at least [seconds] of timed wall time, a pass
   count that is a multiple of [group], and 100 lifts per [group] passes,
   so at least ten latency samples lie beyond p90 when every [group]
   passes yield one sample per lift. [pass] returns its wall time and its
   number of lifts. *)
let timed_loop ?(group = 1) ~seconds pass =
  let rec go wall lifts passes acc =
    if wall >= seconds && passes mod group = 0 && lifts / group >= 100 then List.rev acc
    else
      let r, w, n = pass () in
      go (wall +. w) (lifts + n) (passes + 1) (r :: acc)
  in
  go 0. 0 0 []

(* ---- per-layer metrics, from the traced passes ---- *)

type serve_layer = {
  mutable evictions : int;
  mutable by_path : (string * float) list;  (** response cache path, latency *)
}

let serve_layer () = { evictions = 0; by_path = [] }

(* Layers whose self times partition a traced lift's wall time. *)
let layers =
  [
    ("oracle", "oracle");
    ("minic", "minic.facts");
    ("grammar", "grammar");
    ("examples", "examples");
    ("search", "search");
    ("validate", "validate");
    ("verify", "verify");
  ]

let per_layer ~passes ~spans ~(c : Replay.counters) ~(s : serve_layer) ~overhead =
  let tot = Spans.totals spans in
  let per x = x /. float_of_int passes in
  let count n = per (float_of_int n) in
  let self name = per (tot name).self in
  let on path = List.filter_map (fun (p, l) -> if p = path then Some l else None) s.by_path in
  let p50 path = 1e3 *. median (on path) in
  let answered path = count (List.length (on path)) in
  let lift_s = per (tot "lift").busy in
  [
    m "oracle.busy_s" "s" (self "oracle");
    m "oracle.calls" "count" (count c.oracle_calls);
    m "oracle.refusals" "count" (count c.oracle_refusals);
    m "oracle.candidates" "count" (count c.oracle_candidates);
    m "grammar.busy_s" "s" (self "grammar");
    m "grammar.rules" "count" (count c.grammar_rules);
    m "search.self_s" "s" (self "search");
    m "search.expansions" "count" (count c.search_expansions);
    m "search.suppressed" "count" (count c.search_suppressed);
    m "search.attempts" "count" (count c.search_attempts);
    m "search.pops_per_s" "1/s" (ratio (count c.search_expansions) (self "search"));
    m "validate.busy_s" "s" (self "validate");
    m "validate.calls" "count" (count c.validate_calls);
    m "validate.instantiations" "count" (count c.validate_instantiations);
    m "validate.inst_per_s" "1/s" (ratio (count c.validate_instantiations) (self "validate"));
    m "validate.solution_ratio" "ratio"
      (ratio (float_of_int c.validate_solutions) (float_of_int c.validate_calls));
    m "validate.memo_hits" "count" (count c.memo_hits);
    m "validate.memo_misses" "count" (count c.memo_misses);
    m "validate.template_compiles" "count" (count c.template_compiles);
    m "validate.template_cache_hits" "count" (count c.template_cache_hits);
    m "examples.busy_s" "s" (self "examples");
    m "verify.busy_s" "s" (self "verify");
    m "verify.calls" "count" (count c.verify_calls);
    m "verify.equivalent_ratio" "ratio"
      (ratio (float_of_int c.verify_equivalent) (float_of_int c.verify_calls));
    m "minic.parse_s" "s" (per (tot "minic.parse").busy);
    m "minic.facts_s" "s" (self "minic.facts");
    m "minic.canon_s" "s" (per (tot "minic.canon").busy);
    m "serve.hits" "count" (answered "hit");
    m "serve.misses" "count" (answered "miss");
    m "serve.joins" "count" (answered "join");
    m "serve.remaps" "count" (answered "remap");
    m "serve.evictions" "count" (count s.evictions);
    m "serve.hit_p50_ms" "ms" (p50 "hit");
    m "serve.remap_p50_ms" "ms" (p50 "remap");
    m "serve.miss_p50_ms" "ms" (p50 "miss");
    m "serve.join_wait_s" "s" (per (sum (on "join")));
    m "trace.lift_s" "s" lift_s;
    m "trace.unattributed_share" "ratio" (ratio (self "lift") lift_s);
    m "trace.overhead_s" "s" (per overhead);
    m "trace.spans" "count" (count (List.length spans));
  ]

(* The layer shares of traced lift wall time; a lift's own self time is
   what no layer call covers, and must stay under this share. *)
let unattributed_tolerance = 0.02

(* Where the traced run writes, relative to the repository root. *)
let out = "liftbench/out"

let write_summary ~stem ~workload ~seed ~passes ~spans ~first_pass metrics =
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let tot = Spans.totals spans in
  let lift_s = (tot "lift").busy in
  let shares = List.map (fun (layer, span) -> (layer, ratio (tot span).self lift_s)) layers in
  let unattributed = ratio (tot "lift").self lift_s in
  List.iter (fun (l, sh) -> log "layer %-9s %6.2f%% of traced lift time" l (100. *. sh)) shares;
  log "unattributed %.3f%% (tolerance %.0f%%)" (100. *. unattributed)
    (100. *. unattributed_tolerance);
  if unattributed > unattributed_tolerance then
    fault "layer self times leave %.3f%% of the traced lift time unattributed" (100. *. unattributed);
  let trace_file = Filename.concat out (stem ^ ".trace.json") in
  Spans.write_chrome trace_file first_pass;
  let json =
    Json.Obj
      [
        ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ("traced_passes", Json.Int passes);
        ("trace_file", Json.String trace_file);
        ("trace_file_holds", Json.String "the first traced pass");
        ("unattributed_share", Json.Float unattributed);
        ("unattributed_tolerance", Json.Float unattributed_tolerance);
        ("layer_shares", Json.Obj (List.map (fun (l, sh) -> (l, Json.Float sh)) shares));
        ( "metrics",
          Json.Obj
            (List.map
               (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]))
               metrics) );
      ]
  in
  let file = Filename.concat out (stem ^ ".layers.json") in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n');
  log "wrote %s and %s" file trace_file

(* ---- suite workloads: search-td, validate-bu ---- *)

let unbounded (m : Method_.t) = { m with budget = { m.budget with timeout_s = Float.infinity } }

let suite_methods = function
  | "search-td" -> [ Method_.stagg_td ]
  | _ -> [ Method_.stagg_bu; Method_.bu_equal_probability ]

(* Suite order, not a seeded one: lift order moves garbage-collection
   work from lift to lift, and with it the latency quantiles and the
   heap peak. *)
let suite_items methods =
  Array.of_list (List.concat_map (fun m -> List.map (fun b -> (unbounded m, b)) Suite.all) methods)

(* One pass over every (method, kernel) lift, each timed from outside.
   The mock-LLM client is stateful, so every lift gets a fresh query. *)
let suite_pass items =
  let memo_scope = fresh_scope () in
  let t0 = Spans.now () in
  let runs =
    Array.map
      (fun ((m : Method_.t), b) ->
        let q = Pipeline.query_of_bench m b in
        let s = Spans.now () in
        let r =
          try Ok (Pipeline.lift_prefixed ~memo_scope m q (Pipeline.prefix_of_query q))
          with e -> Error (Printexc.to_string e)
        in
        (Spans.now () -. s, Result.map Replay.outcome_of_result r))
      items
  in
  (runs, Spans.now () -. t0)

(* Checks one pass: every solved answer independently, the pinned
   totals, and every outcome against the reference pass. Returns the
   failed and solved lift counts. *)
let check_suite_pass checker ~reference items runs =
  let failed = ref 0 and solved = ref 0 in
  let totals = Hashtbl.create 2 in
  Array.iteri
    (fun i ((m : Method_.t), (b : Bench.t)) ->
      let r = snd runs.(i) in
      (match reference with
      | Some reference when reference.(i) <> r ->
          fault "%s %s differs from the reference pass" b.name m.label
      | _ -> ());
      match r with
      | Error e ->
          incr failed;
          log "%s %s raised %s" b.name m.label e
      | Ok (o : Replay.outcome) -> (
          tally totals m.label o;
          match o.answer with
          | None -> ()
          | Some taco -> (
              incr solved;
              match Check.answer checker b taco with
              | Ok () -> ()
              | Error e ->
                  incr failed;
                  log "%s %s: %s" b.name m.label e)))
    items;
  Hashtbl.iter check_pin totals;
  (!failed, !solved)

(* The set-up: inputs, the untimed warm-up pass that fills the
   per-domain compiled-template cache, and its check. Its outcomes are
   the reference every later pass must reproduce. *)
let suite_setup ~checker workload =
  let items = suite_items (suite_methods workload) in
  let runs, _ = suite_pass items in
  ignore (check_suite_pass checker ~reference:None items runs);
  (items, Array.map snd runs)

(* A lift's latency sample is the fastest of its timings in one half of
   the timed passes, the even or the odd ones, so every sample draws on
   the whole run and a run gives two samples per lift. Contention from
   outside the process (other programs on the host competing for caches
   and memory bandwidth) slows stretches of a run by up to half again
   while the lifts do the same work, take the same collections and fault
   the same pages; the fastest timing drops such a stretch unless it
   lasts the whole run. *)
let groups = 2

let halves passes = List.init groups (fun g -> List.filteri (fun k _ -> k mod groups = g) passes)

let fastest = List.fold_left Float.min Float.infinity

(* One latency sample per lift and group; [passes] hold per-lift
   (latency, _) pairs. *)
let best_latencies passes =
  List.concat_map
    (fun group -> List.init (Array.length (List.hd group)) (fun i -> fastest (List.map (fun p -> fst p.(i)) group)))
    (halves passes)

let run_suite ~workload ~seed ~seconds =
  let checker = Check.create ~seed in
  let items, reference = suite_setup ~checker workload in
  let setup_s = Spans.now () -. program_start in
  let passes =
    timed_loop ~group:groups ~seconds (fun () ->
        let runs, wall = suite_pass items in
        (runs, wall, Array.length runs))
  in
  log "timed passes %s s"
    (String.concat " " (List.map (fun runs -> Printf.sprintf "%.3f" (sum (Array.to_list (Array.map fst runs)))) passes));
  let checked = List.map (check_suite_pass checker ~reference:(Some reference) items) passes in
  (* One client lifts back to back, so the busy time is the sum of the
     latency samples. *)
  let latencies = best_latencies passes in
  end_to_end ~setup_s:(setup_median ~workload ~seed setup_s) ~latencies ~busy:(sum latencies)
    ~attempted:(List.length passes * Array.length items)
    ~solved:(List.fold_left (fun a (_, s) -> a + s) 0 checked)
    ~failed:(List.fold_left (fun a (f, _) -> a + f) 0 checked)

let trace_suite ~workload ~seed ~seconds =
  let checker = Check.create ~seed in
  let items, reference = suite_setup ~checker workload in
  let c = Replay.counters () in
  let failed = ref 0 and overhead = ref 0. in
  let rounds =
    timed_loop ~seconds (fun () ->
        let runs, untraced = suite_pass items in
        failed := !failed + fst (check_suite_pass checker ~reference:(Some reference) items runs);
        let sp = Spans.create ~tid:0 in
        let memo_scope = fresh_scope () in
        let t0 = Spans.now () in
        Array.iteri
          (fun i ((m : Method_.t), (b : Bench.t)) ->
            let q = Pipeline.query_of_bench m b in
            match Replay.lift sp c ~lift:i ~memo_scope m q with
            | o when reference.(i) = Ok o -> ()
            | o ->
                fault "traced replay of %s %s diverges: %s" b.name m.label
                  (Replay.outcome_to_string o)
            | exception e -> fault "traced replay of %s %s raised %s" b.name m.label (Printexc.to_string e))
          items;
        let traced = Spans.now () -. t0 in
        overhead := !overhead +. traced -. untraced;
        (sp.spans, untraced +. traced, Array.length items))
  in
  let spans = List.concat rounds in
  let passes = List.length rounds in
  let metrics = per_layer ~passes ~spans ~c ~s:(serve_layer ()) ~overhead:!overhead in
  write_summary ~stem:(Printf.sprintf "%s-seed%d" workload seed) ~workload ~seed ~passes
    ~spans ~first_pass:(List.hd rounds) metrics;
  { attempted = passes * Array.length items; failed = !failed; metrics }

(* ---- serve-mix ---- *)

(* The closed-loop clients: the main domain is client 0, and helper
   domains live for the whole run, so each keeps its per-domain
   compiled-template cache across repetitions as a long-lived server's
   domains do. *)
module Clients = struct
  type t = {
    mu : Mutex.t;
    cv : Condition.t;
    mutable task : int -> unit;
    mutable round : int;
    mutable finished : int;
    mutable stop : bool;
    mutable helpers : unit Domain.t list;
  }

  let rec helper t id seen =
    Mutex.lock t.mu;
    while t.round = seen && not t.stop do
      Condition.wait t.cv t.mu
    done;
    if t.stop then Mutex.unlock t.mu
    else begin
      let round = t.round and task = t.task in
      Mutex.unlock t.mu;
      task id;
      Mutex.protect t.mu (fun () ->
          t.finished <- t.finished + 1;
          Condition.broadcast t.cv);
      helper t id round
    end

  let create n =
    let t =
      {
        mu = Mutex.create ();
        cv = Condition.create ();
        task = ignore;
        round = 0;
        finished = 0;
        stop = false;
        helpers = [];
      }
    in
    t.helpers <- List.init (n - 1) (fun k -> Domain.spawn (fun () -> helper t (k + 1) 0));
    t

  (* [task client] on every client at once; returns when all are done.
     [task] must not raise. *)
  let run t task =
    Mutex.protect t.mu (fun () ->
        t.task <- task;
        t.finished <- 0;
        t.round <- t.round + 1;
        Condition.broadcast t.cv);
    task 0;
    Mutex.protect t.mu (fun () ->
        while t.finished < List.length t.helpers do
          Condition.wait t.cv t.mu
        done)

  let shutdown t =
    Mutex.protect t.mu (fun () ->
        t.stop <- true;
        Condition.broadcast t.cv);
    List.iter Domain.join t.helpers
end

let clients = 2

(* A repetition sends the 76 kernels the trace oracle lifts in [rounds]
   seeded orders. The cache holds fewer entries than a round has
   distinct kernels, so most of a round's kernels were evicted since the
   last round and are searched again: searched requests are the
   majority, and [latency_p50_ms] lands on a search, not a hit. *)
let rounds = 6
let cache_max = 48

(* Per round: exact repeats (the hit path) and same-source requests
   under a new id (same fingerprint, new cache key: the remap path). *)
let repeats = 8
let renames = 8

(* The one kernel the trace oracle cannot lift: it needs five index
   variables. Its search costs about two seconds, so the stream requests
   it once, first: it then overlaps the rounds on the other client
   whatever the seed, where a seeded position would swing a
   repetition's wall time. *)
let trace_unsolved = "dk_conv1x1"

type request = { id : string; bench : Bench.t; line : string }

let request ~id (b : Bench.t) =
  {
    id;
    bench = b;
    line =
      Json.to_string
        (Json.Obj
           [
             ("id", Json.String id);
             ("c", Json.String b.c_source);
             ("sig", Json.String (Stagg_minic.Sigspec.to_string b.signature));
           ]);
  }

(* Every round: each liftable kernel once in seeded order, then seeded
   repeats and renamed copies, each placed after its original. *)
let serve_stream ~seed =
  let prng = Prng.create ~seed in
  let unsolved, liftable =
    List.partition (fun (b : Bench.t) -> b.name = trace_unsolved) Suite.all
  in
  let n = float_of_int (List.length liftable) in
  let round r =
    let originals = Prng.shuffle prng liftable in
    let position = Hashtbl.create 77 in
    List.iteri (fun i (b : Bench.t) -> Hashtbl.replace position b.name (float_of_int i)) originals;
    let pick k = List.filteri (fun i _ -> i < k) (Prng.shuffle prng liftable) in
    let after (q : request) =
      let p = Hashtbl.find position q.bench.name in
      (p +. 0.5 +. (Prng.float prng *. (n -. p)), q)
    in
    let extras =
      List.map (fun (b : Bench.t) -> after (request ~id:b.name b)) (pick repeats)
      @ List.mapi
          (fun k (b : Bench.t) -> after (request ~id:(Printf.sprintf "%s~%d.%d" b.name r k) b))
          (pick renames)
    in
    List.mapi (fun i (b : Bench.t) -> (float_of_int i, request ~id:b.name b)) originals @ extras
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    |> List.map snd
  in
  Array.of_list
    (List.map (fun (b : Bench.t) -> request ~id:b.name b) unsolved
    @ List.concat (List.init rounds round))

(* One repetition: a fresh server, the whole stream sent by the clients.
   Returns the server, each request's latency and response line, and
   the wall time. *)
let serve_pass crew ?recorders stream =
  reset_memory ();
  let server = Server.create ~config:{ Server.jobs = clients; cache_max; verify = true } () in
  let n = Array.length stream in
  let replies = Array.make n (0., "") in
  let next = Atomic.make 0 in
  let t0 = Spans.now () in
  Clients.run crew (fun client ->
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let send () = Server.process_line server ~seq:i stream.(i).line in
          let s = Spans.now () in
          let line =
            try
              match recorders with
              | None -> send ()
              | Some rs -> Spans.with_span rs.(client) ~label:stream.(i).id ~lift:i "serve.request" send
            with e -> "raised " ^ Printexc.to_string e
          in
          replies.(i) <- (Spans.now () -. s, line);
          loop ()
        end
      in
      loop ());
  (server, replies, Spans.now () -. t0)

type answer = { path : string; status : string; outcome : Replay.outcome }

let answer_of line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok j ->
      let str k = Option.bind (Json.member k j) Json.to_str in
      let int k = Option.value (Option.bind (Json.member k j) Json.to_int) ~default:0 in
      let status = Option.value (str "status") ~default:"" in
      Ok
        {
          path = Option.value (str "cache") ~default:"";
          status;
          outcome =
            {
              Replay.solved = status = "ok";
              answer = str "taco";
              attempts = int "attempts";
              expansions = int "expansions";
              instantiations = int "instantiations";
            };
        }

(* The direct, serverless Trace pass over the 77 kernels: its totals are
   pinned, and a searched serve answer for a kernel's own name must
   equal its outcome here. (The server keeps its own 10 s backstop, which
   no search of the suite comes near.) *)
let trace_reference () =
  let m = unbounded Method_.td_trace in
  let memo_scope = fresh_scope () in
  let own = Hashtbl.create 77 and totals = Hashtbl.create 1 in
  List.iter
    (fun (b : Bench.t) ->
      let o =
        Replay.outcome_of_result (Pipeline.lift ~memo_scope m (Pipeline.query_of_bench m b))
      in
      Hashtbl.replace own b.name o;
      tally totals m.label o)
    Suite.all;
  Hashtbl.iter check_pin totals;
  own

(* Checks one repetition: every answer independently, and every
   searched answer under a kernel's own name against the direct pass.
   (A kernel's own name may also be answered by a remap: another suite
   kernel with the same fingerprint, or its own renamed copy, can be
   the donor after an eviction.) Returns the failed and solved counts. *)
let check_serve_pass checker ~reference stream replies =
  let failed = ref 0 and solved = ref 0 in
  let paths = Hashtbl.create 4 in
  Array.iteri
    (fun i (r : request) ->
      match answer_of (snd replies.(i)) with
      | Error e ->
          incr failed;
          log "%s: unreadable response (%s): %s" r.id e (snd replies.(i))
      | Ok { status = "ok" | "unsolved"; outcome = o; path } -> (
          Hashtbl.replace paths path (1 + Option.value (Hashtbl.find_opt paths path) ~default:0);
          if path = "miss" && r.id = r.bench.name && Hashtbl.find reference r.id <> o then
            fault "%s: searched answer differs from the direct pipeline: %s" r.id
              (Replay.outcome_to_string o);
          match o.answer with
          | None -> ()
          | Some taco -> (
              incr solved;
              match Check.answer checker r.bench taco with
              | Ok () -> ()
              | Error e ->
                  incr failed;
                  log "%s: %s" r.id e))
      | Ok _ ->
          incr failed;
          log "%s: %s" r.id (snd replies.(i)))
    stream;
  (!failed, !solved, paths)

(* The set-up: the stream, the untimed warm-up repetition through a
   fresh server, the direct reference pass, and the warm-up's check. *)
let serve_setup crew ~checker ~seed =
  let stream = serve_stream ~seed in
  let _, replies, _ = serve_pass crew stream in
  let reference = trace_reference () in
  ignore (check_serve_pass checker ~reference stream replies);
  (stream, reference)

let with_clients f =
  let crew = Clients.create clients in
  Fun.protect ~finally:(fun () -> Clients.shutdown crew) (fun () -> f crew)

let run_serve ~seed ~seconds =
  with_clients @@ fun crew ->
  let checker = Check.create ~seed in
  let stream, reference = serve_setup crew ~checker ~seed in
  let setup_s = Spans.now () -. program_start in
  let reps =
    timed_loop ~group:groups ~seconds (fun () ->
        let _, replies, wall = serve_pass crew stream in
        ((replies, wall), wall, Array.length replies))
  in
  log "timed repetitions %s s" (String.concat " " (List.map (fun (_, w) -> Printf.sprintf "%.3f" w) reps));
  let checked =
    List.map
      (fun (replies, _) ->
        let f, s, paths = check_serve_pass checker ~reference stream replies in
        log "repetition: %s"
          (String.concat ", "
             (List.map (fun (p, n) -> Printf.sprintf "%s %d" p n)
                (List.sort compare (List.of_seq (Hashtbl.to_seq paths)))));
        (f, s))
      reps
  in
  (* The clients answer concurrently, so the busy time is the wall time
     of a group's fastest repetition, summed over the groups. (A request
     took the same cache path in every repetition of the streams tried,
     so its timings time the same work.) *)
  let latencies = best_latencies (List.map fst reps) in
  end_to_end ~setup_s:(setup_median ~workload:"serve-mix" ~seed setup_s) ~latencies
    ~busy:(sum (List.map fastest (halves (List.map snd reps))))
    ~attempted:(List.length reps * Array.length stream)
    ~solved:(List.fold_left (fun a (_, s) -> a + s) 0 checked)
    ~failed:(List.fold_left (fun a (f, _) -> a + f) 0 checked)

(* The traced serve-mix run: per repetition, an untraced repetition, a
   traced one (a span per [process_line]), then from the main domain
   the mini-C front end of every request and a replay of every miss
   through [Replay.lift], each checked against the server's answer. *)
let trace_serve ~seed ~seconds =
  with_clients @@ fun crew ->
  let checker = Check.create ~seed in
  let stream, reference = serve_setup crew ~checker ~seed in
  let c = Replay.counters () and s = serve_layer () in
  let failed = ref 0 and overhead = ref 0. in
  let rounds =
    timed_loop ~seconds (fun () ->
        let _, replies, untraced = serve_pass crew stream in
        let f, _, _ = check_serve_pass checker ~reference stream replies in
        let recorders = Array.init clients (fun k -> Spans.create ~tid:k) in
        let server, replies, traced = serve_pass crew ~recorders stream in
        let f', _, _ = check_serve_pass checker ~reference stream replies in
        failed := !failed + f + f';
        overhead := !overhead +. traced -. untraced;
        s.evictions <- s.evictions + (Server.cache_stats server).evictions;
        let sp = Spans.create ~tid:clients in
        let memo_scope = fresh_scope () in
        let t0 = Spans.now () in
        Array.iteri
          (fun i (r : request) ->
            let span name f = Spans.with_span sp ~label:r.id ~lift:i name f in
            let func = span "minic.parse" (fun () -> Stagg_minic.Parser.parse_function r.bench.c_source) in
            let signature =
              span "minic.parse" (fun () ->
                  Stagg_minic.Sigspec.parse (Stagg_minic.Sigspec.to_string r.bench.signature))
            in
            match (func, signature, answer_of (snd replies.(i))) with
            | Ok func, Ok signature, Ok a ->
                ignore (span "minic.canon" (fun () -> Stagg_minic.Canon.fingerprint ~signature func));
                s.by_path <- (a.path, fst replies.(i)) :: s.by_path;
                if a.path = "miss" then begin
                  let m = Method_.td_trace in
                  let q =
                    {
                      Pipeline.qname = r.id;
                      func;
                      signature;
                      c_source = r.bench.c_source;
                      client = Stagg_oracle.Replay.of_lines [];
                      oracle = m.oracle;
                    }
                  in
                  let o = Replay.lift sp c ~lift:i ~memo_scope m q in
                  if o <> a.outcome then
                    fault "traced replay of %s diverges: %s" r.id (Replay.outcome_to_string o)
                end
            | _ -> fault "%s: request or response unreadable in the traced replay" r.id)
          stream;
        let replay = Spans.now () -. t0 in
        let spans = sp.spans @ List.concat_map (fun (r : Spans.t) -> r.spans) (Array.to_list recorders) in
        (spans, untraced +. traced +. replay, Array.length stream))
  in
  let spans = List.concat rounds in
  let passes = List.length rounds in
  let metrics = per_layer ~passes ~spans ~c ~s ~overhead:!overhead in
  write_summary ~stem:(Printf.sprintf "serve-mix-seed%d" seed) ~workload:"serve-mix" ~seed
    ~passes ~spans ~first_pass:(List.hd rounds) metrics;
  { attempted = passes * Array.length stream; failed = !failed; metrics }

(* ---- main ---- *)

let json_string = Spans.json_string
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit r =
  let correct = r.failed = 0 && !faults = 0 in
  List.iter (fun x -> log "%-30s %16.6f %s" x.name x.value x.unit_) r.metrics;
  (* Listed here but not among the result's metrics, which must be
     nonzero: a passing run's error share is always 0. *)
  log "%-30s %16.6f %s" "error_share" (ratio (float_of_int r.failed) (float_of_int r.attempted)) "ratio";
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name) (number x.value)
              (json_string x.unit_))
          r.metrics));
  if not correct then exit 1

(* [--setup-only]: the workload's set-up alone, then its time from
   process start on the last line of stdout. *)
let setup_only ~workload ~seed =
  let checker = Check.create ~seed in
  (match workload with
  | "serve-mix" -> with_clients (fun crew -> ignore (serve_setup crew ~checker ~seed))
  | _ -> ignore (suite_setup ~checker workload));
  let setup_s = Spans.now () -. program_start in
  if !faults > 0 then exit 1;
  Printf.printf "%s\n%!" (number setup_s)

let () =
  let workload = ref "" and seed = ref Method_.stagg_td.seed and seconds = ref 10. in
  let trace = ref false and setup = ref false in
  let usage =
    "liftbench --workload serve-mix|search-td|validate-bu [--seed N] [--seconds S] [--trace 0|1] \
     [--setup-only]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve-mix, search-td or validate-bu");
      ("--seed", Arg.Set_int seed, "N workload seed (default: the campaign seed 20250604)");
      ("--seconds", Arg.Set_float seconds, "S timed wall time to reach (default 10)");
      ("--trace", Arg.Int (fun v -> trace := v <> 0), "0|1 run the traced per-layer run");
      ("--setup-only", Arg.Set setup, " time the set-up alone and print it");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (match !workload with
  | "search-td" | "validate-bu" ->
      (* the campaign harness's GC setting: its hot loops allocate
         against a large live heap *)
      Gc.set { (Gc.get ()) with space_overhead = 480 }
  | "serve-mix" -> ()
  | _ ->
      prerr_endline usage;
      exit 2);
  let workload = !workload and seed = !seed and seconds = !seconds in
  if !setup then setup_only ~workload ~seed
  else
    emit
      (match (workload, !trace) with
      | "serve-mix", false -> run_serve ~seed ~seconds
      | "serve-mix", true -> trace_serve ~seed ~seconds
      | _, false -> run_suite ~workload ~seed ~seconds
      | _, true -> trace_suite ~workload ~seed ~seconds)
