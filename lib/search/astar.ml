open Stagg_util
open Stagg_grammar
module Pretty = Stagg_taco.Pretty

type budget = { max_attempts : int; max_expansions : int; timeout_s : float }

let default_budget = { max_attempts = 2_000; max_expansions = 200_000; timeout_s = 10. }

type stats = {
  attempts : int;
  expansions : int;
  suppressed : int;
  peak_frontier : int;
  push_decodes : int;
  a4_rejections : int;
}

type stop_reason = Attempts | Expansions | Frontier | Timeout

type 'sol outcome =
  | Solved of 'sol * stats
  | Exhausted of stats
  | Budget_exceeded of stop_reason * stats

let stats_of = function Solved (_, s) | Exhausted s | Budget_exceeded (_, s) -> s

type dedup = Fingerprint | Pretty_key

type prune_mode = Prune_admission

(* ---- the admission ledger ----

   Admission control at push time: a doomed complete child is never
   enqueued — no frontier item, no heap traffic — but the pop the
   baseline would have spent on it must still tick the budget and the
   64-pop clock poll AT ITS BASELINE POSITION,
   or the attempt/expansion caps would land on different templates (the
   suppressed child is pushed long before the baseline pops it, so
   counting it at push time front-loads the budget and stops the search
   on earlier pops than the baseline's — observably different attempts
   the moment a cap binds). The ledger keeps exactly the (f, seq) key of
   every suppressed child in a scalar min-heap over unboxed float/int
   arrays; the search drains it in lockstep with the frontier, charging
   [suppressed] (and replaying the doomed pop's observable dedup/attempt
   effects) precisely when (f, seq) says the baseline pop would have
   happened. Frontier and ledger share one sequence counter, so the
   interleaving — FIFO ties included — is the baseline's. *)
module Ledger = struct
  type t = {
    mutable prio : float array;
    mutable seq : int array;
    mutable fp : int array;
    mutable depth : int array;
    mutable nt : int array;
    mutable size : int;
  }

  let create () = { prio = [||]; seq = [||]; fp = [||]; depth = [||]; nt = [||]; size = 0 }
  let is_empty l = l.size = 0
  let length l = l.size
  let top_prio l = l.prio.(0)
  let top_seq l = l.seq.(0)

  let less l i j = l.prio.(i) < l.prio.(j) || (l.prio.(i) = l.prio.(j) && l.seq.(i) < l.seq.(j))

  let swap l i j =
    let fswap (a : float array) =
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    in
    let iswap (a : int array) =
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    in
    fswap l.prio;
    iswap l.seq;
    iswap l.fp;
    iswap l.depth;
    iswap l.nt

  let grow l =
    let cap = Array.length l.prio in
    if l.size = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let nf = Array.make ncap 0. in
      Array.blit l.prio 0 nf 0 l.size;
      l.prio <- nf;
      let ni a =
        let n = Array.make ncap 0 in
        Array.blit a 0 n 0 l.size;
        n
      in
      l.seq <- ni l.seq;
      l.fp <- ni l.fp;
      l.depth <- ni l.depth;
      l.nt <- ni l.nt
    end

  let push l ~prio ~seq ~fp ~depth ~nt =
    grow l;
    let i = ref l.size in
    l.prio.(!i) <- prio;
    l.seq.(!i) <- seq;
    l.fp.(!i) <- fp;
    l.depth.(!i) <- depth;
    l.nt.(!i) <- nt;
    l.size <- l.size + 1;
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let parent = (!i - 1) / 2 in
      if less l !i parent then begin
        swap l !i parent;
        i := parent
      end
      else continue_ := false
    done

  (* remove the minimum; returns (fp, depth, n_tensors) *)
  let pop l =
    let fp = l.fp.(0) and depth = l.depth.(0) and nt = l.nt.(0) in
    l.size <- l.size - 1;
    if l.size > 0 then begin
      l.prio.(0) <- l.prio.(l.size);
      l.seq.(0) <- l.seq.(l.size);
      l.fp.(0) <- l.fp.(l.size);
      l.depth.(0) <- l.depth.(l.size);
      l.nt.(0) <- l.nt.(l.size);
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let lc = (2 * !i) + 1 and rc = (2 * !i) + 2 in
        let smallest = ref !i in
        if lc < l.size && less l lc !smallest then smallest := lc;
        if rc < l.size && less l rc !smallest then smallest := rc;
        if !smallest <> !i then begin
          swap l !smallest !i;
          i := !smallest
        end
        else continue_ := false
      done
    end;
    (fp, depth, nt)
end

(* A popped search state: a partial leftmost derivation, as the applied
   rule ids, most recent first, with everything the pop and its pushes
   read besides a tree — path cost, metrics, open leaves, depth,
   fingerprint — extended incrementally in [ann]. A tree or program is
   decoded ({!Node.of_derivation}) only where one is read: an a4
   candidate at push, and a template that reaches validation (or is
   printed as a [Pretty_key]) at pop. *)
type entry = {
  c : float;  (** path cost c(x) *)
  deriv : int list;  (** applied rule ids, most recent first *)
  ann : Node.annotated;
  pst : Prune.state;  (** analysis-prune state of the applied-rule multiset *)
}

(* A frontier item allocates nothing: it is a queue slot whose value is
   an entry and whose sequence number carries, in its low [code_bits]
   bits, a code. A pushed child is its expanded parent and the rule
   applied to it (code = rule id), rebuilt into an [entry] only when
   popped ({!rebuild}); the annotation its push computed for f dies
   young, siblings share the parent, and its prune state is one
   [Prune.step] from the parent's. The root entry stands for itself
   ([root_code]). A ghost ([ghost_code], value the root) replays the pop
   of a complete duplicate of an already-validated template: its pop
   only counts an expansion, exactly what the popped duplicate would
   have done. Sequence numbers are unique, so ordering the packed keys
   orders the pushes exactly as the bare sequence numbers would. *)
let code_bits = 20
let code_mask = (1 lsl code_bits) - 1
let root_code = code_mask
let ghost_code = code_mask - 1

type 'sol engine = {
  pcfg : Pcfg.t;
  penalty : Penalty.compiled;
  budget : budget;
  a4 : Penalty.a4_scan;
  validate : Stagg_taco.Ast.program -> 'sol option;
  root : entry;
  frontier : entry Pqueue.t;  (** priority f(x); see [code_bits] *)
  sup : Ledger.t;  (** admission-suppressed (f, seq, fp, guards) keys *)
  dedup : dedup;
  seen_fp : Inttbl.t;  (** validated templates, fingerprints *)
  seen_str : (string, unit) Hashtbl.t;  (** validated templates, printed form (legacy mode) *)
  pen_memo : Inttbl.t;
      (** fingerprint → penalty a complete template was pushed with; lets a
          duplicate's ghost reconstruct the same f without rescoring *)
  fps : Node.fingerprints;
  rule_cost : float array;  (** [Pcfg.cost] per rule, precomputed *)
  h_memo : (string, float) Hashtbl.t;  (** [Pcfg.h_cost] per nonterminal, precomputed *)
  prune : Prune.t option;  (** analysis-guided pruning (Fingerprint mode only) *)
  started : float;
  mutable eseq : int;  (** push sequence shared by [frontier] and [sup] *)
  mutable attempts : int;
  mutable expansions : int;
  mutable suppressed : int;  (** ledger drains *)
  mutable peak_frontier : int;  (** largest [frontier] length seen by [run] *)
  mutable push_decodes : int;  (** a4 candidates decoded at push *)
  mutable a4_rejections : int;  (** complete children a4 kept off the frontier *)
  mutable timed_out : bool;  (** latched by the periodic clock check *)
  mutable stop : stop_reason;  (** which limit fired, for [Budget_exceeded] *)
}

(* every push — frontier or ledger — consumes one sequence number, so
   the numbering is exactly the baseline's push order *)
let take_seq e =
  let s = e.eseq in
  e.eseq <- s + 1;
  s

let qpush e f parent code =
  Pqueue.push_seq e.frontier f ((take_seq e lsl code_bits) lor code) parent

(* Both searches extend child metrics incrementally ({!Node.expand_metrics})
   and never rescan a tree, so a grammar outside that contract is a caller
   error, not a slow path. Every grammar the pipeline builds satisfies it. *)
let make_engine ~pcfg ~fps ~penalty_ctx ~budget ~validate ~dedup ~prune =
  let g = Pcfg.cfg pcfg in
  if not (Node.incremental_safe g) then
    invalid_arg "Astar: grammar is not incremental-safe (a tensor right of a nonterminal)";
  if Cfg.size g > ghost_code then invalid_arg "Astar: too many rules for a frontier code";
  let x0 = Node.initial g in
  let root = { c = 0.; deriv = []; ann = Node.annotate g fps x0; pst = Prune.root } in
  let rule_cost = Array.init (Cfg.size g) (fun id -> Pcfg.cost pcfg (Cfg.rule g id)) in
  let h_memo = Hashtbl.create 16 in
  List.iter (fun nt -> Hashtbl.replace h_memo nt (Pcfg.h_cost pcfg nt)) (Cfg.nonterminals g);
  let e =
    {
      pcfg;
      penalty = Penalty.compile penalty_ctx;
      a4 = Penalty.a4_scan g;
      budget;
      validate;
      root;
      frontier = Pqueue.create ~dummy:root;
      sup = Ledger.create ();
      dedup;
      seen_fp = Inttbl.create ();
      seen_str = Hashtbl.create 64;
      pen_memo = Inttbl.create ();
      fps;
      rule_cost;
      h_memo;
      (* the duplicate/doomed replay protocol marks [seen_fp], so pruning
         only composes with fingerprint dedup *)
      prune = (if dedup = Fingerprint then prune else None);
      started = Clock.now ();
      eseq = 0;
      attempts = 0;
      expansions = 0;
      suppressed = 0;
      peak_frontier = 0;
      push_decodes = 0;
      a4_rejections = 0;
      timed_out = false;
      stop = Expansions;
    }
  in
  qpush e 0. root root_code;
  e

let elapsed e = Clock.now () -. e.started

let stats e =
  {
    attempts = e.attempts;
    expansions = e.expansions;
    suppressed = e.suppressed;
    peak_frontier = e.peak_frontier;
    push_decodes = e.push_decodes;
    a4_rejections = e.a4_rejections;
  }

(* The heuristic g(x) (§5.1): Σ of [Pcfg.h_cost] over the ordered
   open-leaf list, summed left to right, with each nonterminal's cost
   looked up in [h_memo] instead of recomputed. 0 when complete. *)
let g_opens e opens =
  List.fold_left (fun acc nt -> acc +. Hashtbl.find e.h_memo nt) 0. opens

(* The frontier is also capped: a queue of this size means the heuristic
   has stopped discriminating and memory would grow without bound. *)
let max_frontier = 1_500_000

(* The attempt/expansion/frontier checks are exact (they bound the
   deterministic outcome); the clock is only a backstop, so it is polled
   every 64 pops and latched, keeping it out of the hot loop. *)
(* Budget accounting runs on TOTAL baseline pops — real expansions plus
   admission-suppressed ledger drains — so enabling the analysis prune
   moves no stop point: the tick sequence, and hence where a cap or the
   64-pop clock poll lands, is position-for-position the baseline's. Only the REPORTED expansion
   count shrinks. The frontier cap likewise counts ledger residents: the
   baseline holds every suppressed child in its queue, so the cap must
   see the same population. *)
let over_budget e =
  let pops = e.expansions + e.suppressed in
  if e.attempts >= e.budget.max_attempts then begin
    e.stop <- Attempts;
    true
  end
  else if pops >= e.budget.max_expansions then begin
    e.stop <- Expansions;
    true
  end
  else if Pqueue.length e.frontier + Ledger.length e.sup > max_frontier then begin
    e.stop <- Frontier;
    true
  end
  else begin
    if (not e.timed_out) && pops land 63 = 0 then
      e.timed_out <- elapsed e > e.budget.timeout_s;
    if e.timed_out then e.stop <- Timeout;
    e.timed_out
  end

(* Would the baseline's next pop be a suppressed (never-enqueued) child?
   Exact (f, seq) lexicographic comparison against the frontier head. *)
let baseline_pops_suppressed e =
  (not (Ledger.is_empty e.sup))
  && (Pqueue.is_empty e.frontier
     ||
     let sp = Ledger.top_prio e.sup and qp = Pqueue.top_prio e.frontier in
     sp < qp || (sp = qp && Ledger.top_seq e.sup < Pqueue.top_seq e.frontier lsr code_bits))

(* [true] iff [key] was already in [tbl]; adds it otherwise *)
let check_add tbl key =
  Hashtbl.mem tbl key
  ||
  (Hashtbl.add tbl key ();
   false)

(* Validate the complete template derived by [deriv]. Duplicate
   templates — the EXPR OP EXPR rule makes the grammar ambiguous, and
   associative duplicates print identically — are validated once. The
   probe keys on the derivation's fingerprint (O(1), no printing), so a
   duplicate is never decoded; [Pretty_key] mode decodes every template
   to print its key, for differential testing against the legacy scheme.
   A template without a program (an unrecognized rule shape) is neither
   counted nor marked seen. *)
let try_validate e g ~fp deriv : 'sol option =
  if e.dedup = Fingerprint && Inttbl.mem e.seen_fp fp then None
  else
    match Node.to_program g (Node.of_derivation g deriv) with
    | None -> None
    | Some p ->
        let dup =
          match e.dedup with
          | Fingerprint -> Inttbl.check_add e.seen_fp fp
          | Pretty_key -> check_add e.seen_str (Pretty.program_to_string p)
        in
        if dup then None
        else begin
          e.attempts <- e.attempts + 1;
          e.validate p
        end

(* X(x) of the child [rid :: rd] with metrics [m]. a4 is decided on
   the derivation: the scan clears most complete children without a
   tree, and only a candidate is decoded and checked exactly. *)
let penalty e g (m : Node.metrics) rid rd =
  let pen = Penalty.score_compiled e.penalty m in
  if
    pen < infinity
    && Penalty.checks_a4 e.penalty m
    && Penalty.a4_candidate e.a4 rid rd
    &&
    (e.push_decodes <- e.push_decodes + 1;
     match Node.to_program g (Node.of_derivation g (rid :: rd)) with
     | Some p -> Penalty.same_operand_addsubdiv p.Stagg_taco.Ast.rhs
     | None -> false)
  then begin
    e.a4_rejections <- e.a4_rejections + 1;
    infinity
  end
  else pen

(* Push every legal one-step expansion of [parent]. Each child's
   annotation is extended from the parent's to score it, then dropped:
   the frontier keeps only (parent, rule). *)
let push_expansions e (g : Cfg.t) (parent : entry) =
  match parent.ann.Node.opens with
  | [] -> ()
  | nt :: _ ->
      (* Sibling children whose rule adds no nonterminals all share the
         parent's tail as their opens list — physically, thanks to the
         incremental extension — and tensor/operator nonterminals expand by
         dozens of such rules. A one-slot cache keyed on physical identity
         computes their (identical, float-for-float) g once per expansion
         instead of once per rule. *)
      let g_cache : (string list * float) option ref = ref None in
      let g_of opens =
        match !g_cache with
        | Some (k, v) when k == opens -> v
        | _ ->
            let v = g_opens e opens in
            g_cache := Some (opens, v);
            v
      in
      List.iter
        (fun (r : Cfg.rule) ->
          let rc = e.rule_cost.(r.id) in
          if rc < infinity then begin
            let c' = parent.c +. rc in
            let ann = Node.expand_metrics e.fps parent.ann r in
            let complete = ann.Node.metrics.complete in
            let ghosted =
              (* pre-probe duplicate suppressor: a complete child whose
                 fingerprint has already been validated will be a dead pop,
                 so push a ghost in its place — no tree, no program
                 rebuild, no penalty rescore. [pen_memo] holds the penalty
                 its first twin was pushed with (equal template ⇒ equal
                 metrics and AST ⇒ equal penalty), making the ghost's f
                 bit-identical to the suppressed entry's. *)
              e.dedup = Fingerprint && complete && Inttbl.mem e.seen_fp ann.Node.fp
              &&
              (* only finite penalties are memoized *)
              let pen = Inttbl.find e.pen_memo ann.Node.fp ~default:infinity in
              pen < infinity
              &&
              (qpush e (c' +. 0. +. pen) e.root ghost_code;
               true)
            in
            if not ghosted then begin
              let pst' =
                match e.prune with None -> Prune.root | Some pr -> Prune.step pr parent.pst r.id
              in
              let pen = penalty e g ann.Node.metrics r.id parent.deriv in
              if pen < infinity then begin
                if e.dedup = Fingerprint && complete then Inttbl.replace e.pen_memo ann.Node.fp pen;
                if Option.is_some e.prune && complete && Prune.is_doomed pst' then
                  (* a DOOMED complete child — the analysis proved its
                     validation enumerates zero substitutions — is never
                     enqueued: its (f, seq) key goes to the admission
                     ledger, which replays the pop's observable effects at
                     its baseline position. The penalty is scored the
                     baseline way because f must be bit-identical, and
                     [pen_memo] is still fed so later twins ghost exactly
                     as before. Incomplete doomed children stay ordinary
                     entries: their pops never validate anyway, and their
                     children inherit the doomed state through [pst]. *)
                  Ledger.push e.sup ~prio:(c' +. 0. +. pen) ~seq:(take_seq e) ~fp:ann.Node.fp
                    ~depth:ann.Node.depth ~nt:ann.Node.metrics.n_tensors
                else
                  let f = c' +. g_of ann.Node.opens +. pen in
                  qpush e f parent r.id
              end
            end
          end)
        (Cfg.rules_for g nt)

(* The entry a frontier item with a rule-id code stands for. A child's
   path cost is the same float sum its push computed f from, and its
   annotation and prune state are the ones its push computed. *)
let rebuild e g parent rid =
  {
    c = parent.c +. e.rule_cost.(rid);
    deriv = rid :: parent.deriv;
    ann = Node.expand_metrics e.fps parent.ann (Cfg.rule g rid);
    pst = (match e.prune with None -> Prune.root | Some pr -> Prune.step pr parent.pst rid);
  }

(* An admission-ledger drain replays what the baseline pop of the
   suppressed entry would have observably done: count the attempt and
   mark the template seen the first time it survives the same guards
   (the TD depth prune / the BU tensor-count gate) — validating it was a
   structural no-op. *)
let replay_suppressed e ~fp = if not (Inttbl.check_add e.seen_fp fp) then e.attempts <- e.attempts + 1

(* The searches run on the calling domain; [?domains] accepts only 1
   (see the mli). *)
let check_domains d =
  if d <> 1 then invalid_arg (Printf.sprintf "Astar: ~domains must be 1, got %d" d)

(* The search loop shared by both enumerators. Each step either drains
   one admission-ledger key (when the baseline's next pop is a
   suppressed child) or pops one frontier item, after the same budget
   check. [on_ledger] replays a suppressed pop from its
   (fp, depth, n_tensors); [on_item] handles an entry and returns the
   outcome that ends the search, if any. *)
let rec run e ~on_ledger ~on_item =
  let n = Pqueue.length e.frontier in
  if n > e.peak_frontier then e.peak_frontier <- n;
  if baseline_pops_suppressed e then
    if over_budget e then Budget_exceeded (e.stop, stats e)
    else begin
      let fp, depth, nt = Ledger.pop e.sup in
      e.suppressed <- e.suppressed + 1;
      on_ledger ~fp ~depth ~nt;
      run e ~on_ledger ~on_item
    end
  else if over_budget e then Budget_exceeded (e.stop, stats e)
  else if Pqueue.is_empty e.frontier then Exhausted (stats e)
  else
    let code = Pqueue.top_seq e.frontier land code_mask in
    match Pqueue.pop e.frontier with
    | None -> Exhausted (stats e)
    | Some (_, _) when code = ghost_code ->
        (* ghosts are only pushed for complete children, whose pop
           validates a duplicate (a no-op) and expands nothing *)
        e.expansions <- e.expansions + 1;
        run e ~on_ledger ~on_item
    | Some (_, value) -> (
        e.expansions <- e.expansions + 1;
        let en = if code = root_code then value else rebuild e (Pcfg.cfg e.pcfg) value code in
        match on_item en with
        | Some outcome -> outcome
        | None -> run e ~on_ledger ~on_item)

let search_topdown ~pcfg ~penalty_ctx ?(max_depth = 6) ?(dedup = Fingerprint) ?prune
    ?prune_mode:(_ = Prune_admission) ?(domains = 1) ~budget ~validate () =
  check_domains domains;
  let g = Pcfg.cfg pcfg in
  let fps = Node.fingerprints g in
  (* the depth prune reads the annotation's incrementally-carried depth,
     so depth-dead pops never decode (or walk) their tree *)
  if not (Node.depth_static fps) then
    invalid_arg "Astar: grammar is not depth-static";
  let e = make_engine ~pcfg ~fps ~penalty_ctx ~budget ~validate ~dedup ~prune in
  run e
    ~on_ledger:(fun ~fp ~depth ~nt:_ -> if depth <= max_depth then replay_suppressed e ~fp)
    ~on_item:(fun en ->
      if en.ann.Node.depth > max_depth then None
      else if en.ann.Node.metrics.complete then
        Option.map (fun sol -> Solved (sol, stats e)) (try_validate e g ~fp:en.ann.Node.fp en.deriv)
      else begin
        push_expansions e g en;
        None
      end)

let search_bottomup ~pcfg ~penalty_ctx ~dim_list ?(dedup = Fingerprint) ?prune
    ?prune_mode:(_ = Prune_admission) ?(domains = 1) ~budget ~validate () =
  check_domains domains;
  let g = Pcfg.cfg pcfg in
  let fps = Node.fingerprints g in
  let e = make_engine ~pcfg ~fps ~penalty_ctx ~budget ~validate ~dedup ~prune in
  let n_predicted = List.length dim_list in
  run e
    ~on_ledger:(fun ~fp ~depth:_ ~nt ->
      (* the baseline pop validates (a no-op here) only when the complete
         tree carries exactly the predicted tensor count, and expands
         nothing *)
      if nt = n_predicted then replay_suppressed e ~fp)
    ~on_item:(fun en ->
      let solved =
        if en.ann.Node.metrics.n_tensors = n_predicted then
          match Node.close_tails g en.ann.Node.opens en.deriv with
          (* closing ε tails adds empty rule contributions, so the
             completed derivation's fingerprint equals the popped entry's *)
          | Some complete -> try_validate e g ~fp:en.ann.Node.fp complete
          | None -> None
        else None
      in
      match solved with
      | Some sol -> Some (Solved (sol, stats e))
      | None ->
          push_expansions e g en;
          None)
