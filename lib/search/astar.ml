open Stagg_util
open Stagg_grammar

type budget = { max_attempts : int; max_expansions : int; timeout_s : float }

type stats = {
  attempts : int;
  expansions : int;
  suppressed : int;
  peak_frontier : int;
  a4_rejections : int;
}

type stop_reason = Attempts | Expansions | Frontier | Timeout

type 'sol outcome =
  | Solved of 'sol * stats
  | Exhausted of stats
  | Budget_exceeded of stop_reason * stats

let stats_of = function Solved (_, s) | Exhausted s | Budget_exceeded (_, s) -> s

type dedup = Fingerprint

type prune_mode = Prune_admission

(* A popped search state: a partial leftmost derivation, as the applied
   rule ids, most recent first, with everything the pop and its pushes
   read besides a tree — path cost, metrics, open leaves, depth,
   fingerprint — extended incrementally in [ann]. A tree or program is
   decoded ({!Node.of_derivation}) only where one is read: a template
   that reaches validation at pop. *)
type entry = {
  c : float;  (** path cost c(x) *)
  deriv : int list;  (** applied rule ids, most recent first *)
  ann : Node.annotated;
  pst : Prune.state;  (** analysis-prune state of the applied-rule multiset *)
}

(* A frontier item allocates nothing and holds no pointer: it is a
   queue slot whose value is an int — the index of its parent entry in
   the search's parent table ([parents]) — and whose sequence number
   carries, in its low [code_bits] bits, a code. A pushed child is its
   expanded parent and the rule applied to it (code = rule id), rebuilt
   into an [entry] only when popped ({!rebuild}); the annotation its
   push computed for f dies young, siblings share the parent, and its
   prune state is one [Prune.step] from the parent's. The root entry
   stands for itself ([root_code]). A ghost ([ghost_code]) replays the
   pop of a complete duplicate of an already-validated template: its pop
   only counts an expansion, exactly what the popped duplicate would
   have done, and never reads its value (index 0, the root's: the root
   is the first parent registered). Sequence numbers are unique, so
   ordering the packed keys orders the pushes exactly as the bare
   sequence numbers would.

   A parent stays in the table while any of its children is queued:
   [pending] counts them, and the pop that takes the last one clears the
   parent's slot, so the entry becomes garbage at the same pop at which
   the last queue slot holding it would have let go of it. The table
   itself is written once when a parent registers and once when it is
   released — never by a sift. *)
let code_bits = 20
let code_mask = (1 lsl code_bits) - 1
let root_code = code_mask
let ghost_code = code_mask - 1

(* Admission control at push time: a doomed complete child is never
   enqueued on the frontier, but the pop the baseline would have spent on
   it must still tick the budget and the 64-pop clock poll AT ITS
   BASELINE POSITION, or the attempt/expansion caps would land on
   different templates (counting it at push time front-loads the budget
   and stops the search on earlier pops than the baseline's). So its
   key goes to a second queue, [sup], whose value is the child's
   fingerprint and whose packed sequence number carries one of two
   codes, decided at push from the child's annotation: whether the
   baseline pop would have passed the search's guard and so counted an
   attempt and marked the template seen ([replay_code]), or only ticked
   ([tick_code]). Only the bottom-up guard, the tensor count, can
   refuse; a top-down suppressed child always replays (see
   [search_topdown]). The search drains [sup] in lockstep with the
   frontier; both draw from one sequence counter, so the interleaving,
   FIFO ties included, is the baseline's. *)
let replay_code = 1
let tick_code = 0

type 'sol engine = {
  pcfg : Pcfg.t;
  penalty : Penalty.compiled;
  budget : budget;
  a4 : Penalty.a4_scan;
  validate : Stagg_taco.Ast.program -> 'sol option;
  root : entry;
  frontier : Pqueue.t;  (** priority f(x), value a [parents] index; see [code_bits] *)
  sup : Pqueue.t;  (** admission-suppressed fingerprints; see [replay_code] *)
  mutable parents : entry array;  (** expanded parents, by registration order *)
  mutable pending : int array;  (** per [parents] slot, its children still queued *)
  mutable n_parents : int;  (** slots registered so far *)
  replays : Node.annotated -> bool;  (** the search's guard on a suppressed child *)
  seen_fp : Inttbl.t;
      (** validated templates, fingerprints; the value is [ghostable]
          once a later complete twin may be pushed as a ghost *)
  fps : Node.fingerprints;
  rule_cost : float array;  (** [Pcfg.cost] per rule, precomputed *)
  h_memo : float array;  (** [Pcfg.h_cost] per nonterminal id, precomputed *)
  prune : Prune.t option;  (** analysis-guided pruning *)
  started : float;
  mutable eseq : int;  (** push sequence shared by [frontier] and [sup] *)
  mutable attempts : int;
  mutable expansions : int;
  mutable suppressed : int;  (** [sup] drains *)
  mutable peak_frontier : int;  (** largest [frontier] length seen by [run] *)
  mutable a4_rejections : int;  (** complete children a4 kept off the frontier *)
  mutable timed_out : bool;  (** latched by the periodic clock check *)
  mutable stop : stop_reason;  (** which limit fired, for [Budget_exceeded] *)
}

(* every push — frontier or [sup] — consumes one sequence number, so
   the numbering is exactly the baseline's push order *)
let packed_seq e code =
  let s = e.eseq in
  e.eseq <- s + 1;
  (s lsl code_bits) lor code

let qpush e f pi code = Pqueue.push_seq e.frontier f (packed_seq e code) pi

(* Both searches extend child metrics incrementally ({!Node.expand_metrics})
   and never rescan a tree, so a grammar outside that contract is a caller
   error, not a slow path. Every grammar the pipeline builds satisfies it. *)
let make_engine ~pcfg ~fps ~penalty_ctx ~budget ~validate ~prune ~replays =
  let g = Pcfg.cfg pcfg in
  if not (Node.incremental_safe g) then
    invalid_arg "Astar: grammar is not incremental-safe (a tensor right of a nonterminal)";
  if Cfg.size g > ghost_code then invalid_arg "Astar: too many rules for a frontier code";
  let x0 = Node.initial g in
  let root = { c = 0.; deriv = []; ann = Node.annotate g fps x0; pst = Prune.root } in
  let rule_cost = Array.init (Cfg.size g) (fun id -> Pcfg.cost pcfg (Cfg.rule g id)) in
  let h_memo = Array.init (Node.n_nonterminals fps) (fun nt -> Pcfg.h_cost pcfg (Node.nt_name fps nt)) in
  let e =
    {
      pcfg;
      penalty = Penalty.compile penalty_ctx;
      a4 = Penalty.a4_scan g;
      budget;
      validate;
      root;
      frontier = Pqueue.create ();
      sup = Pqueue.create ();
      parents = [||];
      pending = [||];
      n_parents = 0;
      replays;
      seen_fp = Inttbl.create ();
      fps;
      rule_cost;
      h_memo;
      prune;
      started = Clock.now ();
      eseq = 0;
      attempts = 0;
      expansions = 0;
      suppressed = 0;
      peak_frontier = 0;
      a4_rejections = 0;
      timed_out = false;
      stop = Expansions;
    }
  in
  qpush e 0. 0 root_code;
  e

let elapsed e = Clock.now () -. e.started

let stats e =
  {
    attempts = e.attempts;
    expansions = e.expansions;
    suppressed = e.suppressed;
    peak_frontier = e.peak_frontier;
    a4_rejections = e.a4_rejections;
  }

(* The heuristic g(x) (§5.1): Σ of [Pcfg.h_cost] over the ordered
   open-leaf list, summed left to right, with each nonterminal's cost
   read from [h_memo] by its id instead of recomputed. 0 when
   complete. *)
let g_opens e opens = List.fold_left (fun acc nt -> acc +. e.h_memo.(nt)) 0. opens

(* Register [parent] with [n] queued children in slot [e.n_parents] —
   the index those children were pushed with. *)
let register e parent n =
  let i = e.n_parents in
  if i = Array.length e.parents then begin
    let cap = max 16 (2 * i) in
    let ps = Array.make cap e.root and pn = Array.make cap 0 in
    Array.blit e.parents 0 ps 0 i;
    Array.blit e.pending 0 pn 0 i;
    e.parents <- ps;
    e.pending <- pn
  end;
  e.parents.(i) <- parent;
  e.pending.(i) <- n;
  e.n_parents <- i + 1

(* The frontier is also capped: a queue of this size means the heuristic
   has stopped discriminating and memory would grow without bound. *)
let max_frontier = 1_500_000

(* The attempt/expansion/frontier checks are exact (they bound the
   deterministic outcome); the clock is only a backstop, so it is polled
   every 64 pops and latched, keeping it out of the hot loop. *)
(* Budget accounting runs on TOTAL baseline pops — real expansions plus
   admission-suppressed [sup] drains — so enabling the analysis prune
   moves no stop point: the tick sequence, and hence where a cap or the
   64-pop clock poll lands, is position-for-position the baseline's.
   Only the REPORTED expansion count shrinks. The frontier cap likewise
   counts [sup] residents: the baseline holds every suppressed child in
   its queue, so the cap must see the same population. *)
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
  else if Pqueue.length e.frontier + Pqueue.length e.sup > max_frontier then begin
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
   Exact (f, seq) lexicographic comparison of the two queue heads; the
   sequence numbers are unique, so comparing the packed keys compares
   them. *)
let baseline_pops_suppressed e =
  (not (Pqueue.is_empty e.sup)) && (Pqueue.is_empty e.frontier || Pqueue.precedes e.sup e.frontier)

(* [seen_fp]'s value for a fingerprint: [ghostable] once a complete
   twin of the template has been queued — frontier or [sup] — so a
   later complete twin ghosts (see [push_expansions]); [not_ghostable]
   while none has been. [unseen] is [find]'s default. *)
let ghostable = 1.
let not_ghostable = 0.
let unseen = -1.

(* Validate the complete template derived by [deriv]. Duplicate
   templates — the EXPR OP EXPR rule makes the grammar ambiguous, and
   associative duplicates print identically — are validated once. The
   probe keys on the derivation's fingerprint (O(1), no printing), so a
   duplicate is never decoded. A template without a program (an
   unrecognized rule shape) is neither counted nor marked seen. [queued]
   says whether [deriv] is the popped entry's own derivation, which was
   queued complete; a bottom-up entry validated through its closed tails
   was not. *)
let try_validate e g ~fp ~queued deriv : 'sol option =
  if Inttbl.mem e.seen_fp fp then None
  else
    match Node.to_program g (Node.of_derivation g deriv) with
    | None -> None
    | Some p ->
        Inttbl.replace e.seen_fp fp (if queued then ghostable else not_ghostable);
        e.attempts <- e.attempts + 1;
        e.validate p

(* X(x) of the child of [parent] by rule [rid], with metrics [m]. a4 is
   decided on the derivation, with no tree. Every complete child of one
   expansion fills the parent's one open leaf, so the first child a4
   checks is scanned whole ({!Penalty.a4_fires}), which also summarizes
   the path from that leaf to the root, and each later one only folds
   its own rule up that path ({!Penalty.a4_fires_on_path}). [checked]
   says whether an earlier child of the expansion was checked. *)
let penalty e (parent : entry) (m : Node.metrics) rid checked =
  let pen = Penalty.score_compiled e.penalty m in
  if
    pen < infinity
    && Penalty.checks_a4 e.penalty m
    &&
    if !checked then Penalty.a4_fires_on_path e.a4 rid
    else begin
      checked := true;
      Penalty.a4_fires e.a4 rid parent.deriv
    end
  then begin
    e.a4_rejections <- e.a4_rejections + 1;
    infinity
  end
  else pen

(* Push every legal one-step expansion of [parent]. Each child's
   annotation is extended from the parent's to score it, then dropped:
   the frontier keeps only (parent index, rule). The children are pushed
   with the next free [parents] slot, which the parent takes afterwards
   if any child was queued. *)
let push_expansions e (parent : entry) =
  match parent.ann.Node.opens with
  | [] -> ()
  | nt :: _ ->
      let pi = e.n_parents in
      (* Sibling children whose rule adds no nonterminals all share the
         parent's tail as their opens list — physically, thanks to the
         incremental extension — and tensor/operator nonterminals expand by
         dozens of such rules. A one-slot cache keyed on physical identity
         computes their (identical, float-for-float) g once per expansion
         instead of once per rule. *)
      let g_cache : (int list * float) option ref = ref None in
      let g_of opens =
        match !g_cache with
        | Some (k, v) when k == opens -> v
        | _ ->
            let v = g_opens e opens in
            g_cache := Some (opens, v);
            v
      in
      let queued = ref 0 and checked = ref false in
      List.iter
        (fun (r : Cfg.rule) ->
          let rc = e.rule_cost.(r.id) in
          if rc < infinity then begin
            let c' = parent.c +. rc in
            let ann = Node.expand_metrics e.fps parent.ann r in
            let complete = ann.Node.metrics.complete in
            let seen = if complete then Inttbl.find e.seen_fp ann.Node.fp ~default:unseen else unseen in
            if seen = ghostable then
              (* pre-probe duplicate suppressor: a complete child whose
                 template has already been validated will be a dead pop,
                 so push a ghost in its place — no tree, no program
                 rebuild. A twin was queued, so its penalty was finite
                 and a4 did not fire on it; an equal template has equal
                 metrics and AST, so the child's penalty is its
                 [score_compiled], and the ghost's f is bit-identical to
                 the child's. *)
              qpush e (c' +. 0. +. Penalty.score_compiled e.penalty ann.Node.metrics) 0 ghost_code
            else begin
              let pst' =
                match e.prune with None -> Prune.root | Some pr -> Prune.step pr parent.pst r.id
              in
              let pen = penalty e parent ann.Node.metrics r.id checked in
              if pen < infinity then begin
                (* a template validated through a bottom-up entry's closed
                   tails ghosts from its first queued complete twin on.
                   None was queued before that validation: the generated
                   bottom-up grammars derive a template one way only, so
                   the twin's derivation runs through the validated entry
                   and is pushed after its pop. *)
                if seen = not_ghostable then Inttbl.replace e.seen_fp ann.Node.fp ghostable;
                if Option.is_some e.prune && complete && Prune.is_doomed pst' then
                  (* a DOOMED complete child — the analysis proved its
                     validation enumerates zero substitutions — is never
                     enqueued: its key goes to [sup], whose drain replays
                     the pop's observable effects at its baseline
                     position. The penalty is scored the baseline way
                     because f must be bit-identical. Its drain marks the
                     template ghostable, as a pop would.
                     Incomplete doomed children stay ordinary entries:
                     their pops never validate anyway, and their children
                     inherit the doomed state through [pst]. *)
                  let code = if e.replays ann then replay_code else tick_code in
                  Pqueue.push_seq e.sup (c' +. 0. +. pen) (packed_seq e code) ann.Node.fp
                else begin
                  let f = c' +. g_of ann.Node.opens +. pen in
                  qpush e f pi r.id;
                  incr queued
                end
              end
            end
          end)
        (Node.rules_of e.fps nt);
      if !queued > 0 then register e parent !queued

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

(* Rebuild the child popped from slot [pi] with rule [rid], and release
   the parent's slot when this was its last queued child. *)
let take_child e pi rid =
  let en = rebuild e (Pcfg.cfg e.pcfg) e.parents.(pi) rid in
  let left = e.pending.(pi) - 1 in
  e.pending.(pi) <- left;
  if left = 0 then e.parents.(pi) <- e.root;
  en

(* The searches run on the calling domain; [?domains] accepts only 1
   (see the mli). *)
let check_domains d =
  if d <> 1 then invalid_arg (Printf.sprintf "Astar: ~domains must be 1, got %d" d)

(* The search loop shared by both enumerators. Each step either drains
   one [sup] key (when the baseline's next pop is a suppressed child) or
   pops one frontier item, after the same budget check. [on_item]
   handles an entry and returns the outcome that ends the search, if
   any. *)
let rec run e ~on_item =
  let n = Pqueue.length e.frontier in
  if n > e.peak_frontier then e.peak_frontier <- n;
  if baseline_pops_suppressed e then
    if over_budget e then Budget_exceeded (e.stop, stats e)
    else begin
      let code = Pqueue.top_seq e.sup land code_mask and fp = Pqueue.top_value e.sup in
      Pqueue.drop e.sup;
      e.suppressed <- e.suppressed + 1;
      (* a [replay_code] drain does what the baseline pop observably did:
         count the attempt and mark the template seen the first time —
         validating it was a structural no-op *)
      if code = replay_code && not (Inttbl.mem e.seen_fp fp) then begin
        Inttbl.replace e.seen_fp fp ghostable;
        e.attempts <- e.attempts + 1
      end;
      run e ~on_item
    end
  else if over_budget e then Budget_exceeded (e.stop, stats e)
  else if Pqueue.is_empty e.frontier then Exhausted (stats e)
  else begin
    let code = Pqueue.top_seq e.frontier land code_mask and pi = Pqueue.top_value e.frontier in
    Pqueue.drop e.frontier;
    e.expansions <- e.expansions + 1;
    (* ghosts are only pushed for complete children, whose pop
       validates a duplicate (a no-op) and expands nothing *)
    if code = ghost_code then run e ~on_item
    else
      let en = if code = root_code then e.root else take_child e pi code in
      match on_item en with Some outcome -> outcome | None -> run e ~on_item
  end

let search_topdown ~pcfg ~penalty_ctx ?(max_depth = 6) ?dedup:(_ = Fingerprint) ?prune
    ?prune_mode:(_ = Prune_admission) ?(domains = 1) ~budget ~validate () =
  check_domains domains;
  let g = Pcfg.cfg pcfg in
  let fps = Node.fingerprints g in
  (* the depth prune reads the annotation's incrementally-carried depth,
     so depth-dead pops never decode (or walk) their tree *)
  if not (Node.depth_static fps) then
    invalid_arg "Astar: grammar is not depth-static";
  (* Every suppressed child replays: it is complete, and a complete
     child is never deeper than its parent, which passed the depth check
     below before it was expanded. Completing a tree applies a rule
     without nonterminals, and no such rule branches (branching needs
     two depth-bearing rhs items; the generated grammars give each
     tensor/const terminal a rule of its own), so any leaf it adds sits
     at the depth of the expression open it replaces, which the parent's
     depth already counted. So the top-down search never draws
     [tick_code]; only the bottom-up guard can refuse a replay. *)
  let replays (_ : Node.annotated) = true in
  let e = make_engine ~pcfg ~fps ~penalty_ctx ~budget ~validate ~prune ~replays in
  run e ~on_item:(fun en ->
      if en.ann.Node.depth > max_depth then None
      else if en.ann.Node.metrics.complete then
        Option.map
          (fun sol -> Solved (sol, stats e))
          (try_validate e g ~fp:en.ann.Node.fp ~queued:true en.deriv)
      else begin
        push_expansions e en;
        None
      end)

let search_bottomup ~pcfg ~penalty_ctx ~dim_list ?dedup:(_ = Fingerprint) ?prune
    ?prune_mode:(_ = Prune_admission) ?(domains = 1) ~budget ~validate () =
  check_domains domains;
  let g = Pcfg.cfg pcfg in
  let fps = Node.fingerprints g in
  let n_predicted = List.length dim_list in
  (* the baseline pop of a complete tree validates only when it carries
     exactly the predicted tensor count, and expands nothing *)
  let replays (ann : Node.annotated) = ann.metrics.n_tensors = n_predicted in
  let e = make_engine ~pcfg ~fps ~penalty_ctx ~budget ~validate ~prune ~replays in
  run e ~on_item:(fun en ->
      let solved =
        if en.ann.Node.metrics.n_tensors = n_predicted then
          match Node.close_tails fps en.ann.Node.opens en.deriv with
          (* closing ε tails adds empty rule contributions, so the
             completed derivation's fingerprint equals the popped entry's *)
          | Some complete ->
              try_validate e g ~fp:en.ann.Node.fp ~queued:(en.ann.Node.opens = []) complete
          | None -> None
        else None
      in
      match solved with
      | Some sol -> Some (Solved (sol, stats e))
      | None ->
          push_expansions e en;
          None)
