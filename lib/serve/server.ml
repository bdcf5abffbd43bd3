open Stagg_util
module Sig = Stagg_minic.Signature
module Method_ = Stagg.Method_
module Pipeline = Stagg.Pipeline
module Accept = Stagg.Accept
module Validator = Stagg_validate.Validator
module Subst = Stagg_template.Subst
module Pretty = Stagg_taco.Pretty

type config = { jobs : int; cache_max : int; verify : bool }

let default_config = { jobs = 1; cache_max = 1024; verify = true }

type t = {
  cfg : config;
  cache : Cache.t;
  seq_mu : Mutex.t;
  mutable next_seq : int;
}

let create ?(config = default_config) () =
  if not config.verify then
    invalid_arg "Server.create: verify = false (a server returns only BMC-verified results)";
  if config.jobs < 1 then invalid_arg "Server.create: jobs < 1";
  if config.cache_max < 1 then invalid_arg "Server.create: cache_max < 1";
  {
    cfg = config;
    cache = Cache.create ~max:config.cache_max;
    seq_mu = Mutex.create ();
    next_seq = 0;
  }

let cache_stats t = Cache.stats t.cache

let reserve_seqs t n =
  Mutex.protect t.seq_mu (fun () ->
      let base = t.next_seq in
      t.next_seq <- t.next_seq + n;
      base)

(* ---- request decoding ---- *)

type request = {
  id : string option;
  c_source : string;
  sigspec : string;
  method_ : Method_.t;
  mdig : string;  (** method + budget digest, part of the cache key *)
}

let ( let* ) = Result.bind

let field_str j name =
  match Json.member name j with
  | None -> Ok None
  | Some v -> (
      match Json.to_str v with
      | Some s -> Ok (Some s)
      | None -> Error (Printf.sprintf "field %S must be a string" name))

let required j name =
  let* v = field_str j name in
  match v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing required field %S" name)

let field_num j name conv =
  match Json.member name j with
  | None -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S must be a number" name))

let method_of_request j =
  let* name = field_str j "method" in
  let* base =
    match Option.value name ~default:"trace" with
    (* a server has no LLM transcript, so trace+llm degrades to the
       trace oracle alone rather than erroring *)
    | "trace" | "trace+llm" | "trace-llm" -> Ok Method_.td_trace
    | s -> Error (Printf.sprintf "unsupported method %S (a server offers: trace)" s)
  in
  let* timeout_s = field_num j "timeout_s" Json.to_float in
  let* max_attempts = field_num j "max_attempts" Json.to_int in
  let* max_expansions = field_num j "max_expansions" Json.to_int in
  let b = base.Method_.budget in
  let cap dflt = function
    | None -> dflt
    | Some v -> Stdlib.max 1 (Stdlib.min v dflt)
  in
  let budget =
    {
      Stagg_search.Astar.max_attempts = cap b.max_attempts max_attempts;
      max_expansions = cap b.max_expansions max_expansions;
      timeout_s =
        (match timeout_s with
        | None -> b.timeout_s
        | Some v -> Float.max 0.01 (Float.min v b.timeout_s));
    }
  in
  let m = { base with Method_.budget } in
  (* every knob that can move the outcome is part of the cache key *)
  let mdig =
    Printf.sprintf "%s;%d;%d;%d;%g" m.label m.seed budget.max_attempts budget.max_expansions
      budget.timeout_s
  in
  Ok (m, mdig)

let decode_request j =
  let* c_source = required j "c" in
  let* sigspec = required j "sig" in
  let* id = field_str j "id" in
  let* method_, mdig = method_of_request j in
  Ok { id; c_source; sigspec; method_; mdig }

(* ---- the cache key ----

   Everything that determines the lifted output byte for byte:
   canonical fingerprint, constant pool (fingerprints abstract
   constants; outputs do not), query name (it seeds the examples),
   parameter names (the output is rendered over them), method/budget
   digest. Variable-length fields are length-prefixed, so no crafted
   name can collide two distinct identities. *)

let exact_key ~fp ~pool ~qname ~params ~mdig =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "%016x" fp);
  List.iter
    (fun s -> Buffer.add_string buf (Printf.sprintf "|%d:%s" (String.length s) s))
    (pool @ [ qname; mdig ] @ params);
  Buffer.contents buf

(* ---- building outcomes ---- *)

let arg_position (signature : Sig.t) name =
  let rec go i = function
    | [] -> None
    | (n, _) :: rest -> if String.equal n name then Some i else go (i + 1) rest
  in
  go 0 signature.Sig.args

let const_index consts c =
  let rec go i = function
    | [] -> None
    | x :: rest -> if Rat.equal x c then Some i else go (i + 1) rest
  in
  go 0 consts

let outcome_of_result (signature : Sig.t) consts (r : Stagg.Result_.t) : Cache.outcome =
  let lifted =
    match r.solution with
    | None -> None
    | Some sol -> (
        let pos =
          List.map
            (fun (sym, name) -> Option.map (fun i -> (sym, i)) (arg_position signature name))
            sol.subst.Subst.tensor_binding
        in
        if List.exists Option.is_none pos then None
        else
          match sol.subst.Subst.const_binding with
          | Some c when const_index consts c = None -> None
          | cb ->
              Some
                {
                  Cache.taco = Pretty.program_to_string sol.concrete;
                  template = sol.template;
                  tensor_pos = List.map Option.get pos;
                  const_idx = Option.bind cb (const_index consts);
                })
  in
  {
    Cache.solved = r.solved && lifted <> None;
    lifted;
    attempts = r.attempts;
    expansions = r.expansions;
    instantiations = r.instantiations;
    failure = (if r.solved && lifted = None then Some "unrenderable solution" else r.failure);
  }

(* The donor-remap fast path: the donor solved a kernel with the same
   canonical fingerprint, so this kernel is the donor's up to naming and
   constants. Rebind the donor's substitution positionally (parameter
   positions survive renaming) and by constant-pool index, then
   re-validate the remapped candidate against THIS kernel's own examples
   — and BMC when the method verifies — exactly as a searched candidate
   would be. A remap that fails validation returns [None] and the
   request falls back to a full search; soundness never rests on the
   fingerprint. *)
let try_remap ~(m : Method_.t) ~qname ~func ~signature ~consts (dl : Cache.lifted) :
    Cache.outcome option =
  let args = signature.Sig.args in
  let name_at i = Option.map fst (List.nth_opt args i) in
  let bindings =
    List.map (fun (sym, pos) -> Option.map (fun n -> (sym, n)) (name_at pos)) dl.tensor_pos
  in
  if List.exists Option.is_none bindings then None
  else
    let tensor_binding = List.map Option.get bindings in
    let const_ok, const_binding =
      match dl.const_idx with
      | None -> (true, None)
      | Some i -> (
          match List.nth_opt consts i with
          | Some c -> (true, Some c)
          | None -> (false, None))
    in
    if not const_ok then None
    else
      let subst = { Subst.tensor_binding; const_binding } in
      let concrete = Subst.instantiate dl.template subst in
      match Accept.checker ~seed:m.Method_.seed ~qname ~func ~signature with
      | Error _ -> None
      | Ok checker ->
          let passes =
            Validator.check checker concrete && Accept.equivalent ~func ~signature concrete
          in
          if not passes then None
          else
            Some
              {
                Cache.solved = true;
                lifted = Some { dl with taco = Pretty.program_to_string concrete };
                attempts = 0;
                expansions = 0;
                instantiations = 1;
                failure = None;
              }

(* ---- responses ---- *)

let telemetry_json t =
  let cs = Cache.stats t.cache in
  Json.Obj
    [
      ("cache_hits", Json.Int cs.hits);
      ("cache_misses", Json.Int cs.misses);
      ("cache_joins", Json.Int cs.joins);
      ("cache_remaps", Json.Int cs.remaps);
      ("cache_evictions", Json.Int cs.evictions);
      ("cache_inflight", Json.Int cs.inflight);
      ("cache_entries", Json.Int cs.entries);
    ]

let error_response ~id ~seq msg =
  Json.to_string
    (Json.Obj
       [
         ("id", match id with Some s -> Json.String s | None -> Json.Null);
         ("seq", Json.Int seq);
         ("status", Json.String "error");
         ("error", Json.String msg);
       ])

let lift_response t ~id ~seq ~kernel ~fp ~cache_path ~time_s (o : Cache.outcome) =
  let status = if o.solved then "ok" else "unsolved" in
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.String id);
          ("seq", Json.Int seq);
          ("status", Json.String status);
          ("kernel", Json.String kernel);
          ("fingerprint", Json.String (Printf.sprintf "%016x" fp));
          ("cache", Json.String cache_path);
          ( "taco",
            match o.lifted with Some l -> Json.String l.Cache.taco | None -> Json.Null );
        ]
       @ (match o.failure with
         | Some f when not o.solved -> [ ("failure", Json.String f) ]
         | _ -> [])
       @ [
           ("attempts", Json.Int o.attempts);
           ("expansions", Json.Int o.expansions);
           ("instantiations", Json.Int o.instantiations);
           ("time_s", Json.Float time_s);
           ("telemetry", telemetry_json t);
         ]))

(* ---- one request ---- *)

let handle_lift t ~seq ~(req : request) ~raw_id =
  match Stagg_minic.Parser.parse_function req.c_source with
  | Error e -> error_response ~id:raw_id ~seq ("C parse error: " ^ e)
  | Ok func -> (
      match Stagg_minic.Sigspec.parse req.sigspec with
      | Error e -> error_response ~id:raw_id ~seq ("signature error: " ^ e)
      | Ok signature ->
          let m = req.method_ in
          let qname = Option.value req.id ~default:func.Stagg_minic.Ast.fname in
          let consts = Stagg_minic.Ast.constants func in
          let fp = Stagg_minic.Canon.fingerprint ~signature func in
          let key =
            exact_key ~fp
              ~pool:(List.map Rat.to_string consts)
              ~qname
              ~params:(List.map (fun (p : Stagg_minic.Ast.param) -> p.pname) func.params)
              ~mdig:req.mdig
          in
          let t0 = Clock.now () in
          let respond cache_path o =
            lift_response t ~id:qname ~seq ~kernel:func.Stagg_minic.Ast.fname ~fp ~cache_path
              ~time_s:(Clock.now () -. t0)
              o
          in
          match Cache.acquire t.cache ~key ~fp with
          | Cache.Hit o -> respond "hit" o
          | Cache.Joined o -> respond "join" o
          | Cache.Owner donor -> (
              try
                let outcome, path =
                  match
                    Option.bind donor (fun (d : Cache.outcome) ->
                        Option.bind d.lifted
                          (try_remap ~m ~qname ~func ~signature ~consts))
                  with
                  | Some o -> (o, "remap")
                  | None ->
                      let q =
                        {
                          Pipeline.qname;
                          func;
                          signature;
                          c_source = req.c_source;
                          client = Stagg_oracle.Replay.of_lines [];
                          oracle = m.Method_.oracle;
                        }
                      in
                      (outcome_of_result signature consts
                         (Pipeline.lift m q),
                        "miss")
                in
                Cache.fulfill t.cache ~key ~fp outcome;
                if String.equal path "remap" then Cache.note_remap t.cache;
                respond path outcome
              with e ->
                Cache.abort t.cache ~key;
                error_response ~id:raw_id ~seq
                  ("internal error: " ^ Printexc.to_string e)))

let stats_response t ~id ~seq =
  Json.to_string
    (Json.Obj
       [
         ("id", match id with Some s -> Json.String s | None -> Json.Null);
         ("seq", Json.Int seq);
         ("status", Json.String "stats");
         ("telemetry", telemetry_json t);
       ])

let op_of j = match field_str j "op" with Ok (Some s) -> s | _ -> "lift"

(* A request's cost grows with its length (a flat [a[i] + 1 + … + 1]
   chain parses, canonicalizes and analyzes term by term), so an
   oversized line is refused before any parser reads it. *)
let max_line_bytes = 65_536

let parse_request line =
  if String.length line > max_line_bytes then
    Error (Printf.sprintf "line longer than %d bytes" max_line_bytes)
  else Json.of_string line

let is_shutdown line =
  match parse_request line with Ok j -> op_of j = "shutdown" | Error _ -> false

let process t ~seq line : string * [ `Continue | `Shutdown ] =
  match parse_request line with
  | Error e -> (error_response ~id:None ~seq ("bad request: " ^ e), `Continue)
  | Ok j -> (
      let id = match field_str j "id" with Ok v -> v | Error _ -> None in
      match op_of j with
      | "shutdown" ->
          ( Json.to_string
              (Json.Obj
                 [
                   ("id", match id with Some s -> Json.String s | None -> Json.Null);
                   ("seq", Json.Int seq);
                   ("status", Json.String "bye");
                 ]),
            `Shutdown )
      | "stats" -> (stats_response t ~id ~seq, `Continue)
      | "lift" -> (
          match decode_request j with
          | Error e -> (error_response ~id ~seq ("bad request: " ^ e), `Continue)
          | Ok req -> (handle_lift t ~seq ~req ~raw_id:id, `Continue))
      | s -> (error_response ~id ~seq (Printf.sprintf "unknown op %S" s), `Continue))

let process_line t ~seq line = fst (process t ~seq line)

(* ---- frontends ---- *)

let run_lines t lines =
  let n = List.length lines in
  let base = reserve_seqs t n in
  let indexed = List.mapi (fun i l -> (base + i, l)) lines in
  let f (seq, l) = fst (process t ~seq l) in
  if t.cfg.jobs <= 1 then List.map f indexed else Pool.map ~jobs:t.cfg.jobs f indexed

(* [line_reader ic] returns a function that reads [ic] one line at a time
   (without its newline; [None] at end of input). It keeps at most
   [max_line_bytes + 1] bytes of a line and reads the rest of a longer
   line through the same fixed-size chunk without keeping it, so an
   oversized line costs bounded memory and still fails [parse_request]'s
   length check. *)
let line_reader ic =
  let chunk = Bytes.create 65_536 in
  let pos = ref 0 and len = ref 0 in
  let line = Buffer.create 1024 in
  let rec newline_at i = if i >= !len || Bytes.get chunk i = '\n' then i else newline_at (i + 1) in
  let rec go ~started =
    if !pos >= !len then begin
      pos := 0;
      len := In_channel.input ic chunk 0 (Bytes.length chunk)
    end;
    if !len = 0 then if started then Some (Buffer.contents line) else None
    else
      let stop = newline_at !pos in
      let room = max_line_bytes + 1 - Buffer.length line in
      Buffer.add_subbytes line chunk !pos (min (stop - !pos) room);
      if stop < !len then begin
        pos := stop + 1;
        Some (Buffer.contents line)
      end
      else begin
        pos := stop;
        go ~started:true
      end
  in
  fun () ->
    Buffer.clear line;
    go ~started:false

(* Streaming loop shared by stdio and socket: emit responses in request
   order with at most [jobs] requests in flight (a FIFO of running
   domains; joining the oldest both bounds concurrency and preserves
   order). A shutdown line is recognised as it is read: the requests
   before it are drained, its [bye] is emitted, and nothing more is
   read. Returns [true] when a shutdown request ended the stream. *)
let serve_channel t ~ic ~oc =
  let jobs = t.cfg.jobs in
  let pending : (unit -> string * [ `Continue | `Shutdown ]) Queue.t = Queue.create () in
  let stop = ref false in
  let emit (resp, ctl) =
    output_string oc resp;
    output_char oc '\n';
    flush oc;
    if ctl = `Shutdown then stop := true
  in
  let drain_one () = emit ((Queue.pop pending) ()) in
  let next_line = line_reader ic in
  (try
     while not !stop do
       match next_line () with
       | None -> raise Exit
       | Some line ->
           let seq = reserve_seqs t 1 in
           if jobs <= 1 || is_shutdown line then begin
             while not (Queue.is_empty pending) do
               drain_one ()
             done;
             emit (process t ~seq line)
           end
           else begin
             if Queue.length pending >= jobs then drain_one ();
             let d = Domain.spawn (fun () -> process t ~seq line) in
             Queue.push (fun () -> Domain.join d) pending
           end
     done
   with Exit -> ());
  while Queue.length pending > 0 do
    drain_one ()
  done;
  !stop

let run_stdio t = ignore (serve_channel t ~ic:stdin ~oc:stdout)

let run_socket t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let stop = ref false in
      (* serial accept: one connection at a time; [jobs] applies to the
         requests inside a connection *)
      while not !stop do
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (try stop := serve_channel t ~ic ~oc with Sys_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      done)
