(** Lift-as-a-service: the [stagg serve] request loop.

    The server accepts line-delimited JSON requests, runs each through
    the standard lifting pipeline (trace oracle — no LLM in the loop)
    and answers with line-delimited JSON responses. Request fields:

    - ["c"] (required) — the mini-C kernel source;
    - ["sig"] (required) — the tensor signature in {!Stagg_minic.Sigspec}
      syntax;
    - ["id"] — the query name. Defaults to the function's own name.
      The name seeds example generation exactly as the direct pipeline
      does, so a request named like a benchmark lifts byte-identically
      to [Pipeline.run];
    - ["method"] — ["trace"] (default) or ["trace+llm"] (the latter
      degrades to trace-only: a server has no LLM transcript);
    - ["timeout_s"], ["max_attempts"], ["max_expansions"] — per-request
      budget overrides (each capped at the method default);
    - ["op"] — ["lift"] (default), ["stats"] (telemetry-only response),
      or ["shutdown"] (acknowledge and stop the serving loop).

    Results are memoized in a {!Cache}: single-flight per exact request
    identity, donor-remap across alpha/constant-variant kernels (the
    remapped candidate is re-validated on the requester's own examples,
    and BMC-verified, before it is served), LRU eviction at
    [cache_max]. The response's ["cache"] field says which path
    answered: ["miss"] (searched), ["hit"], ["join"] (waited out a
    concurrent identical search), or ["remap"].

    Input limits. A request line longer than {!max_line_bytes} gets one
    ["bad request: line longer than N bytes"] error before any parser
    reads it. The serving loop keeps at most [max_line_bytes + 1] bytes
    of a line and reads past the rest in fixed-size chunks without
    keeping them, so an oversized line costs bounded memory whatever its
    length, and the line after it is served normally. Both parsers on
    the request path cap nesting depth and stop at the cap, so a hostile
    line costs parse time bounded by the cap, not by its nesting. A request line nested deeper than
    {!Json.max_depth} (64) arrays and objects gets one
    ["bad request: nesting deeper than 64 at offset N"] error, N the
    offset of the bracket past the cap; a kernel nested deeper than
    {!Stagg_minic.Parser.max_depth} (256) levels gets one
    ["C parse error: nesting deeper than 256"] error.
    Interpreter fuel and BMC term size are not yet bounded per request.

    Per-response telemetry is a snapshot of the result cache's
    counters. *)

type config = {
  jobs : int;  (** concurrent request processors; 1 = caller's domain only *)
  cache_max : int;  (** ready-entry capacity of the result cache *)
  verify : bool;
      (** must be [true]: every searched and remapped result is
          BMC-verified before it is served. Kept only because the lifting
          benchmark builds the record. *)
}

type t

(** Fresh server state (cache, sequence counter). [config] defaults to
    one job, a 1024-entry cache and verification on. Raises
    [Invalid_argument] when [config.verify] is [false], or [jobs] or
    [cache_max] is below 1 — the values [stagg serve] refuses too. *)
val create : ?config:config -> unit -> t

(** The longest request line served: 65 536 bytes. The longest line the
    serve smoke sends is 172 bytes, and the longest the serve-mix
    benchmark sends is 690 bytes. A flat [a[i] + 1 + … + 1] kernel
    filling the cap (16 351 terms) is answered ["budget exceeded"] in
    about a second; the chain's cost grows with its length. *)
val max_line_bytes : int

val cache_stats : t -> Cache.stats

(** [process_line t ~seq line] — handle one request line, return the
    response line (no trailing newline). Never raises: malformed input
    and internal errors become ["status":"error"] responses. *)
val process_line : t -> seq:int -> string -> string

(** [run_lines t lines] — process a batch, [jobs]-wide, responses in
    request order. The in-process entry point for tests and the load
    bench. *)
val run_lines : t -> string list -> string list

(** [serve_channel t ~ic ~oc] — the streaming loop behind {!run_stdio}
    and {!run_socket}: read request lines from [ic] and write responses
    to [oc] until EOF or a shutdown request, which it reports as [true].
    Responses are emitted in request order; at most [jobs] requests are
    in flight. *)
val serve_channel : t -> ic:in_channel -> oc:out_channel -> bool

(** Serve stdin → stdout until EOF or a shutdown request. Responses are
    emitted in request order; at most [jobs] requests are in flight. A
    shutdown is answered after every earlier request, and no line after
    it is read. *)
val run_stdio : t -> unit

(** Serve a Unix-domain socket (serial accept; [jobs]-wide within a
    connection) until a shutdown request. Replaces any stale socket
    file at [path]. *)
val run_socket : t -> path:string -> unit
