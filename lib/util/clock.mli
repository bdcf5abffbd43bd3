(** The library's one clock: monotonic seconds ([CLOCK_MONOTONIC]).

    Every time read in the library goes through {!now}, so no measured
    interval can go negative or jump with a wall-clock adjustment. Times
    are telemetry: no solved/attempt/expansion count depends on them
    (the search timeout is a backstop behind exact count caps). The lint
    flags each call as a nondeterminism source, so every reading site
    carries a [lint.allow] justification. *)

(** Seconds since an arbitrary fixed origin; only differences mean
    anything. *)
val now : unit -> float
