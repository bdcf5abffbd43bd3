(* Trips nondeterminism-source: clock reads and self-seeded randomness
   break byte-identical outcomes. The library's own clock is flagged like
   the system calls it replaces, and so is the monotonic source behind
   it. *)

let stamp () = Unix.gettimeofday ()
let reseed () = Random.self_init ()
let tick () = Stagg_util.Clock.now ()
let raw_tick () = Monotonic_clock.now ()
