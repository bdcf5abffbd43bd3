(* Work queue = an atomic cursor over the input array; result slots are
   indexed by input position, so output order is independent of which
   domain claims which task. Workers are joined before [map] returns —
   no domain outlives the call. *)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

type 'b slot = Empty | Done of 'b | Failed of exn * Printexc.raw_backtrace

(* [helpers] ≥ 1 domains are spawned (the caller works too) *)
let map_on ~helpers f input =
  let n = Array.length input in
  let slots = Array.make n Empty in
  let cursor = Atomic.make 0 in
  let worker () =
    let rec drain () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        (slots.(i) <-
          (match f input.(i) with
          | v -> Done v
          | exception e ->
              (* poison: park the cursor past the end so no domain
                 claims further tasks (each in-flight task still
                 finishes, and the map still re-raises below) *)
              Atomic.set cursor n;
              Failed (e, Printexc.get_raw_backtrace ())));
        drain ()
      end
    in
    drain ()
  in
  let workers = List.init helpers (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join workers;
  (* re-raise the lowest-index failure that actually ran; slots after
     the poison point may legitimately be [Empty] *)
  let failure = ref None in
  Array.iter
    (fun s ->
      match (s, !failure) with
      | Failed (e, bt), None -> failure := Some (e, bt)
      | _ -> ())
    slots;
  (match !failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Array.to_list
    (Array.map (function Done v -> v | Failed _ | Empty -> assert false) slots)

let map ?jobs f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs ->
      let input = Array.of_list xs in
      let jobs = match jobs with Some j -> j | None -> default_jobs () in
      let helpers = min (max 1 jobs) (Array.length input) - 1 in
      if helpers = 0 then List.map f xs else map_on ~helpers f input
