(* The traced run's span recorder. One span per call into a layer's
   public entry point, timed from outside the library: name, start,
   stop, parent span and the lift it belongs to. Spans stay in memory
   and are written out once, when the run ends. A recorder has a single
   writer (one client domain, or the replaying main domain). *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  lift : int;
  parent : int;  (** -1 for a root span *)
  tid : int;  (** timeline: a client domain, or the replay *)
  start : float;
  stop : float;
  label : string;  (** shown in the viewer, e.g. the kernel name *)
}

type t = { tid : int; mutable stack : int list; mutable spans : span list }

let create ~tid = { tid; stack = []; spans = [] }

(* Span ids are unique across recorders, so the spans of several
   timelines merge into one trace without renumbering. *)
let next_id = Atomic.make 0

let with_span t ?(label = "") ~lift name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = now () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; lift; parent; tid = t.tid; start; stop; label } :: t.spans)
    f

let dur s = s.stop -. s.start

(* Per span name: total duration, self time (duration minus the part its
   children cover) and span count. *)
type total = { busy : float; self : float; count : int }

let zero = { busy = 0.; self = 0.; count = 0 }

let totals spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      let t = Option.value (Hashtbl.find_opt by_name s.name) ~default:zero in
      Hashtbl.replace by_name s.name
        { busy = t.busy +. dur s; self = t.self +. self; count = t.count + 1 })
    spans;
  fun name -> Option.value (Hashtbl.find_opt by_name name) ~default:zero

let json_string s = Stagg_serve.Json.to_string (Stagg_serve.Json.String s)

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open directly. *)
let write_chrome file spans =
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) Float.infinity spans in
  let oc = open_out file in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\
         \"args\":{\"id\":%d,\"parent\":%d,\"lift\":%d,\"label\":%s}}"
        (json_string s.name)
        (json_string (List.hd (String.split_on_char '.' s.name)))
        ((s.start -. origin) *. 1e6)
        (dur s *. 1e6) s.tid s.id s.parent s.lift (json_string s.label))
    (List.sort (fun a b -> Float.compare a.start b.start) spans);
  output_string oc "\n]}\n";
  close_out oc
