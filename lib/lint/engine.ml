(* The domain-safety analysis: loads the .cmt files dune emits for every
   library, inventories module-scope mutable state, computes which code
   runs on more than one domain (arguments to [Domain.spawn],
   [Pool.map], [Domain.DLS.new_key] initializers — plus
   everything those closures call, followed transitively across the
   loaded modules), and checks the five rules of {!Report.rule}.

   Precision model (documented in DESIGN.md §4.11): the escape
   computation is a call-graph closure over *named* functions whose
   bodies are in the loaded .cmt set — a closure stored in a data
   structure and invoked later is not tracked, and mediation is
   recognized syntactically ([Atomic.*] values, [Mutex.protect]
   regions, [Domain.DLS] access). That is exactly the shape of this
   codebase's concurrency (closures cross domains only at the few
   spawn/pool/DLS sites), so the under-approximation is acceptable; the
   TSan CI leg is the dynamic backstop for what the walk cannot see. *)

open Typedtree

(* ---- path normalization ----

   Dune-wrapped modules are mangled ("Stagg_util__Pool"); strip the
   wrapper so rules and the allowlist speak in source-level names
   ("Pool"). Returns (lib_prefix, normalized). *)
let norm_modname m =
  match String.index_opt m '_' with
  | None -> ("", m)
  | Some _ -> (
      let rec find_sep i =
        if i + 1 >= String.length m then None
        else if m.[i] = '_' && m.[i + 1] = '_' then Some i
        else find_sep (i + 1)
      in
      (* split on the LAST "__" (nested wrapping is not used here) *)
      let rec last_sep acc i =
        match find_sep i with None -> acc | Some j -> last_sep (Some j) (j + 2)
      in
      match last_sep None 0 with
      | None -> ("", m)
      | Some j ->
          let suffix = String.sub m (j + 2) (String.length m - j - 2) in
          if suffix = "" then ("", m) else (String.sub m 0 j, suffix))

let norm_component c = snd (norm_modname c)

let path_comps p = List.map norm_component (String.split_on_char '.' (Path.name p))

(* does [comps] end with [pat]? *)
let suffix_eq comps pat =
  let lc = List.length comps and lp = List.length pat in
  lc >= lp
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  drop (lc - lp) comps = pat

let suffix_any pats comps = List.exists (suffix_eq comps) pats

(* ---- rule vocabularies ---- *)

(* Call sites whose function arguments run on other domains, at two
   sharing levels. [Domain.spawn] and DLS initializers share every
   record reachable from the closure with the spawning domain, so
   mutable-field and array traffic is checked. [Pool.map] tasks are
   share-nothing by contract (pool.mli: "f must not touch mutable state
   shared with other tasks") and each task owns its own data — only
   module-scope state is shared between tasks, so only the inventory
   rule applies there. *)
let shared_crossing_fns = [ [ "Domain"; "spawn" ]; [ "DLS"; "new_key" ] ]
let task_crossing_fns = [ [ "Pool"; "map" ] ]

let guard_fns = [ [ "Mutex"; "protect" ] ]
let newkey_fns = [ [ "DLS"; "new_key" ] ]

(* the claim/done/taken-shaped operations: read-modify-write atomics *)
let atomic_protocol_ops =
  [ [ "Atomic"; "compare_and_set" ]; [ "Atomic"; "exchange" ]; [ "Atomic"; "fetch_and_add" ] ]

let nondet_fns =
  [
    [ "Random"; "self_init" ];
    [ "Random"; "State"; "make_self_init" ];
    [ "Unix"; "gettimeofday" ];
    [ "Unix"; "time" ];
    [ "Unix"; "localtime" ];
    [ "Unix"; "gmtime" ];
    [ "Sys"; "time" ];
    (* the library's one clock, and the monotonic source behind it *)
    [ "Clock"; "now" ];
    [ "Monotonic_clock"; "now" ];
  ]

(* operations that must not run while a lock is held: potentially
   unbounded (pool fan-out, joins, IO, syscalls) or lock-ordering
   hazards (acquiring another mutex) *)
let blocking_fns =
  [
    [ "Pool"; "map" ];
    [ "Domain"; "join" ];
    [ "Domain"; "spawn" ];
    [ "Unix"; "sleep" ];
    [ "Unix"; "sleepf" ];
    [ "Unix"; "gettimeofday" ];
    [ "Mutex"; "lock" ];
    [ "Mutex"; "protect" ];
    [ "Printf"; "printf" ];
    [ "Printf"; "eprintf" ];
    [ "Printf"; "fprintf" ];
    [ "Format"; "printf" ];
    [ "Format"; "eprintf" ];
    (* pervasives are matched fully qualified ("Stdlib.flush"): a bare
       single-component pattern would also match any local binding that
       happens to share the name *)
    [ "Stdlib"; "print_string" ];
    [ "Stdlib"; "print_endline" ];
    [ "Stdlib"; "print_newline" ];
    [ "Stdlib"; "print_char" ];
    [ "Stdlib"; "print_int" ];
    [ "Stdlib"; "print_float" ];
    [ "Stdlib"; "prerr_string" ];
    [ "Stdlib"; "prerr_endline" ];
    [ "Stdlib"; "read_line" ];
    [ "Stdlib"; "input_line" ];
    [ "Stdlib"; "output_string" ];
    [ "Stdlib"; "output_char" ];
    [ "Stdlib"; "output_bytes" ];
    [ "Stdlib"; "flush" ];
  ]

let blocking_modules = [ "In_channel"; "Out_channel" ]

(* shared-array / shared-bytes writes inside crossing code *)
let write_fns =
  [
    [ "Array"; "set" ];
    [ "Array"; "unsafe_set" ];
    [ "Array"; "fill" ];
    [ "Array"; "blit" ];
    [ "Bytes"; "set" ];
    [ "Bytes"; "unsafe_set" ];
    [ "Bytes"; "fill" ];
    [ "Bytes"; "blit" ];
  ]

(* type constructors that make a module-scope binding "mutable state" *)
let mutable_tycons =
  [
    [ "ref" ];
    [ "array" ];
    [ "bytes" ];
    [ "Hashtbl"; "t" ];
    [ "Buffer"; "t" ];
    [ "Queue"; "t" ];
    [ "Stack"; "t" ];
    [ "Dynarray"; "t" ];
  ]

(* safe-by-mediation types: never inventoried *)
let safe_tycons =
  [
    [ "Atomic"; "t" ];
    [ "Mutex"; "t" ];
    [ "Condition"; "t" ];
    [ "Semaphore"; "Counting"; "t" ];
    [ "Semaphore"; "Binary"; "t" ];
    [ "DLS"; "key" ];
  ]

let tycon_comps ty =
  match Types.get_desc ty with Types.Tconstr (p, _, _) -> Some (path_comps p) | _ -> None

let classify_type ty =
  match tycon_comps ty with
  | None -> `Other
  | Some c ->
      if suffix_any safe_tycons c then `Safe
      else if suffix_any mutable_tycons c then `Mutable (String.concat "." c)
      else `Other

(* ---- per-module data ---- *)

type modinfo = {
  norm : string;
  lib : string;
  src : string;
  str : structure;
  mutable inventory : (Ident.t * string * string) list;  (* id, name, type *)
  mutable bodies : (Ident.t * string * expression) list;
}

type tables = {
  mods : modinfo list;
  (* cross-module lookups keyed "Mod.name" *)
  g_inventory : (string, string) Hashtbl.t;  (* -> type *)
  g_bodies : (string, modinfo * string * expression) Hashtbl.t;
  newkey_ok : (string * int * int, unit) Hashtbl.t;  (* toplevel new_key sites *)
}

let loc_key (l : Location.t) =
  (l.loc_start.pos_fname, l.loc_start.pos_lnum, l.loc_start.pos_cnum)

let ident_comps (e : expression) =
  match e.exp_desc with Texp_ident (p, _, _) -> Some (path_comps p) | _ -> None

(* ---- phase A: collect inventories, toplevel bodies, DLS key sites ---- *)

let rec collect_struct tbl mi prefix (str : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match Compat.pat_var vb.vb_pat with
              | None -> ()
              | Some (id, name) ->
                  let qname = prefix ^ name in
                  mi.bodies <- (id, qname, vb.vb_expr) :: mi.bodies;
                  Hashtbl.add tbl.g_bodies (mi.norm ^ "." ^ qname) (mi, qname, vb.vb_expr);
                  (match classify_type vb.vb_expr.exp_type with
                  | `Mutable ty ->
                      mi.inventory <- (id, qname, ty) :: mi.inventory;
                      Hashtbl.add tbl.g_inventory (mi.norm ^ "." ^ qname) ty
                  | `Safe | `Other -> ());
                  (match vb.vb_expr.exp_desc with
                  | Texp_apply (f, _) -> (
                      match ident_comps f with
                      | Some c when suffix_any newkey_fns c ->
                          Hashtbl.replace tbl.newkey_ok (loc_key f.exp_loc) ()
                      | _ -> ())
                  | _ -> ()))
            vbs
      | Tstr_module mb -> collect_module tbl mi prefix mb
      | Tstr_recmodule mbs -> List.iter (collect_module tbl mi prefix) mbs
      | _ -> ())
    str.str_items

and collect_module tbl mi prefix mb =
  let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
  collect_modexpr tbl mi (prefix ^ name ^ ".") mb.mb_expr

and collect_modexpr tbl mi prefix me =
  match me.mod_desc with
  | Tmod_structure s -> collect_struct tbl mi prefix s
  | Tmod_constraint (me', _, _, _) -> collect_modexpr tbl mi prefix me'
  | _ -> ()

(* ---- phase B: the rule walk ---- *)

type crossing = No_cross | Task_cross | Shared_cross

type st = {
  mi : modinfo;
  ctx : string;
  crossing : crossing;  (* lexically / transitively inside domain-crossing code *)
  guarded : bool;  (* inside a Mutex.protect region *)
  under_mutex : bool;
  locals : (Ident.t * expression) list;  (* let-bound function bodies in scope *)
}

type acc = {
  tbl : tables;
  allow : Report.t;
  mutable findings : Report.finding list;
  dedup : (string, unit) Hashtbl.t;
  visited : (string * int * int * bool * bool, unit) Hashtbl.t;
}

let emit acc st rule (loc : Location.t) message =
  let f : Report.finding =
    {
      rule;
      file = (if loc.loc_start.pos_fname <> "" then loc.loc_start.pos_fname else st.mi.src);
      line = loc.loc_start.pos_lnum;
      modname = st.mi.norm;
      context = st.ctx;
      message;
    }
  in
  let key =
    Printf.sprintf "%s|%s|%d|%s" (Report.rule_id rule) f.file f.line f.message
  in
  if not (Hashtbl.mem acc.dedup key) then begin
    Hashtbl.replace acc.dedup key ();
    acc.findings <- f :: acc.findings
  end

(* resolve a path to a known function body: local lets, same-module
   toplevels (by ident), then cross-module by "Mod.name" (preferring the
   same library when wrapped module names collide across libraries).
   Only lambda bodies are followed — a reference to a let-bound *value*
   (say a timestamp computed before a [Mutex.protect] region and read
   inside it) must not re-walk the defining expression in the reference
   site's lock/crossing context. *)
let is_lambda (e : expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

let resolve_body st tbl (p : Path.t) =
  let candidate =
    match p with
    | Path.Pident id -> (
        match List.find_opt (fun (i, _) -> Ident.same i id) st.locals with
        | Some (_, e) -> Some (st.mi, st.ctx, e)
        | None -> (
            match List.find_opt (fun (i, _, _) -> Ident.same i id) st.mi.bodies with
            | Some (_, n, e) -> Some (st.mi, n, e)
            | None -> None))
    | _ -> (
        match path_comps p with
        | [] | [ _ ] -> None
        | comps -> (
            let n = List.length comps in
            let key =
              String.concat "." [ List.nth comps (n - 2); List.nth comps (n - 1) ]
            in
            match Hashtbl.find_all tbl.g_bodies key with
            | [] -> None
            | [ (mi, name, e) ] -> Some (mi, name, e)
            | many -> (
                match List.filter (fun (mi, _, _) -> mi.lib = st.mi.lib) many with
                | [ (mi, name, e) ] -> Some (mi, name, e)
                | _ -> None)))
  in
  match candidate with Some (_, _, e) when not (is_lambda e) -> None | c -> c

let is_inventory st tbl (p : Path.t) =
  match p with
  | Path.Pident id -> (
      match List.find_opt (fun (i, _, _) -> Ident.same i id) st.mi.inventory with
      | Some (_, n, ty) -> Some (st.mi.norm ^ "." ^ n, ty)
      | None -> None)
  | _ -> (
      match path_comps p with
      | [] | [ _ ] -> None
      | comps -> (
          let n = List.length comps in
          let key =
            String.concat "." [ List.nth comps (n - 2); List.nth comps (n - 1) ]
          in
          match Hashtbl.find_opt tbl.g_inventory key with
          | Some ty -> Some (key, ty)
          | None -> None))

(* Array/bytes writes are only flagged when the written value is
   plausibly shared: a module-scope inventory binding, a field read, or
   a computed expression. A plain local/parameter ident is the
   overwhelmingly-common safe case (freshly allocated scratch, or the
   pool's by-construction-disjoint result slots). *)
let rec shared_write_target acc st arges =
  match arges with
  | [] -> false
  | target :: _ -> (
      match target.exp_desc with
      | Texp_ident (p, _, _) -> is_inventory st acc.tbl p <> None
      | _ -> true)

and walk acc st (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> walk_ident acc st e p
  | Texp_apply (f, args) ->
      let arges = List.filter_map snd args in
      let comps = ident_comps f in
      (match comps with
      | Some c
        when suffix_any write_fns c && st.crossing = Shared_cross && not st.guarded
             && shared_write_target acc st arges ->
          emit acc st Report.Shared_mutable e.exp_loc
            (Printf.sprintf "%s on shared data inside domain-crossing code"
               (String.concat "." c))
      | _ -> ());
      walk acc st f;
      (match comps with
      | Some c when suffix_any guard_fns c -> (
          match arges with
          | [ m; g ] ->
              walk acc st m;
              walk acc { st with guarded = true; under_mutex = true } g
          | _ -> List.iter (walk acc st) arges)
      | Some c when suffix_any shared_crossing_fns c ->
          List.iter (walk acc { st with crossing = Shared_cross }) arges
      | Some c when suffix_any task_crossing_fns c ->
          let cr = if st.crossing = Shared_cross then Shared_cross else Task_cross in
          List.iter (walk acc { st with crossing = cr }) arges
      | _ -> List.iter (walk acc st) arges)
  | Texp_field (e1, _, ld) ->
      if ld.Types.lbl_mut = Asttypes.Mutable && st.crossing = Shared_cross && not st.guarded
      then
        emit acc st Report.Shared_mutable e.exp_loc
          (Printf.sprintf "racy read of mutable field '%s' on domain-crossing code path"
             ld.Types.lbl_name);
      walk acc st e1
  | Texp_setfield (e1, _, ld, e2) ->
      if st.crossing = Shared_cross && not st.guarded then
        emit acc st Report.Shared_mutable e.exp_loc
          (Printf.sprintf "write to mutable field '%s' on domain-crossing code path"
             ld.Types.lbl_name);
      walk acc st e1;
      walk acc st e2
  | Texp_let (_, vbs, body) ->
      let locals =
        List.fold_left
          (fun ls vb ->
            match Compat.pat_var vb.vb_pat with
            | Some (id, _) -> (id, vb.vb_expr) :: ls
            | None -> ls)
          st.locals vbs
      in
      List.iter (fun vb -> walk acc st vb.vb_expr) vbs;
      walk acc { st with locals } body
  | _ ->
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _ e' -> walk acc st e');
          (* do not descend into module types / signatures *)
          module_type = (fun _ _ -> ());
        }
      in
      Tast_iterator.default_iterator.expr it e

and walk_ident acc st (e : expression) p =
  let comps = path_comps p in
  (* nondeterminism-source: anywhere *)
  if suffix_any nondet_fns comps then
    emit acc st Report.Nondet e.exp_loc
      (Printf.sprintf "%s is a nondeterminism source (breaks byte-identical outcomes)"
         (String.concat "." comps));
  (* blocking-under-mutex *)
  if
    st.under_mutex
    && (suffix_any blocking_fns comps
       || List.exists (fun c -> List.mem c blocking_modules) comps)
  then
    emit acc st Report.Blocking_under_mutex e.exp_loc
      (Printf.sprintf "%s called while a mutex is held" (String.concat "." comps));
  (* raw-atomic-outside-protocol-module *)
  if suffix_any atomic_protocol_ops comps && not (Report.is_protocol acc.allow st.mi.norm)
  then
    emit acc st Report.Raw_atomic e.exp_loc
      (Printf.sprintf "%s outside a declared protocol module" (String.concat "." comps));
  (* dls-key-not-toplevel *)
  if suffix_any newkey_fns comps && not (Hashtbl.mem acc.tbl.newkey_ok (loc_key e.exp_loc))
  then
    emit acc st Report.Dls_key e.exp_loc
      "Domain.DLS.new_key outside a toplevel binding (per-call keys leak per-domain slots)";
  if st.crossing <> No_cross then begin
    (* shared-mutable-unguarded: a reference to inventoried module-scope
       mutable state from domain-crossing code *)
    (if not st.guarded then
       match is_inventory st acc.tbl p with
       | Some (name, ty) ->
           emit acc st Report.Shared_mutable e.exp_loc
             (Printf.sprintf
                "module-scope mutable value %s (%s) referenced on domain-crossing code \
                 path without Atomic/Mutex/DLS mediation"
                name ty)
       | None -> ());
    (* transitive escape: follow the call graph into known bodies *)
    match resolve_body st acc.tbl p with
    | Some (mi, name, body) ->
        let k =
          let f, l, c = loc_key body.exp_loc in
          (f ^ "|" ^ name, l, c, st.guarded, st.under_mutex)
        in
        if not (Hashtbl.mem acc.visited k) then begin
          Hashtbl.replace acc.visited k ();
          walk acc
            { st with mi; ctx = name; locals = [] }
            body
        end
    | None -> ()
  end

(* ---- driving ---- *)

let rec lint_struct acc mi prefix (str : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let name =
                match Compat.pat_var vb.vb_pat with Some (_, n) -> prefix ^ n | None -> "_"
              in
              walk acc
                {
                  mi;
                  ctx = name;
                  crossing = No_cross;
                  guarded = false;
                  under_mutex = false;
                  locals = [];
                }
                vb.vb_expr)
            vbs
      | Tstr_eval (e, _) ->
          walk acc
            { mi; ctx = "_"; crossing = No_cross; guarded = false; under_mutex = false; locals = [] }
            e
      | Tstr_module mb -> lint_module acc mi prefix mb
      | Tstr_recmodule mbs -> List.iter (lint_module acc mi prefix) mbs
      | _ -> ())
    str.str_items

and lint_module acc mi prefix mb =
  let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
  lint_modexpr acc mi (prefix ^ name ^ ".") mb.mb_expr

and lint_modexpr acc mi prefix me =
  match me.mod_desc with
  | Tmod_structure s -> lint_struct acc mi prefix s
  | Tmod_constraint (me', _, _, _) -> lint_modexpr acc mi prefix me'
  | _ -> ()

let load_cmt path =
  match Cmt_format.read_cmt path with
  | { cmt_annots = Cmt_format.Implementation str; cmt_modname; cmt_sourcefile; _ } ->
      let lib, norm = norm_modname cmt_modname in
      Some
        {
          norm;
          lib;
          src = Option.value cmt_sourcefile ~default:(Filename.basename path);
          str;
          inventory = [];
          bodies = [];
        }
  | _ -> None
  | exception _ -> None

type stats = { modules : int; findings : int }

let analyze ~cmt_files ~(allow : Report.t) =
  let mods = List.filter_map load_cmt (List.sort compare cmt_files) in
  let tbl =
    {
      mods;
      g_inventory = Hashtbl.create 64;
      g_bodies = Hashtbl.create 1024;
      newkey_ok = Hashtbl.create 16;
    }
  in
  List.iter (fun mi -> collect_struct tbl mi "" mi.str) mods;
  let acc =
    { tbl; allow; findings = []; dedup = Hashtbl.create 64; visited = Hashtbl.create 256 }
  in
  List.iter (fun mi -> lint_struct acc mi "" mi.str) mods;
  let findings =
    List.sort
      (fun (a : Report.finding) b ->
        compare (a.file, a.line, Report.rule_id a.rule) (b.file, b.line, Report.rule_id b.rule))
      acc.findings
  in
  (Report.apply allow findings, { modules = List.length mods; findings = List.length findings })

(* recursive *.cmt discovery, deterministic order *)
let scan_dir root =
  let out = ref [] in
  let rec go dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort compare entries;
        Array.iter
          (fun name ->
            let p = Filename.concat dir name in
            if Sys.is_directory p then go p
            else if Filename.check_suffix name ".cmt" then out := p :: !out)
          entries
    | exception Sys_error _ -> ()
  in
  (if Sys.file_exists root && Sys.is_directory root then go root);
  List.rev !out
