open Ast

let max_steps = 50_000_000

(* [run] compiles the function body once into OCaml closures and then runs
   them. Compilation resolves every variable name to a slot of a flat
   [value array] and every statement list to an array of closures, so the
   hot loop does no name lookups and no AST dispatch. *)
module Make (V : Stagg_util.Value.S) = struct
  type arg = Scalar of V.t | Array of V.t array

  (* A pointer carries the buffer it points into, so loads and stores need
     no lookup. [base] names the parameter the buffer was passed as. *)
  type buf = { base : string; cells : V.t array }
  type value = Num of V.t | Ptr of buf * int

  exception Exec_error of string
  exception Return_exc

  let errf fmt = Printf.ksprintf (fun msg -> raise (Exec_error msg)) fmt

  (* The function's variables share one flat scope, as in the source
     semantics: a slot per distinct name, holding [unbound] (physically)
     until first assigned. *)
  type env = { slots : value array; mutable steps : int }

  let unbound = Ptr ({ base = ""; cells = [||] }, 0)

  (* One tick per executed statement and per loop-condition test: a run
     never ticks more than an AST walk that ticks every node would. *)
  let tick env =
    env.steps <- env.steps + 1;
    if env.steps > max_steps then errf "iteration budget exceeded"

  let as_int v =
    match v with
    | Num n -> (
        match V.to_int n with Some i -> i | None -> errf "value used as index is not concrete")
    | Ptr _ -> errf "pointer used where an integer is required"

  let as_bool v =
    match v with
    | Num n -> (
        match V.compare_concrete n V.zero with
        | Some c -> c <> 0
        | None -> errf "symbolic branch condition")
    | Ptr _ -> true

  let load m off =
    if off < 0 || off >= Array.length m.cells then
      errf "out-of-bounds read: %s[%d] (size %d)" m.base off (Array.length m.cells)
    else m.cells.(off)

  let store m off v =
    match v with
    | Ptr _ -> errf "invalid store"
    | Num n ->
        if off < 0 || off >= Array.length m.cells then
          errf "out-of-bounds write: %s[%d] (size %d)" m.base off (Array.length m.cells)
        else m.cells.(off) <- n

  let vzero = Num V.zero
  let vone = Num V.one
  let of_bool b = if b then vone else vzero

  let num_binop op : V.t -> V.t -> V.t =
    let relation test a b =
      match V.compare_concrete a b with
      | None -> errf "symbolic comparison"
      | Some c -> if test c then V.one else V.zero
    in
    match op with
    | Add -> V.add
    | Sub -> V.sub
    | Mul -> V.mul
    | Div -> V.div
    | Mod -> (
        fun a b ->
          match (V.to_int a, V.to_int b) with
          | Some x, Some y when y <> 0 -> V.of_int (x mod y)
          | Some _, Some _ -> raise Division_by_zero
          | _ -> errf "'%%' requires concrete operands")
    | Lt -> relation (fun c -> c < 0)
    | Le -> relation (fun c -> c <= 0)
    | Gt -> relation (fun c -> c > 0)
    | Ge -> relation (fun c -> c >= 0)
    | Eq -> relation (fun c -> c = 0)
    | Ne -> relation (fun c -> c <> 0)
    | And | Or -> assert false (* short-circuit forms are compiled apart *)

  (* Compile-time scope: name -> slot. *)
  type scope = { index : (string, int) Hashtbl.t; mutable count : int }

  let slot sc name =
    match Hashtbl.find_opt sc.index name with
    | Some i -> i
    | None ->
        let i = sc.count in
        Hashtbl.add sc.index name i;
        sc.count <- i + 1;
        i

  let read_var sc name =
    let i = slot sc name in
    fun env ->
      let v = env.slots.(i) in
      if v == unbound then errf "unbound variable %s" name else v

  let rec cexpr sc (e : expr) : env -> value =
    match e with
    | Num c ->
        let v = Num (V.of_rat c) in
        fun _ -> v
    | Var v -> read_var sc v
    | Neg e -> (
        let ce = cexpr sc e in
        fun env ->
          match ce env with Num n -> Num (V.neg n) | Ptr _ -> errf "cannot negate a pointer")
    | Not e ->
        let ce = cexpr sc e in
        fun env -> of_bool (not (as_bool (ce env)))
    | Bin (And, a, b) ->
        let ca = cexpr sc a and cb = cexpr sc b in
        fun env -> if as_bool (ca env) then of_bool (as_bool (cb env)) else vzero
    | Bin (Or, a, b) ->
        let ca = cexpr sc a and cb = cexpr sc b in
        fun env -> if as_bool (ca env) then vone else of_bool (as_bool (cb env))
    | Bin (op, a, b) -> (
        let ca = cexpr sc a and cb = cexpr sc b in
        let f = num_binop op in
        fun env ->
          let va = ca env in
          let vb = cb env in
          match (va, vb, op) with
          | Num x, Num y, _ -> Num (f x y)
          | Ptr (m, off), Num _, Add -> Ptr (m, off + as_int vb)
          | Num _, Ptr (m, off), Add -> Ptr (m, off + as_int va)
          | Ptr (m, off), Num _, Sub -> Ptr (m, off - as_int vb)
          | _ -> errf "unsupported pointer arithmetic")
    | Deref e -> (
        let ce = cexpr sc e in
        fun env ->
          match ce env with
          | Ptr (m, off) -> Num (load m off)
          | Num _ -> errf "dereference of a non-pointer")
    | Index (a, ix) -> (
        let ca = cexpr sc a and ci = cexpr sc ix in
        fun env ->
          match ca env with
          | Ptr (m, off) -> Num (load m (off + as_int (ci env)))
          | Num _ -> errf "subscript of a non-pointer")
    | Addr_index (a, ix) -> (
        let ca = cexpr sc a and ci = cexpr sc ix in
        fun env ->
          match ca env with
          | Ptr (m, off) -> Ptr (m, off + as_int (ci env))
          | Num _ -> errf "'&' subscript of a non-pointer")
    | Post_incr v -> post_step sc v 1
    | Post_decr v -> post_step sc v (-1)
    | Ternary (c, t, e) ->
        let cc = cexpr sc c and ct = cexpr sc t and ce = cexpr sc e in
        fun env -> if as_bool (cc env) then ct env else ce env

  (* [v++] / [v--] as an expression: yields the old value. *)
  and post_step sc v step =
    let read = read_var sc v and i = slot sc v in
    fun env ->
      let old = read env in
      env.slots.(i) <- bump step old;
      old

  and bump step = function
    | Num n -> Num (if step > 0 then V.add n V.one else V.sub n V.one)
    | Ptr (m, off) -> Ptr (m, off + step)

  (* [update sc lv f] resolves [lv]'s location once, reads it, and stores
     [f current] back to the same location. [f] may evaluate further
     expressions (a compound assignment's right-hand side); they run after
     the location is resolved and read. *)
  let update sc lv (f : env -> value -> value) : env -> unit =
    match lv with
    | Lvar x ->
        let read = read_var sc x and i = slot sc x in
        fun env -> env.slots.(i) <- f env (read env)
    | Lderef e -> (
        let ce = cexpr sc e in
        fun env ->
          match ce env with
          | Ptr (m, off) -> store m off (f env (Num (load m off)))
          | Num _ -> errf "dereference of a non-pointer")
    | Lindex (a, ix) -> (
        let ca = cexpr sc a and ci = cexpr sc ix in
        fun env ->
          match ca env with
          | Ptr (m, off) ->
              let k = off + as_int (ci env) in
              store m k (f env (Num (load m k)))
          | Num _ -> errf "subscript of a non-pointer")

  (* Plain assignment: the right-hand side runs first, then the location. *)
  let assign sc lv e : env -> unit =
    let ce = cexpr sc e in
    match lv with
    | Lvar x ->
        let i = slot sc x in
        fun env -> env.slots.(i) <- ce env
    | Lderef p -> (
        let cp = cexpr sc p in
        fun env ->
          let v = ce env in
          match (cp env, v) with
          | Ptr (m, off), Num _ -> store m off v
          | _ -> errf "invalid store")
    | Lindex (a, ix) -> (
        let ca = cexpr sc a and ci = cexpr sc ix in
        fun env ->
          let v = ce env in
          match (ca env, v) with
          | Ptr (m, off), Num _ -> store m (off + as_int (ci env)) v
          | _ -> errf "invalid store")

  (* Blocks open no scope, so nested ones are spliced into their parent. *)
  let rec flatten stmts =
    List.concat_map (function Block b -> flatten b | s -> [ s ]) stmts

  let rec cstmt sc (s : stmt) : env -> unit =
    match s with
    | Decl (_, name, init) -> (
        let i = slot sc name in
        match init with
        | None -> fun env -> env.slots.(i) <- vzero
        | Some e ->
            let ce = cexpr sc e in
            fun env -> env.slots.(i) <- ce env)
    | Assign (lv, e) -> assign sc lv e
    | Op_assign (lv, op, e) ->
        let ce = cexpr sc e and f = num_binop op in
        update sc lv (fun env cur ->
            let rhs = ce env in
            match (cur, rhs) with
            | Num a, Num b -> Num (f a b)
            | Ptr (m, off), Num _ when op = Add -> Ptr (m, off + as_int rhs)
            | Ptr (m, off), Num _ when op = Sub -> Ptr (m, off - as_int rhs)
            | _ -> errf "invalid compound assignment")
    | Incr_stmt lv -> update sc lv (fun _ cur -> bump 1 cur)
    | Decr_stmt lv -> update sc lv (fun _ cur -> bump (-1) cur)
    | For (h, body) ->
        let init = cstmt_opt sc h.init and step = cstmt_opt sc h.step in
        let body = cblock sc body in
        let test =
          match h.cond with
          | Some c ->
              let cc = cexpr sc c in
              fun env ->
                tick env;
                as_bool (cc env)
          | None when Option.is_none h.step && Array.length body = 0 ->
              (* nothing else ticks in [for (...;;) {}]: tick the test so
                 the loop ends in the budget error instead of hanging *)
              fun env ->
                tick env;
                true
          | None -> fun _ -> true
        in
        fun env ->
          init env;
          while test env do
            run_block body env;
            step env
          done
    | If (c, then_, else_) ->
        let cc = cexpr sc c and t = cblock sc then_ and e = cblock sc else_ in
        fun env -> run_block (if as_bool (cc env) then t else e) env
    | Block b ->
        let b = cblock sc b in
        fun env -> run_block b env
    | Expr_stmt e ->
        let ce = cexpr sc e in
        fun env -> ignore (ce env)
    | Return _ -> fun _ -> raise Return_exc

  and cstmt_opt sc = function
    | None -> fun _ -> ()
    | Some s ->
        let c = cstmt sc s in
        fun env ->
          tick env;
          c env

  and cblock sc stmts = Array.of_list (List.map (cstmt sc) (flatten stmts))

  and run_block (b : (env -> unit) array) env =
    for k = 0 to Array.length b - 1 do
      tick env;
      b.(k) env
    done

  let run (f : func) ~args =
    if List.length args <> List.length f.params then
      Error
        (Printf.sprintf "arity mismatch: %s takes %d arguments, got %d" f.fname
           (List.length f.params) (List.length args))
    else begin
      let sc = { index = Hashtbl.create 16; count = 0 } in
      let params = List.map (fun p -> (p, slot sc p.pname)) f.params in
      let body = cblock sc f.body in
      let env = { slots = Array.make sc.count unbound; steps = 0 } in
      List.iter2
        (fun (p, i) a ->
          match (p.ptyp, a) with
          | Tint, Scalar v -> env.slots.(i) <- Num v
          | Tptr, Array cells -> env.slots.(i) <- Ptr ({ base = p.pname; cells }, 0)
          | Tint, Array _ -> raise (Exec_error (p.pname ^ ": array passed for scalar parameter"))
          | Tptr, Scalar _ -> raise (Exec_error (p.pname ^ ": scalar passed for pointer parameter")))
        params args;
      match run_block body env with
      | () -> Ok ()
      | exception Return_exc -> Ok ()
      | exception Exec_error msg -> Error msg
      | exception Division_by_zero -> Error "division by zero"
    end

  let run f ~args = try run f ~args with Exec_error msg -> Error msg
end
