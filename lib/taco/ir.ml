open Stagg_util

type bound = Dim_of of string * int | Out_dim of int

type exp =
  | Const of Rat.t
  | Temp of string
  | Load of string * string list
  | Neg of exp
  | Bin of Ast.op * exp * exp

type stmt =
  | Set_temp of string * exp
  | Accum_temp of string * exp
  | Store of string list * exp
  | For of string * bound * stmt list

type kernel = { out_indices : string list; body : stmt list }

module Exec (V : Stagg_util.Value.S) = struct
  exception Exec_error of string

  let run ~env ~out_shape kernel =
    let out = Tensor.create out_shape V.zero in
    let temps : (string, V.t) Hashtbl.t = Hashtbl.create 8 in
    (* one fixed-capacity multi-index buffer, reused by every Load/Store:
       the per-cell [Array.of_list] of the old interpreter was the main
       allocation on this path *)
    let ix_buf = Array.make Shape.max_rank 0 in
    let resolve_bound vars b =
      ignore vars;
      match b with
      | Out_dim k ->
          if k >= Array.length out_shape then
            raise (Exec_error (Printf.sprintf "output has no axis %d" k));
          out_shape.(k)
      | Dim_of (t, k) -> (
          match List.assoc_opt t env with
          | None -> raise (Exec_error (Printf.sprintf "unbound tensor %s" t))
          | Some tensor ->
              let s = Tensor.unsafe_shape tensor in
              if k >= Array.length s then
                raise (Exec_error (Printf.sprintf "tensor %s has no axis %d" t k));
              s.(k))
    in
    let lookup_var vars v =
      match List.assoc_opt v vars with
      | Some n -> n
      | None -> raise (Exec_error (Printf.sprintf "unbound loop variable %s" v))
    in
    (* fills [ix_buf] and returns the index rank; clean failure instead of
       scratch corruption when a kernel exceeds the fixed capacity *)
    let fill_ix vars idxs =
      let n = ref 0 in
      List.iter
        (fun v ->
          if !n >= Shape.max_rank then
            raise
              (Exec_error
                 (Printf.sprintf "access rank exceeds the fixed scratch capacity MAXRANK=%d"
                    Shape.max_rank));
          ix_buf.(!n) <- lookup_var vars v;
          incr n)
        idxs;
      !n
    in
    let rec eval vars = function
      | Const c -> V.of_rat c
      | Temp t -> (
          match Hashtbl.find_opt temps t with
          | Some v -> v
          | None -> raise (Exec_error (Printf.sprintf "uninitialized temporary %s" t)))
      | Load (t, idxs) -> (
          match List.assoc_opt t env with
          | None -> raise (Exec_error (Printf.sprintf "unbound tensor %s" t))
          | Some tensor ->
              let n = fill_ix vars idxs in
              Tensor.get_prefix tensor ix_buf n)
      | Neg e -> V.neg (eval vars e)
      | Bin (op, a, b) -> (
          let va = eval vars a and vb = eval vars b in
          match op with
          | Ast.Add -> V.add va vb
          | Ast.Sub -> V.sub va vb
          | Ast.Mul -> V.mul va vb
          | Ast.Div -> V.div va vb)
    in
    let rec exec vars = function
      | Set_temp (t, e) -> Hashtbl.replace temps t (eval vars e)
      | Accum_temp (t, e) ->
          let cur =
            match Hashtbl.find_opt temps t with
            | Some v -> v
            | None -> raise (Exec_error (Printf.sprintf "uninitialized temporary %s" t))
          in
          Hashtbl.replace temps t (V.add cur (eval vars e))
      | Store (idxs, e) ->
          (* evaluate before filling [ix_buf]: nested Loads reuse the same
             buffer and would clobber a pre-filled store index *)
          let v = eval vars e in
          let n = fill_ix vars idxs in
          Tensor.set_prefix out ix_buf n v
      | For (v, b, body) ->
          let n = resolve_bound vars b in
          for i = 0 to n - 1 do
            List.iter (exec ((v, i) :: vars)) body
          done
    in
    match List.iter (exec []) kernel.body with
    | () -> Ok out
    | exception Exec_error msg -> Error msg
    | exception Division_by_zero -> Error "division by zero"
    | exception Invalid_argument msg -> Error msg (* rank/bounds mismatch *)
end
