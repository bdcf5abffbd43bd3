open Ast
open Stagg_util

(* Precedence levels: additive = 1, multiplicative = 2, atoms = 3. *)
let prec_of = function Add | Sub -> 1 | Mul | Div -> 2

let add_access buf name idxs =
  Buffer.add_string buf name;
  match idxs with
  | [] -> ()
  | first :: rest ->
      Buffer.add_char buf '(';
      Buffer.add_string buf first;
      List.iter
        (fun i ->
          Buffer.add_string buf ", ";
          Buffer.add_string buf i)
        rest;
      Buffer.add_char buf ')'

let rec go buf parent_prec right_side e =
  match e with
  | Access (t, idxs) -> add_access buf t idxs
  | Const c ->
      if Rat.sign c < 0 then begin
        (* negative literal: parenthesize so "a - -1" never prints *)
        Buffer.add_char buf '(';
        Buffer.add_string buf (Rat.to_string c);
        Buffer.add_char buf ')'
      end
      else Buffer.add_string buf (Rat.to_string c)
  | Neg inner ->
      Buffer.add_char buf '-';
      go buf 3 false inner
  | Bin (op, l, r) ->
      let p = prec_of op in
      (* Operators parse left-associatively, so a right operand of equal
         precedence must be parenthesized to round-trip the AST exactly. *)
      let needs = p < parent_prec || (p = parent_prec && right_side) in
      if needs then Buffer.add_char buf '(';
      go buf p false l;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (op_to_string op);
      Buffer.add_char buf ' ';
      go buf p true r;
      if needs then Buffer.add_char buf ')'

let expr_to_string e =
  let buf = Buffer.create 32 in
  go buf 0 false e;
  Buffer.contents buf

(* The whole statement goes through one buffer: this string is the §4.4
   canonical template key, built once per validated candidate. *)
let program_to_string (p : program) =
  let name, idxs = p.lhs in
  let buf = Buffer.create 48 in
  add_access buf name idxs;
  Buffer.add_string buf " = ";
  go buf 0 false p.rhs;
  Buffer.contents buf
