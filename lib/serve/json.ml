type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      (* %.12g never prints "nan"/"inf" in practice here (latencies and
         rates); keep a JSON-legal fallback anyway *)
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
      else Buffer.add_string buf "null"
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          render buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          render buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  render buf j;
  Buffer.contents buf

(* ---- parsing: recursive descent over the raw string ---- *)

exception Parse of string

let max_depth = 64

(* [depth] counts the arrays and objects open at [pos] *)
type state = { src : string; mutable pos : int; mutable depth : int }

let error st msg = raise (Parse (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> error st (Printf.sprintf "expected '%c'" c)

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else error st (Printf.sprintf "expected %s" word)

let utf8_of_code buf u =
  (* code point (from \uXXXX) to UTF-8 bytes *)
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 32 in
  let rec go () =
    if st.pos >= String.length st.src then error st "unterminated string"
    else begin
      let c = st.src.[st.pos] in
      st.pos <- st.pos + 1;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if st.pos >= String.length st.src then error st "unterminated escape";
          let e = st.src.[st.pos] in
          st.pos <- st.pos + 1;
          match e with
          | '"' | '\\' | '/' ->
              Buffer.add_char buf e;
              go ()
          | 'n' ->
              Buffer.add_char buf '\n';
              go ()
          | 't' ->
              Buffer.add_char buf '\t';
              go ()
          | 'r' ->
              Buffer.add_char buf '\r';
              go ()
          | 'b' ->
              Buffer.add_char buf '\b';
              go ()
          | 'f' ->
              Buffer.add_char buf '\012';
              go ()
          | 'u' ->
              if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
              let hex = String.sub st.src st.pos 4 in
              st.pos <- st.pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some u -> utf8_of_code buf u
              | None -> error st "bad \\u escape");
              go ()
          | _ -> error st "unknown escape")
      | c ->
          Buffer.add_char buf c;
          go ()
    end
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while st.pos < String.length st.src && is_num_char st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> error st (Printf.sprintf "bad number %S" s))

(* [open_nested st] consumes an opening bracket or brace, and fails past
   [max_depth]. Without the cap the recursion follows the input's
   nesting, and since each minor GC scans the whole stack, a line of
   millions of brackets costs time quadratic in its length. *)
let open_nested st =
  if st.depth >= max_depth then error st (Printf.sprintf "nesting deeper than %d" max_depth);
  st.depth <- st.depth + 1;
  st.pos <- st.pos + 1

let close_nested st =
  st.depth <- st.depth - 1;
  st.pos <- st.pos + 1

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some '[' ->
      open_nested st;
      skip_ws st;
      if peek st = Some ']' then begin
        close_nested st;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              items (v :: acc)
          | Some ']' ->
              close_nested st;
              List.rev (v :: acc)
          | _ -> error st "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '{' ->
      open_nested st;
      skip_ws st;
      if peek st = Some '}' then begin
        close_nested st;
        Obj []
      end
      else begin
        let field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              fields (kv :: acc)
          | Some '}' ->
              close_nested st;
              List.rev (kv :: acc)
          | _ -> error st "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some c -> (
      match c with
      | '0' .. '9' | '-' -> parse_number st
      | _ -> error st (Printf.sprintf "unexpected character '%c'" c))

let of_string s =
  let st = { src = s; pos = 0; depth = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos = String.length s then Ok v
      else Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
  | exception Parse msg -> Error msg

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_int = function Int n -> Some n | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None
