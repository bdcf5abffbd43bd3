type 'a t = { shape : int array; strides : int array; data : 'a array }

let compute_size shape = Array.fold_left (fun acc d -> acc * d) 1 shape

let compute_strides shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

let check_shape shape =
  Array.iter (fun d -> if d < 0 then invalid_arg "Tensor: negative dimension") shape

let create shape v =
  check_shape shape;
  { shape = Array.copy shape; strides = compute_strides shape; data = Array.make (compute_size shape) v }

let scalar v = create [||] v

let shape t = Array.copy t.shape
let rank t = Array.length t.shape
let size t = Array.length t.data

let offset t ix =
  if Array.length ix <> Array.length t.shape then
    invalid_arg
      (Printf.sprintf "Tensor: rank mismatch (index rank %d, tensor rank %d)" (Array.length ix)
         (Array.length t.shape));
  let off = ref 0 in
  for k = 0 to Array.length ix - 1 do
    if ix.(k) < 0 || ix.(k) >= t.shape.(k) then
      invalid_arg
        (Printf.sprintf "Tensor: index %d out of bounds for axis %d (size %d)" ix.(k) k t.shape.(k));
    off := !off + (ix.(k) * t.strides.(k))
  done;
  !off

let get t ix = t.data.(offset t ix)
let set t ix v = t.data.(offset t ix) <- v

(* Prefix variants: the multi-index is the first [n] entries of [ix], a
   preallocated fixed-capacity buffer (Shape.max_rank) reused across cells
   by the staged evaluators. Same checks and messages as [offset]. *)
let offset_prefix t ix n =
  if n <> Array.length t.shape then
    invalid_arg
      (Printf.sprintf "Tensor: rank mismatch (index rank %d, tensor rank %d)" n
         (Array.length t.shape));
  let off = ref 0 in
  for k = 0 to n - 1 do
    if ix.(k) < 0 || ix.(k) >= t.shape.(k) then
      invalid_arg
        (Printf.sprintf "Tensor: index %d out of bounds for axis %d (size %d)" ix.(k) k t.shape.(k));
    off := !off + (ix.(k) * t.strides.(k))
  done;
  !off

let get_prefix t ix n = t.data.(offset_prefix t ix n)
let set_prefix t ix n v = t.data.(offset_prefix t ix n) <- v
let get_flat t i = t.data.(i)
let to_flat_array t = Array.copy t.data

let of_flat_array shape data =
  check_shape shape;
  if compute_size shape <> Array.length data then
    invalid_arg "Tensor.of_flat_array: size mismatch";
  { shape = Array.copy shape; strides = compute_strides shape; data = Array.copy data }

let unsafe_data t = t.data
let unsafe_strides t = t.strides
let unsafe_shape t = t.shape

let copy t = { t with shape = Array.copy t.shape; data = Array.copy t.data }

let map f t = { shape = Array.copy t.shape; strides = Array.copy t.strides; data = Array.map f t.data }

let equal eq a b = a.shape = b.shape && Array.for_all2 (fun x y -> eq x y) a.data b.data

let fill t v = Array.fill t.data 0 (Array.length t.data) v

let init shape f =
  check_shape shape;
  let strides = compute_strides shape in
  let n = Array.length shape in
  let ix = Array.make n 0 in
  let data =
    Array.init (compute_size shape) (fun flat ->
        let rem = ref flat in
        for k = 0 to n - 1 do
          ix.(k) <- !rem / strides.(k);
          rem := !rem mod strides.(k)
        done;
        f ix)
  in
  { shape = Array.copy shape; strides; data }

let iteri f t =
  let n = Array.length t.shape in
  let ix = Array.make n 0 in
  for flat = 0 to Array.length t.data - 1 do
    let rem = ref flat in
    for k = 0 to n - 1 do
      ix.(k) <- !rem / t.strides.(k);
      rem := !rem mod t.strides.(k)
    done;
    f ix t.data.(flat)
  done

let pp pp_elt fmt t =
  let dims = t.shape |> Array.to_list |> List.map string_of_int |> String.concat "x" in
  Format.fprintf fmt "@[<hov 2>tensor<%s> [" (if dims = "" then "scalar" else dims);
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf fmt ";@ ";
      pp_elt fmt v)
    t.data;
  Format.fprintf fmt "]@]"
