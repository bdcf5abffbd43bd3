type category = Artificial | Blas | Darknet | Dsp | Mathfu | Simpl_array | Llama

let category_to_string = function
  | Artificial -> "artificial"
  | Blas -> "blas"
  | Darknet -> "darknet"
  | Dsp -> "dsp"
  | Mathfu -> "mathfu"
  | Simpl_array -> "simpl_array"
  | Llama -> "llama"

type t = {
  name : string;
  category : category;
  c_source : string;
  signature : Stagg_minic.Signature.t;
  ground_truth : string;
  llm_quality : Stagg_oracle.Llm_client.quality;
}

(* The cache is shared across the domains of a parallel suite run
   (Stagg_util.Pool), so every access holds the lock. *)
let func_cache : (string, Stagg_minic.Ast.func) Hashtbl.t = Hashtbl.create 128
let func_cache_lock = Mutex.create ()

let func (b : t) =
  Mutex.protect func_cache_lock (fun () ->
      match Hashtbl.find_opt func_cache b.name with
      | Some f -> f
      | None -> (
          match Stagg_minic.Parser.parse_function b.c_source with
          | Ok f ->
              Hashtbl.add func_cache b.name f;
              f
          | Error msg -> failwith (Printf.sprintf "benchmark %s: C parse error: %s" b.name msg)))

let truth (b : t) =
  if String.equal b.ground_truth "" then None
  else
    match Stagg_taco.Parser.parse_program b.ground_truth with
    | Ok p -> Some p
    | Error msg -> failwith (Printf.sprintf "benchmark %s: truth parse error: %s" b.name msg)

let is_real_world (b : t) = b.category <> Artificial

let emit_c (b : t) p =
  let module Sig = Stagg_minic.Signature in
  let module C = Stagg_taco.Codegen_c in
  let params =
    List.filter_map
      (fun (tname, spec) ->
        match spec with
        | Sig.Arr dims when tname <> b.signature.out -> Some { C.tname; dims }
        | Sig.Scalar_data -> Some { C.tname; dims = [] }
        | _ -> None)
      b.signature.args
  in
  let out_dims = match Sig.out_spec b.signature with Sig.Arr dims -> dims | _ -> [] in
  C.emit_program ~name:b.name ~params ~out:{ C.tname = b.signature.out; dims = out_dims } p

let mk ~name ~category ~quality ~args ~out ~truth c_source =
  {
    name;
    category;
    c_source;
    signature = { Stagg_minic.Signature.args; out };
    ground_truth = truth;
    llm_quality = quality;
  }

let size n = (n, Stagg_minic.Signature.Size n)
let scalar n = (n, Stagg_minic.Signature.Scalar_data)
let arr n dims = (n, Stagg_minic.Signature.Arr dims)
let cell n = (n, Stagg_minic.Signature.Arr [])
