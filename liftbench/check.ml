(* The benchmark's answer check, independent of the pipeline: a printed
   TACO answer is parsed again and run in the reference interpreter (not
   the validator's compiled evaluator) against the mini-C kernel's own
   outputs, on examples drawn from a seed the pipeline never uses. *)

open Stagg_util
module Sig = Stagg_minic.Signature
module Tensor = Stagg_taco.Tensor
module Examples = Stagg_validate.Examples
module Reference = Stagg_taco.Interp.Make (Value.Rat_value)

let agrees (signature : Sig.t) (ex : Examples.example) program =
  let env =
    List.map
      (fun (name, spec) ->
        let flat = List.assoc name ex.inputs in
        match spec with
        | Sig.Size _ | Sig.Scalar_data -> (name, Tensor.scalar flat.(0))
        | Sig.Arr _ -> (name, Tensor.of_flat_array (Sig.shape ~sizes:ex.sizes spec) flat))
      signature.args
  in
  let lhs_shape = Sig.shape ~sizes:ex.sizes (Sig.out_spec signature) in
  match Reference.run ~env ~lhs_shape program with
  | Error _ -> false
  | Ok out ->
      let got = Tensor.to_flat_array out in
      Array.length got = Array.length ex.output && Array.for_all2 Rat.equal got ex.output

(* Verdicts are memoized per (kernel, answer): every repetition returns
   the same answers, and re-checking them would only slow the run. *)
type t = { seed : int; verdicts : (string * string, (unit, string) result) Hashtbl.t }

let create ~seed = { seed = seed lxor 0x5eed_c4ec; verdicts = Hashtbl.create 256 }

let answer t (b : Stagg_benchsuite.Bench.t) taco =
  let key = (b.name, taco) in
  match Hashtbl.find_opt t.verdicts key with
  | Some v -> v
  | None ->
      let v =
        match Stagg_taco.Parser.parse_program taco with
        | Error e -> Error ("unparseable answer: " ^ e)
        | Ok program -> (
            let func = Stagg_benchsuite.Bench.func b and signature = b.signature in
            let prng = Prng.create ~seed:(t.seed lxor Hashtbl.hash b.name) in
            match Examples.generate ~func ~signature ~prng ~n:6 () with
            | Error e -> Error ("check examples: " ^ e)
            | Ok examples ->
                if List.for_all (fun ex -> agrees signature ex program) examples then Ok ()
                else Error (Printf.sprintf "%s disagrees with the kernel on the check examples" taco))
      in
      Hashtbl.replace t.verdicts key v;
      v
