(* Content digests that pin a workload's identity: the printed input
   module, the input tensors and the expected outputs. The serialization
   is the benchmark's own (dtype, shape, then every element as 64
   little-endian bits), so it does not move when a printer or
   Rtval.to_string changes its format. *)

open Cinm_interp

let text s = Digest.to_hex (Digest.string s)

let add_tensor b (t : Tensor.t) =
  Buffer.add_string b (Cinm_ir.Types.dtype_to_string t.Tensor.dtype);
  Array.iter (fun d -> Buffer.add_string b (Printf.sprintf ":%d" d)) t.Tensor.shape;
  Buffer.add_char b '[';
  let n = Tensor.num_elements t in
  if Tensor.is_int t then
    for i = 0 to n - 1 do
      Buffer.add_int64_le b (Int64.of_int (Tensor.get_int t i))
    done
  else
    for i = 0 to n - 1 do
      Buffer.add_int64_le b (Int64.bits_of_float (Tensor.get_float t i))
    done;
  Buffer.add_char b ']'

let add_value b (v : Rtval.t) =
  match v with
  | Rtval.Int i -> Buffer.add_string b (Printf.sprintf "i%d;" i)
  | Rtval.Float f -> Buffer.add_string b (Printf.sprintf "f%Ld;" (Int64.bits_of_float f))
  | Rtval.Bool x -> Buffer.add_string b (if x then "b1;" else "b0;")
  | Rtval.Tensor t ->
    Buffer.add_char b 't';
    add_tensor b t
  | Rtval.Memref t ->
    Buffer.add_char b 'm';
    add_tensor b t
  | Rtval.Token -> Buffer.add_string b "k;"
  | Rtval.Handle h -> Buffer.add_string b (Printf.sprintf "h%d;" h)

let values vs =
  let b = Buffer.create 4096 in
  List.iter (add_value b) vs;
  text (Buffer.contents b)
