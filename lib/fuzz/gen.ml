(* Seeded random-module generator.

   Design rules:

   - every op goes through the typed dialect constructors, which compute
     result types from operand types, so modules are verifier-valid by
     construction (the test suite still re-verifies 500 of them);
   - the grammar sticks to ops the host interpreter executes natively —
     device pipelines lower what they support and leave the rest to the
     interpreter, so every backend can run every generated module (at
     worst via the driver's CPU fallback, which the oracle records);
   - shapes stay tiny (dims 1..5) so a full oracle matrix over hundreds
     of seeds runs in CI time;
   - one sequential SplitMix64 stream per seed and no global state, so
     the printed module text is a pure function of the seed. *)

open Cinm_ir
open Cinm_interp
module Arith = Cinm_dialects.Arith
module Scf = Cinm_dialects.Scf_d
module TensorD = Cinm_dialects.Tensor_d
module Linalg = Cinm_dialects.Linalg_d
module Cinm = Cinm_dialects.Cinm_d
module FuncD = Cinm_dialects.Func_d

let grammar =
  [
    "arith.constant"; "arith.addi"; "arith.muli"; "arith.subi";
    "tensor.splat"; "tensor.pad"; "tensor.extract_slice"; "tensor.insert_slice";
    "linalg.add"; "linalg.sub"; "linalg.mul"; "linalg.matmul"; "linalg.matvec";
    "linalg.transpose"; "linalg.reduce"; "linalg.einsum";
    "cinm.add"; "cinm.sub"; "cinm.mul"; "cinm.min"; "cinm.max"; "cinm.and";
    "cinm.or"; "cinm.xor"; "cinm.gemm"; "cinm.gemv"; "cinm.transpose";
    "cinm.reduce"; "cinm.scan"; "scf.for"; "func.return";
    (* [~updates:true] only *)
    "tensor.extract"; "tensor.insert";
  ]

let is_float = Types.is_float_dtype

(* dtype weights: INT32 is the paper's workload dtype, but the narrow
   widths are where wrap bugs live *)
let dtypes =
  [|
    Types.I32; Types.I32; Types.I32; Types.F64; Types.F64; Types.I8; Types.I8;
    Types.I16; Types.F32; Types.I64;
  |]

(* boundary-heavy constant pools *)
let int_consts = function
  | Types.I8 -> [| 0; 1; -1; 2; 127; -128; 100; -101 |]
  | Types.I16 -> [| 0; 1; -1; 3; 32767; -32768; 255; -256 |]
  | _ -> [| 0; 1; -1; 2; 7; 100; 65536; -4096 |]

let float_consts = [| 0.0; -0.0; 1.0; -1.5; 0.25; 3.5; -2.0; 0.125 |]
let weird_floats = [| nan; infinity; neg_infinity |]

type st = {
  rng : Rng.t;
  b : Builder.t;
  dt : Types.dtype;
  mutable tensors : Ir.value list;  (* in-scope tensor values, newest first *)
  mutable scalars : Ir.value list;  (* in-scope scalars of dtype [dt] *)
  updates : bool;  (* loops may also update their carried tensor *)
}

let push st v = st.tensors <- v :: st.tensors

let rand_shape st =
  let rank = Rng.range st.rng 1 2 in
  Array.init rank (fun _ -> Rng.range st.rng 1 5)

let const_scalar st =
  if is_float st.dt then
    let v =
      if Rng.chance st.rng 1 12 then Rng.pick st.rng weird_floats
      else Rng.pick st.rng float_consts
    in
    Arith.constant_f st.b ~ty:(Types.Scalar st.dt) v
  else Arith.constant st.b ~ty:(Types.Scalar st.dt) (Rng.pick st.rng (int_consts st.dt))

let fresh_tensor st shape =
  let t = TensorD.splat st.b (const_scalar st) shape st.dt in
  push st t;
  t

let pick_tensor st = Rng.pick st.rng (Array.of_list st.tensors)

(* A second operand of exactly [t]'s type: an existing same-typed value
   (possibly [t] itself), or a fresh splat. *)
let partner st (t : Ir.value) =
  let same = List.filter (fun (v : Ir.value) -> Types.equal v.Ir.ty t.Ir.ty) st.tensors in
  if same = [] || Rng.chance st.rng 1 4 then
    fresh_tensor st (Option.get (Types.shape_of t.Ir.ty))
  else Rng.pick st.rng (Array.of_list same)

let rank2 st =
  let r2 =
    List.filter (fun (v : Ir.value) -> Types.rank v.Ir.ty = 2) st.tensors
  in
  if r2 = [] then
    fresh_tensor st [| Rng.range st.rng 1 5; Rng.range st.rng 1 5 |]
  else Rng.pick st.rng (Array.of_list r2)

(* ----- productions ----- *)

(* an elementwise builder appropriate for the dtype, usable in any block *)
let ew_op st : Builder.t -> Ir.value -> Ir.value -> Ir.value =
  let cinm_f = [| Cinm.add; Cinm.sub; Cinm.mul; Cinm.min_; Cinm.max_ |] in
  let cinm_i =
    [| Cinm.add; Cinm.sub; Cinm.mul; Cinm.min_; Cinm.max_; Cinm.and_; Cinm.or_; Cinm.xor |]
  in
  let linalg = [| Linalg.add; Linalg.sub; Linalg.mul |] in
  if Rng.chance st.rng 1 3 then Rng.pick st.rng linalg
  else Rng.pick st.rng (if is_float st.dt then cinm_f else cinm_i)

let prod_elementwise st =
  let t = pick_tensor st in
  let u = partner st t in
  let op = ew_op st in
  push st (op st.b t u)

let prod_matmul st =
  let a = rank2 st in
  let shape = Option.get (Types.shape_of a.Ir.ty) in
  let bt = fresh_tensor st [| shape.(1); Rng.range st.rng 1 5 |] in
  let r =
    if Rng.bool st.rng then Cinm.gemm st.b a bt else Linalg.matmul st.b a bt
  in
  push st r

let prod_matvec st =
  let a = rank2 st in
  let shape = Option.get (Types.shape_of a.Ir.ty) in
  let v = fresh_tensor st [| shape.(1) |] in
  let r = if Rng.bool st.rng then Cinm.gemv st.b a v else Linalg.matvec st.b a v in
  push st r

let prod_transpose st =
  let a = rank2 st in
  let r =
    if Rng.bool st.rng then Cinm.transpose st.b a ~perms:[| 1; 0 |]
    else Linalg.transpose st.b a ~perms:[| 1; 0 |]
  in
  push st r

let reduce_ops = [| "add"; "min"; "max" |]

let prod_reduce st =
  let t = pick_tensor st in
  let op = Rng.pick st.rng reduce_ops in
  let s =
    if Rng.bool st.rng then Cinm.reduce st.b ~op t else Linalg.reduce st.b ~op t
  in
  st.scalars <- s :: st.scalars

let prod_scan st =
  let t = pick_tensor st in
  push st (Cinm.scan st.b ~op:(Rng.pick st.rng reduce_ops) t)

let prod_pad st =
  let t = pick_tensor st in
  let shape = Option.get (Types.shape_of t.Ir.ty) in
  let low = Array.map (fun _ -> Rng.range st.rng 0 2) shape in
  let high = Array.map (fun _ -> Rng.range st.rng 0 2) shape in
  push st (TensorD.pad st.b t ~low ~high)

let prod_extract_slice st =
  let t = pick_tensor st in
  let shape = Option.get (Types.shape_of t.Ir.ty) in
  let sizes = Array.map (fun d -> Rng.range st.rng 1 d) shape in
  let offsets = Array.mapi (fun i d -> Rng.range st.rng 0 (d - sizes.(i))) shape in
  push st (TensorD.extract_slice st.b t ~offsets ~sizes ~dyn_offsets:[])

let prod_insert_slice st =
  let dst = pick_tensor st in
  let shape = Option.get (Types.shape_of dst.Ir.ty) in
  let sizes = Array.map (fun d -> Rng.range st.rng 1 d) shape in
  let offsets = Array.mapi (fun i d -> Rng.range st.rng 0 (d - sizes.(i))) shape in
  let src = fresh_tensor st sizes in
  push st (TensorD.insert_slice st.b src dst ~offsets ~dyn_offsets:[])

let prod_einsum st =
  let a = rank2 st in
  let shape = Option.get (Types.shape_of a.Ir.ty) in
  match Rng.int st.rng 3 with
  | 0 ->
    let bt = fresh_tensor st [| shape.(1); Rng.range st.rng 1 4 |] in
    push st (Linalg.einsum st.b ~spec:"ij,jk->ik" a bt)
  | 1 ->
    let bt = partner st a in
    push st (Linalg.einsum st.b ~spec:"ij,ij->ij" a bt)
  | _ ->
    let v = fresh_tensor st [| shape.(1) |] in
    push st (Linalg.einsum st.b ~spec:"ij,j->i" a v)

(* scf.for with a loop-carried tensor: acc' = acc <op> u, where u is an
   outer value (regions are not isolated, so the reference is legal). *)
let prod_ew_loop st =
  let t = pick_tensor st in
  let u = partner st t in
  let op = ew_op st in
  let lb = Arith.const_index st.b 0 in
  let ub = Arith.const_index st.b (Rng.range st.rng 2 4) in
  let step = Arith.const_index st.b 1 in
  let results =
    Scf.for_ st.b ~lb ~ub ~step ~init:[ t ] (fun bb _iv iters ->
        [ op bb iters.(0) u ])
  in
  List.iter (push st) results

(* scf.for carrying a tensor that the body updates — one element with
   tensor.insert or one slice with tensor.insert_slice — after reading it
   (tensor.extract, and extract_slice for the slice), and sometimes
   reading it again after the update; a second iteration argument sums
   what was read. The init is either a splat nothing else uses or any
   in-scope tensor, so in-place updates (where the old value is dead) and
   copies (where it is not) both meet the copying reference. *)
let prod_update_loop st =
  let init =
    if Rng.bool st.rng then TensorD.splat st.b (const_scalar st) (rand_shape st) st.dt
    else pick_tensor st
  in
  let shape = Option.get (Types.shape_of init.Ir.ty) in
  let index () =
    List.map (fun d -> Arith.const_index st.b (Rng.range st.rng 0 (d - 1))) (Array.to_list shape)
  in
  let at_read = index () in
  let at_write = index () in
  let at_after = if Rng.chance st.rng 1 3 then Some (index ()) else None in
  let slice =
    if Rng.bool st.rng then begin
      let sizes = Array.map (fun d -> Rng.range st.rng 1 d) shape in
      let place () = Array.mapi (fun i d -> Rng.range st.rng 0 (d - sizes.(i))) shape in
      (* two draws in a fixed order: tuple components evaluate in an
         unspecified order *)
      let from = place () in
      Some (sizes, from, place ())
    end
    else None
  in
  let op = ew_op st in
  let c = const_scalar st in
  let add, zero =
    if is_float st.dt then (Arith.addf, Arith.constant_f st.b ~ty:(Types.Scalar st.dt) 0.0)
    else (Arith.addi, Arith.constant st.b ~ty:(Types.Scalar st.dt) 0)
  in
  let lb = Arith.const_index st.b 0 in
  let ub = Arith.const_index st.b (Rng.range st.rng 2 4) in
  let step = Arith.const_index st.b 1 in
  match
    Scf.for_ st.b ~lb ~ub ~step ~init:[ init; zero ] (fun bb _iv iters ->
        let acc = iters.(0) in
        let old = TensorD.extract bb acc at_read in
        let updated =
          match slice with
          | Some (sizes, from, to_) ->
            let s = TensorD.extract_slice bb acc ~offsets:from ~sizes ~dyn_offsets:[] in
            TensorD.insert_slice bb (op bb s s) acc ~offsets:to_ ~dyn_offsets:[]
          | None -> TensorD.insert bb (add bb old c) acc at_write
        in
        let sum = add bb iters.(1) old in
        let sum =
          match at_after with
          | Some at -> add bb sum (TensorD.extract bb acc at)
          | None -> sum
        in
        [ updated; sum ])
  with
  | [ t; s ] ->
    push st t;
    st.scalars <- s :: st.scalars
  | _ -> assert false

let prod_loop st =
  if st.updates && Rng.bool st.rng then prod_update_loop st else prod_ew_loop st

(* scalar arithmetic at the dtype's boundaries (i8/i16 wrap cases), fed
   back into the tensor world via splat *)
let prod_scalar_chain st =
  let s =
    if is_float st.dt then const_scalar st
    else begin
      let c1 = const_scalar st in
      let c2 = const_scalar st in
      let op = Rng.pick st.rng [| Arith.addi; Arith.muli; Arith.subi |] in
      op st.b c1 c2
    end
  in
  st.scalars <- s :: st.scalars;
  ignore (fresh_tensor st (rand_shape st))

let prod_splat_scalar st =
  match st.scalars with
  | [] -> prod_scalar_chain st
  | scalars ->
    let s = Rng.pick st.rng (Array.of_list scalars) in
    push st (TensorD.splat st.b s (rand_shape st) st.dt)

let productions =
  [|
    prod_elementwise; prod_elementwise; prod_elementwise; prod_matmul;
    prod_matmul; prod_matvec; prod_transpose; prod_reduce; prod_scan; prod_pad;
    prod_extract_slice; prod_insert_slice; prod_einsum; prod_loop;
    prod_scalar_chain; prod_splat_scalar;
  |]

let generate ?ops ?(updates = false) ~seed () =
  Cinm_dialects.Registry.ensure_all ();
  let rng = Rng.make seed in
  let dt = Rng.pick rng dtypes in
  let nargs = Rng.range rng 1 3 in
  let f0 = Func.create ~name:"main" ~result_tys:[]
      ~arg_tys:
        (List.init nargs (fun _ ->
             let rank = Rng.range rng 1 2 in
             Types.Tensor (Array.init rank (fun _ -> Rng.range rng 1 5), dt)))
  in
  let st =
    { rng; b = Builder.for_func f0; dt; tensors = Func.params f0; scalars = []; updates }
  in
  let n = match ops with Some n -> n | None -> 3 + Rng.int rng 10 in
  for _ = 1 to n do
    (Rng.pick st.rng productions) st
  done;
  (* A value differential only sees what func.return carries, so any op
     whose result never reaches the return is fuzzing nothing (and a
     reducer's dead-code sweep may legally delete it). Return the newest
     tensor as a shaped result, then fold every other live tensor
     (sum-reduced to a scalar) and every scalar into one checksum value:
     each generated op now influences an observable output. *)
  let rets =
    let first = List.hd st.tensors in
    let add = if is_float dt then Arith.addf else Arith.addi in
    let tensor_digests =
      List.filter_map
        (fun (v : Ir.value) ->
          if v.Ir.vid = first.Ir.vid then None
          else Some (Cinm.reduce st.b ~op:"add" v))
        st.tensors
    in
    let checksum =
      match tensor_digests @ st.scalars with
      | [] -> []
      | s :: rest -> [ List.fold_left (fun acc v -> add st.b acc v) s rest ]
    in
    first :: checksum
  in
  FuncD.return st.b rets;
  let f = { f0 with Func.result_tys = List.map (fun (v : Ir.value) -> v.Ir.ty) rets } in
  let m = Func.create_module () in
  Func.add_func m f;
  m

let arg_values ~seed (f : Func.t) =
  let rng = Rng.make (seed lxor 0x5eedfeed) in
  List.map
    (fun ty ->
      match ty with
      | Types.Tensor (shape, dt) | Types.MemRef (shape, dt) ->
        let n = Array.fold_left ( * ) 1 shape in
        let t =
          if is_float dt then
            Tensor.of_float_array ~dtype:dt shape
              (Array.init n (fun _ -> float_of_int (Rng.range rng (-64) 64) /. 8.0))
          else
            (* magnitudes past the i8/i16 ranges, so narrow tensors wrap *)
            Tensor.init ~dtype:dt shape (fun _ -> Rng.range rng (-300) 300)
        in
        if Types.is_shaped ty && match ty with Types.MemRef _ -> true | _ -> false
        then Rtval.Memref t
        else Rtval.Tensor t
      | Types.Scalar dt when is_float dt ->
        Rtval.Float (float_of_int (Rng.range rng (-8) 8) /. 2.0)
      | Types.Scalar _ | Types.Index -> Rtval.Int (Rng.range rng 0 4)
      | _ -> Rtval.Int 0)
    f.Func.arg_tys
