(* Allocation-budget smoke tests for the compiled backend:
   - the scalar hot path (scf.for driving memref load / arith / store on
     the int frame) must not allocate per iteration; a regression back to
     per-element Rtval boxing costs >= 3 minor words per iteration;
   - a loop that fills an owned tensor with tensor.insert must allocate
     O(n) words: updating in place instead of copying the n-element
     tensor on each of n iterations (O(n^2), which lands in the major
     heap, so the budget counts [Gc.allocated_bytes]). *)

open Cinm_ir
open Cinm_dialects
open Cinm_interp
module T = Types

let () = Registry.ensure_all ()

let iters = 200_000

(* sum over a counted loop doing load / addi / store on one i32 cell *)
let build () =
  let f = Func.create ~name:"hot" ~arg_tys:[] ~result_tys:[ T.Scalar T.I32 ] in
  let b = Builder.for_func f in
  let m = Memref_d.alloc b [| 1 |] T.I32 in
  let i0 = Arith.const_index b 0 in
  Memref_d.store b (Arith.constant b 0) m [ i0 ];
  let c0 = Arith.const_index b 0
  and c1 = Arith.const_index b 1
  and cn = Arith.const_index b iters in
  let c3 = Arith.constant b 3 in
  Scf_d.for0 b ~lb:c0 ~ub:cn ~step:c1 (fun bb i ->
      ignore i;
      let v = Memref_d.load bb m [ i0 ] in
      Memref_d.store bb (Arith.addi bb v c3) m [ i0 ]);
  Func_d.return b [ Memref_d.load b m [ i0 ] ];
  f

let with_backend backend f =
  let prev = Compile.backend () in
  Compile.set_backend backend;
  Fun.protect ~finally:(fun () -> Compile.set_backend prev) f

let test_compiled_loop_alloc_budget () =
  with_backend Compile.Compiled (fun () ->
      let f = build () in
      let run () =
        match Compile.run_func f [] with
        | [ v ], _ -> Rtval.as_int v
        | _ -> Alcotest.fail "expected one result"
      in
      (* first run compiles the unit and warms caches *)
      let expect = iters * 3 in
      Alcotest.(check int) "loop result" expect (run ());
      let before = Gc.minor_words () in
      Alcotest.(check int) "loop result (measured run)" expect (run ());
      let delta = Gc.minor_words () -. before in
      (* generous: < 1 word per iteration on average. The loop body itself
         allocates nothing; the budget absorbs the per-run constant
         (register file, profile, result list). *)
      let budget = float_of_int iters in
      if delta > budget then
        Alcotest.failf
          "compiled hot loop allocated %.0f minor words over %d iterations \
           (budget %.0f) — per-element boxing is back"
          delta iters budget)

(* out[i] = i for i < n, one tensor.insert per iteration *)
let fill_n = 2048

let build_fill () =
  let ty = T.Tensor ([| fill_n |], T.I32) in
  let f = Func.create ~name:"fill" ~arg_tys:[] ~result_tys:[ ty ] in
  let b = Builder.for_func f in
  let init = Builder.build1 b "tensor.empty" ~result_tys:[ ty ] in
  let c0 = Arith.const_index b 0
  and c1 = Arith.const_index b 1
  and cn = Arith.const_index b fill_n in
  let out =
    Scf_d.for_ b ~lb:c0 ~ub:cn ~step:c1 ~init:[ init ] (fun bb i iters ->
        let v = Arith.index_cast bb i ~to_ty:(T.Scalar T.I32) in
        [ Tensor_d.insert bb v iters.(0) [ i ] ])
  in
  Func_d.return b out;
  f

let test_compiled_insert_loop_linear () =
  with_backend Compile.Compiled (fun () ->
      let f = build_fill () in
      let run () =
        match Compile.run_func f [] with
        | [ v ], _ -> Rtval.as_tensor v
        | _ -> Alcotest.fail "expected one result"
      in
      let expect = Tensor.init ~dtype:T.I32 [| fill_n |] (fun i -> i) in
      Alcotest.(check bool) "filled tensor" true (Tensor.equal expect (run ()));
      let before = Gc.allocated_bytes () in
      let out = run () in
      let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
      Alcotest.(check bool) "filled tensor (measured run)" true (Tensor.equal expect out);
      (* the result tensor plus a few words of index boxing per iteration;
         copying would cost fill_n words per iteration *)
      let budget = float_of_int (32 * fill_n) in
      if words > budget then
        Alcotest.failf
          "tensor.insert loop allocated %.0f words over %d iterations (budget \
           %.0f) — the owned accumulator is being copied"
          words fill_n budget)

let () =
  Alcotest.run "alloc_budget"
    [
      ( "compiled",
        [
          Alcotest.test_case "hot loop stays unboxed" `Quick
            test_compiled_loop_alloc_budget;
          Alcotest.test_case "tensor.insert loop is O(n)" `Quick
            test_compiled_insert_loop_linear;
        ] );
    ]
