(* Differential tests for the closure-compiling executor: every scenario —
   fig10-style CIM matmuls, fig11-style UPMEM kernels, fault injection,
   hand-built scf control flow, runtime errors, and the bench --json
   output — must be bit-identical between CINM_INTERP=tree and
   CINM_INTERP=compiled, at --jobs 1 and --jobs 4. *)

open Cinm_ir
open Cinm_dialects
open Cinm_transforms
open Cinm_interp
module T = Types
module Usim = Cinm_upmem_sim
module Pool = Cinm_support.Pool
module Fault = Cinm_support.Fault
module Driver = Cinm_core.Driver
module Backend = Cinm_core.Backend
module Report = Cinm_core.Report

let () = Registry.ensure_all ()

let tensor shape = T.Tensor (shape, T.I32)
let iota shape = Tensor.init shape (fun i -> (i mod 23) - 11)

let with_backend backend f =
  let prev = Compile.backend () in
  Compile.set_backend backend;
  Fun.protect ~finally:(fun () -> Compile.set_backend prev) f

(* Run the same scenario under both backends and hand both outcomes to
   [check]. The scenario must build its IR fresh on every call (pipelines
   mutate funcs in place). *)
let differential run check =
  let tree = with_backend Compile.Tree run in
  let compiled = with_backend Compile.Compiled run in
  check tree compiled

let check_tensors msg a b =
  List.iter2
    (fun x y ->
      if not (Tensor.equal x y) then
        Alcotest.failf "%s: tensors differ: %s vs %s" msg (Tensor.to_string x)
          (Tensor.to_string y))
    a b

(* ----- UPMEM lowering (fig11-style kernels) ----- *)

let force_cnm =
  Target_select.pass
    ~policy:{ Target_select.default_policy with forced_target = Some "cnm" }
    ()

let lower_to_upmem ~cnm_opts f =
  let m = Func.create_module () in
  Func.add_func m f;
  Pass.run_pipeline
    [ Tosa_to_linalg.pass; Linalg_to_cinm.pass; force_cnm;
      Cinm_to_cnm.pass ~options:cnm_opts (); Cnm_to_upmem.pass () ]
    m;
  List.hd m.Func.funcs

let build_mm m k n () =
  let f =
    Func.create ~name:"mm" ~arg_tys:[ tensor [| m; k |]; tensor [| k; n |] ]
      ~result_tys:[ tensor [| m; n |] ]
  in
  let b = Builder.for_func f in
  Func_d.return b [ Linalg_d.matmul b (Func.param f 0) (Func.param f 1) ];
  f

let run_upmem ?(jobs = 1) ?(faults = None) ~cnm_opts builder args =
  Pool.set_default_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs 1)
    (fun () ->
      let machine = Usim.Machine.create ~faults (Usim.Config.default ~dimms:1 ()) in
      let f = lower_to_upmem ~cnm_opts (builder ()) in
      let results, profile =
        Compile.run_func ~hooks:[ Usim.Machine.hook machine ] f args
      in
      (List.map Rtval.as_tensor results, machine.Usim.Machine.stats, profile))

let check_upmem_equal (r1, s1, p1) (r2, s2, p2) =
  check_tensors "tree vs compiled" r1 r2;
  Alcotest.(check bool)
    (Printf.sprintf "stats identical:\n%s\nvs\n%s" (Usim.Stats.to_string s1)
       (Usim.Stats.to_string s2))
    true (Usim.Stats.equal s1 s2);
  Alcotest.(check bool) "host profiles identical" true (Profile.equal p1 p2)

let gemm_opts =
  { Cinm_to_cnm.dpus = 8; tasklets = 4; optimize = false; max_rows_per_launch = 8 }

let test_upmem_gemm () =
  let a = iota [| 32; 8 |] and b = iota [| 8; 6 |] in
  let args = [ Rtval.Tensor a; Rtval.Tensor b ] in
  List.iter
    (fun jobs ->
      differential
        (fun () -> run_upmem ~jobs ~cnm_opts:gemm_opts (build_mm 32 8 6) args)
        check_upmem_equal)
    [ 1; 4 ]

let test_upmem_gemm_wram_opt () =
  (* WRAM-optimized kernels exercise the hook ops (wram_shared_alloc,
     mram_read/write, barrier_wait) through the generic-fallback path *)
  let a = iota [| 32; 16 |] and b = iota [| 16; 8 |] in
  let args = [ Rtval.Tensor a; Rtval.Tensor b ] in
  let opts =
    { Cinm_to_cnm.dpus = 4; tasklets = 4; optimize = true; max_rows_per_launch = 8 }
  in
  List.iter
    (fun jobs ->
      differential
        (fun () -> run_upmem ~jobs ~cnm_opts:opts (build_mm 32 16 8) args)
        check_upmem_equal)
    [ 1; 4 ]

(* ----- fault scenarios ----- *)

let plan rates = Fault.make ~seed:42 rates

let test_faults_differential () =
  let a = iota [| 32; 8 |] and b = iota [| 8; 6 |] in
  let args = [ Rtval.Tensor a; Rtval.Tensor b ] in
  List.iter
    (fun rates ->
      List.iter
        (fun jobs ->
          differential
            (fun () ->
              run_upmem ~jobs ~faults:(Some (plan rates)) ~cnm_opts:gemm_opts
                (build_mm 32 8 6) args)
            check_upmem_equal)
        [ 1; 4 ])
    [
      { Fault.no_rates with Fault.dpu_transient = 0.3 };
      { Fault.no_rates with Fault.dpu_fail = 0.3 };
    ]

(* ----- CIM (fig10-style) through the driver ----- *)

let test_cim_differential () =
  let run () =
    let backend = Backend.Cim (Backend.default_cim ~min_writes:true ~parallel:false ()) in
    let results, report =
      Driver.compile_and_run backend
        (build_mm 128 128 128 ())
        [ Rtval.Tensor (iota [| 128; 128 |]); Rtval.Tensor (iota [| 128; 128 |]) ]
    in
    (List.map Rtval.as_tensor results, report)
  in
  differential run (fun (r1, rep1) (r2, rep2) ->
      check_tensors "cim tree vs compiled" r1 r2;
      Alcotest.(check string)
        "cim reports identical" (Report.to_string rep1) (Report.to_string rep2))

(* ----- hand-built scf control flow ----- *)

(* Loop-carried swap: yield (b, a + b) permutes the iteration-argument
   slots, which the compiled backend must route through scratch slots. *)
let test_scf_loop_carried () =
  let run () =
    let f =
      Func.create ~name:"fib" ~arg_tys:[]
        ~result_tys:[ T.Scalar T.I32; T.Scalar T.I32 ]
    in
    let b = Builder.for_func f in
    let lb = Arith.const_index b 0
    and ub = Arith.const_index b 10
    and step = Arith.const_index b 1 in
    let i0 = Arith.constant b 0 and i1 = Arith.constant b 1 in
    let results =
      Scf_d.for_ b ~lb ~ub ~step ~init:[ i0; i1 ] (fun bb _iv iters ->
          [ iters.(1); Arith.addi bb iters.(0) iters.(1) ])
    in
    Func_d.return b results;
    Compile.run_func f []
  in
  differential run (fun (r1, p1) (r2, p2) ->
      Alcotest.(check bool) "fib results equal" true (r1 = r2);
      Alcotest.(check bool) "fib profiles equal" true (Profile.equal p1 p2);
      match r1 with
      | [ Rtval.Int a; Rtval.Int b ] ->
        Alcotest.(check int) "fib(10)" 55 a;
        Alcotest.(check int) "fib(11)" 89 b
      | _ -> Alcotest.fail "unexpected fib results")

let test_scf_if_cmpi_memref () =
  let run () =
    let f = Func.create ~name:"g" ~arg_tys:[ T.Scalar T.I32 ] ~result_tys:[ T.Scalar T.I32 ] in
    let b = Builder.for_func f in
    let m = Memref_d.alloc b [| 8 |] T.I32 in
    let lb = Arith.const_index b 0
    and ub = Arith.const_index b 8
    and step = Arith.const_index b 1 in
    Scf_d.for0 b ~lb ~ub ~step (fun bb iv ->
        let v = Arith.index_cast bb iv ~to_ty:(T.Scalar T.I32) in
        Memref_d.store bb (Arith.muli bb v v) m [ iv ]);
    let x = Func.param f 0 in
    let neg = Arith.cmpi b Arith.Slt x (Arith.constant b 0) in
    let r =
      Scf_d.if_ b neg
        ~then_:(fun bb -> [ Arith.subi bb (Arith.constant bb 0) x ])
        ~else_:(fun bb -> [ Memref_d.load bb m [ Arith.const_index bb 5 ] ])
        ~result_tys:[ T.Scalar T.I32 ]
    in
    Func_d.return b r;
    let minus = Compile.run_func f [ Rtval.Int (-3) ] in
    let plus = Compile.run_func f [ Rtval.Int 7 ] in
    (minus, plus)
  in
  differential run (fun ((m1, mp1), (p1, pp1)) ((m2, mp2), (p2, pp2)) ->
      Alcotest.(check bool) "then-branch results equal" true (m1 = m2);
      Alcotest.(check bool) "else-branch results equal" true (p1 = p2);
      Alcotest.(check bool) "then-branch profiles equal" true (Profile.equal mp1 mp2);
      Alcotest.(check bool) "else-branch profiles equal" true (Profile.equal pp1 pp2);
      Alcotest.(check bool) "then-branch value" true (m1 = [ Rtval.Int 3 ]);
      Alcotest.(check bool) "else-branch value" true (p1 = [ Rtval.Int 25 ]))

(* ----- error parity ----- *)

let catch run =
  match run () with
  | _ -> None
  | exception e -> Some (Printexc.to_string e)

let test_error_parity () =
  let oob () =
    let f = Func.create ~name:"oob" ~arg_tys:[] ~result_tys:[ T.Scalar T.I32 ] in
    let b = Builder.for_func f in
    let m = Memref_d.alloc b [| 4 |] T.I32 in
    Func_d.return b [ Memref_d.load b m [ Arith.const_index b 10 ] ];
    Compile.run_func f []
  in
  let bad_step () =
    let f = Func.create ~name:"bs" ~arg_tys:[] ~result_tys:[] in
    let b = Builder.for_func f in
    let lb = Arith.const_index b 0
    and ub = Arith.const_index b 4
    and step = Arith.const_index b 0 in
    Scf_d.for0 b ~lb ~ub ~step (fun _ _ -> ());
    Func_d.return b [];
    Compile.run_func f []
  in
  (* out-of-bounds updates of an owned tensor, which the compiled backend
     writes in place *)
  let update_oob body () =
    let text =
      {|
  func.func @main() -> (tensor<4xi32>) {
    %c5 = "arith.constant"() {value = 5} : () -> (index)
    %k = "arith.constant"() {value = 7} : () -> (i32)
    %e = "tensor.empty"() : () -> (tensor<4xi32>)
    %s = "tensor.splat"(%k) : (i32) -> (tensor<2xi32>)|}
      ^ body
      ^ {|
    "func.return"(%u) : (tensor<4xi32>) -> ()
  }|}
    in
    let f = List.hd (Parser.parse_module_text text).Func.funcs in
    Alcotest.(check int) "updated in place" 1 (List.length (Compile.in_place_ops f.Func.body));
    Compile.run_func f []
  in
  let insert_oob =
    update_oob
      {|
    %u = "tensor.insert"(%k, %e, %c5) : (i32, tensor<4xi32>, index) -> (tensor<4xi32>)|}
  in
  let insert_slice_oob =
    update_oob
      {|
    %u = "tensor.insert_slice"(%s, %e, %c5) {offsets = [0]} : (tensor<2xi32>, tensor<4xi32>, index) -> (tensor<4xi32>)|}
  in
  List.iter
    (fun scenario ->
      let e_tree = with_backend Compile.Tree (fun () -> catch scenario) in
      let e_comp = with_backend Compile.Compiled (fun () -> catch scenario) in
      match (e_tree, e_comp) with
      | Some a, Some b -> Alcotest.(check string) "same error" a b
      | _ -> Alcotest.fail "expected both backends to raise")
    [ oob; bad_step; insert_oob; insert_slice_oob ]

(* ----- interpreter watchdog ----- *)

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= hn && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

(* A kernel that would run for ~1e9 iterations: the CINM_MAX_STEPS
   watchdog must abort it in both backends with the exact same message
   (function, op, step count) — another consequence of the shared profile
   contract, since the step counter *is* profile.launched_ops. *)
let test_watchdog_parity () =
  let spin () =
    let f = Func.create ~name:"spin" ~arg_tys:[] ~result_tys:[] in
    let b = Builder.for_func f in
    let lb = Arith.const_index b 0
    and ub = Arith.const_index b 1_000_000_000
    and step = Arith.const_index b 1 in
    Scf_d.for0 b ~lb ~ub ~step (fun _ _ -> ());
    Func_d.return b [];
    Compile.run_func ~max_steps:1000 f []
  in
  let e_tree = with_backend Compile.Tree (fun () -> catch spin) in
  let e_comp = with_backend Compile.Compiled (fun () -> catch spin) in
  match (e_tree, e_comp) with
  | Some a, Some b ->
    Alcotest.(check string) "identical watchdog diagnostics" a b;
    Alcotest.(check bool) "names the watchdog" true (contains a "watchdog");
    Alcotest.(check bool) "names the function" true (contains a "@spin");
    Alcotest.(check bool) "names the op" true (contains a "scf.for");
    Alcotest.(check bool) "names the budget" true (contains a "max 1000")
  | _ -> Alcotest.fail "expected both backends to abort"

let test_watchdog_default_off () =
  (* without a budget the same structure (with a small bound) completes *)
  let f = Func.create ~name:"ok" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let lb = Arith.const_index b 0
  and ub = Arith.const_index b 100
  and step = Arith.const_index b 1 in
  Scf_d.for0 b ~lb ~ub ~step (fun _ _ -> ());
  Func_d.return b [];
  differential
    (fun () -> Compile.run_func f [])
    (fun (r1, _) (r2, _) -> Alcotest.(check bool) "both complete" true (r1 = [] && r2 = []))

(* ----- ownership: in-place tensor updates ----- *)

(* Each case runs a textual module under both backends with fresh copies
   of its inputs and checks the results, the profiles and that the
   caller's tensors are unchanged; it also pins which update ops the
   compiled backend executes in place. The negative cases are built so
   that an in-place update would change a returned value. *)

let rt_equal a b =
  match (a, b) with
  | Rtval.Tensor x, Rtval.Tensor y -> Tensor.equal x y
  | _ -> a = b

let ownership_case ?(hooks = fun () -> []) ~expect text inputs =
  let main () = List.hd (Parser.parse_module_text text).Func.funcs in
  Alcotest.(check (list string))
    "ops updated in place" expect
    (List.map (fun (op : Ir.op) -> op.Ir.name) (Compile.in_place_ops (main ()).Func.body));
  let run () =
    let args = List.map (fun t -> Tensor.copy t) inputs in
    let results, profile =
      Compile.run_func ~hooks:(hooks ()) (main ()) (List.map (fun t -> Rtval.Tensor t) args)
    in
    List.iter2
      (fun before after ->
        if not (Tensor.equal before after) then
          Alcotest.failf "caller's tensor modified: %s -> %s" (Tensor.to_string before)
            (Tensor.to_string after))
      inputs args;
    (results, profile)
  in
  differential run (fun (r1, p1) (r2, p2) ->
      Alcotest.(check bool) "results equal" true (List.for_all2 rt_equal r1 r2);
      Alcotest.(check bool) "profiles equal" true (Profile.equal p1 p2))

let v4 = Tensor.of_int_array [| 4 |] [| 1; 2; 3; 4 |]
let v2 = Tensor.of_int_array [| 2 |] [| 10; 20 |]

let consts =
  {|
    %c0 = "arith.constant"() {value = 0} : () -> (index)
    %c1 = "arith.constant"() {value = 1} : () -> (index)
    %c4 = "arith.constant"() {value = 4} : () -> (index)
    %k = "arith.constant"() {value = 7} : () -> (i32)|}

let test_owned_loop_in_place () =
  (* accumulator loop: reads of the iteration argument before the update
     are fine; the merge writes into its freshly extracted lhs *)
  ownership_case ~expect:[ "tensor.insert"; "tensor.insert_slice"; "cinm.merge_partial" ]
    ({|
  func.func @main(%arg0: tensor<4xi32>, %arg1: tensor<2xi32>) -> (tensor<4xi32>, tensor<2xi32>) {|}
   ^ consts
   ^ {|
    %e = "tensor.empty"() : () -> (tensor<4xi32>)
    %r = "scf.for"(%c0, %c4, %c1, %e) ({
    ^bb0(%i: index, %acc: tensor<4xi32>):
      %old = "tensor.extract"(%acc, %i) : (tensor<4xi32>, index) -> (i32)
      %x = "tensor.extract"(%arg0, %i) : (tensor<4xi32>, index) -> (i32)
      %s = "arith.addi"(%old, %x) : (i32, i32) -> (i32)
      %n = "tensor.insert"(%s, %acc, %i) : (i32, tensor<4xi32>, index) -> (tensor<4xi32>)
      "scf.yield"(%n) : (tensor<4xi32>) -> ()
    }) : (index, index, index, tensor<4xi32>) -> (tensor<4xi32>)
    %w = "tensor.insert_slice"(%arg1, %r) {offsets = [1]} : (tensor<2xi32>, tensor<4xi32>) -> (tensor<4xi32>)
    %p = "tensor.extract_slice"(%w) {offsets = [2], sizes = [2]} : (tensor<4xi32>) -> (tensor<2xi32>)
    %m = "cinm.merge_partial"(%p, %arg1) {op = "add"} : (tensor<2xi32>, tensor<2xi32>) -> (tensor<2xi32>)
    "func.return"(%w, %m) : (tensor<4xi32>, tensor<2xi32>) -> ()
  }|})
    [ v4; v2 ]

let test_owned_arg_not_updated () =
  (* an entry-block argument belongs to the caller, directly or as a loop
     init *)
  ownership_case ~expect:[]
    ({|
  func.func @main(%arg0: tensor<4xi32>, %arg1: tensor<2xi32>) -> (tensor<4xi32>, tensor<4xi32>) {|}
   ^ consts
   ^ {|
    %u = "tensor.insert_slice"(%arg1, %arg0) {offsets = [1]} : (tensor<2xi32>, tensor<4xi32>) -> (tensor<4xi32>)
    %r = "scf.for"(%c0, %c4, %c1, %arg0) ({
    ^bb0(%i: index, %acc: tensor<4xi32>):
      %n = "tensor.insert"(%k, %acc, %i) : (i32, tensor<4xi32>, index) -> (tensor<4xi32>)
      "scf.yield"(%n) : (tensor<4xi32>) -> ()
    }) : (index, index, index, tensor<4xi32>) -> (tensor<4xi32>)
    "func.return"(%u, %r) : (tensor<4xi32>, tensor<4xi32>) -> ()
  }|})
    [ v4; v2 ]

let test_owned_read_after_update () =
  ownership_case ~expect:[]
    ({|
  func.func @main(%arg0: tensor<4xi32>) -> (tensor<4xi32>, i32, tensor<4xi32>, i32) {|}
   ^ consts
   ^ {|
    %e = "tensor.splat"(%k) : (i32) -> (tensor<4xi32>)
    %u = "tensor.insert"(%c0, %e, %c1) : (index, tensor<4xi32>, index) -> (tensor<4xi32>)
    %x = "tensor.extract"(%e, %c1) : (tensor<4xi32>, index) -> (i32)
    %z = "arith.constant"() {value = 0} : () -> (i32)
    %e2 = "tensor.empty"() : () -> (tensor<4xi32>)
    %r0, %r1 = "scf.for"(%c0, %c4, %c1, %e2, %z) ({
    ^bb0(%i: index, %acc: tensor<4xi32>, %sum: i32):
      %n = "tensor.insert"(%k, %acc, %i) : (i32, tensor<4xi32>, index) -> (tensor<4xi32>)
      %o = "tensor.extract"(%acc, %i) : (tensor<4xi32>, index) -> (i32)
      %t = "arith.addi"(%sum, %o) : (i32, i32) -> (i32)
      "scf.yield"(%n, %t) : (tensor<4xi32>, i32) -> ()
    }) : (index, index, index, tensor<4xi32>, i32) -> (tensor<4xi32>, i32)
    "func.return"(%u, %x, %r0, %r1) : (tensor<4xi32>, i32, tensor<4xi32>, i32) -> ()
  }|})
    [ v4 ]

let test_owned_alias () =
  (* reshape and expand share storage with their source *)
  ownership_case ~expect:[]
    ({|
  func.func @main(%arg0: tensor<2xi32>) -> (tensor<2x2xi32>, tensor<4xi32>, tensor<4x1xi32>, tensor<4xi32>, tensor<4xi32>) {|}
   ^ consts
   ^ {|
    %e = "tensor.splat"(%k) : (i32) -> (tensor<4xi32>)
    %r = "tensor.reshape"(%e) : (tensor<4xi32>) -> (tensor<2x2xi32>)
    %u = "tensor.insert_slice"(%arg0, %e) {offsets = [0]} : (tensor<2xi32>, tensor<4xi32>) -> (tensor<4xi32>)
    %f = "tensor.splat"(%k) : (i32) -> (tensor<4xi32>)
    %x = "cinm.expand"(%f) : (tensor<4xi32>) -> (tensor<4x1xi32>)
    %v = "tensor.insert"(%c0, %f, %c1) : (index, tensor<4xi32>, index) -> (tensor<4xi32>)
    %g = "tensor.splat"(%k) : (i32) -> (tensor<4xi32>)
    %h = "tensor.reshape"(%g) : (tensor<4xi32>) -> (tensor<4xi32>)
    %w = "tensor.insert"(%c0, %h, %c1) : (index, tensor<4xi32>, index) -> (tensor<4xi32>)
    "func.return"(%r, %u, %x, %v, %g) : (tensor<2x2xi32>, tensor<4xi32>, tensor<4x1xi32>, tensor<4xi32>, tensor<4xi32>) -> ()
  }|})
    [ v2 ]

(* A stand-in for a device launch: [test.stash] evaluates its region and
   keeps the tensor it yields, as a machine keeps a captured buffer;
   [test.peek] reads element 1 of it later. *)
let stash_hooks () =
  let kept = ref None in
  [ (fun ctx (op : Ir.op) _ops ->
      match op.Ir.name with
      | "test.stash" -> (
        match Compile.run_region ctx (Ir.region op 0) [] with
        | [ Rtval.Tensor t ] ->
          kept := Some t;
          Some []
        | _ -> None)
      | "test.peek" -> (
        match !kept with Some t -> Some [ Rtval.Int (Tensor.get_int t 1) ] | None -> None)
      | _ -> None) ]

let test_owned_escapes () =
  (* through an scf.if yield, and through a region capture that a hook
     keeps past the update *)
  ownership_case ~hooks:stash_hooks ~expect:[]
    ({|
  func.func @main(%arg0: tensor<4xi32>) -> (tensor<4xi32>, tensor<4xi32>, tensor<4xi32>, tensor<4xi32>, i32) {|}
   ^ consts
   ^ {|
    %t = "arith.cmpi"(%c0, %c1) {predicate = "slt"} : (index, index) -> (i1)
    %e = "tensor.splat"(%k) : (i32) -> (tensor<4xi32>)
    %y = "scf.if"(%t) ({
      "scf.yield"(%e) : (tensor<4xi32>) -> ()
    }) ({
      "scf.yield"(%arg0) : (tensor<4xi32>) -> ()
    }) : (i1) -> (tensor<4xi32>)
    %u = "tensor.insert"(%c0, %e, %c1) : (index, tensor<4xi32>, index) -> (tensor<4xi32>)
    %w = "tensor.insert"(%c4, %y, %c1) : (index, tensor<4xi32>, index) -> (tensor<4xi32>)
    %f = "tensor.splat"(%k) : (i32) -> (tensor<4xi32>)
    "test.stash"() ({
      "scf.yield"(%f) : (tensor<4xi32>) -> ()
    }) : () -> ()
    %v = "tensor.insert"(%c0, %f, %c1) : (index, tensor<4xi32>, index) -> (tensor<4xi32>)
    %p = "test.peek"() : () -> (i32)
    "func.return"(%y, %u, %w, %v, %p) : (tensor<4xi32>, tensor<4xi32>, tensor<4xi32>, tensor<4xi32>, i32) -> ()
  }|})
    [ v4 ]

let test_owned_shared_init () =
  (* one init value feeding two loops: the second must not see the
     first's writes *)
  ownership_case ~expect:[]
    ({|
  func.func @main(%arg0: tensor<4xi32>) -> (tensor<4xi32>, tensor<4xi32>) {|}
   ^ consts
   ^ {|
    %e = "tensor.splat"(%k) : (i32) -> (tensor<4xi32>)
    %a = "scf.for"(%c0, %c4, %c1, %e) ({
    ^bb0(%i: index, %acc: tensor<4xi32>):
      %n = "tensor.insert"(%i, %acc, %i) : (index, tensor<4xi32>, index) -> (tensor<4xi32>)
      "scf.yield"(%n) : (tensor<4xi32>) -> ()
    }) : (index, index, index, tensor<4xi32>) -> (tensor<4xi32>)
    %b = "scf.for"(%c0, %c4, %c1, %e) ({
    ^bb0(%i: index, %acc: tensor<4xi32>):
      %x = "tensor.extract"(%acc, %i) : (tensor<4xi32>, index) -> (i32)
      %s = "arith.addi"(%x, %k) : (i32, i32) -> (i32)
      %n = "tensor.insert"(%s, %acc, %i) : (i32, tensor<4xi32>, index) -> (tensor<4xi32>)
      "scf.yield"(%n) : (tensor<4xi32>) -> ()
    }) : (index, index, index, tensor<4xi32>) -> (tensor<4xi32>)
    "func.return"(%a, %b) : (tensor<4xi32>, tensor<4xi32>) -> ()
  }|})
    [ v4 ]

(* ----- DMA: one implementation, identical under both backends ----- *)

(* A 2x2 (DPU x tasklet) kernel: each PU copies its 2-element MRAM slice
   of the input through WRAM into the output, with the given (count, MRAM
   offset) for the read and the write, then meets a barrier. Returns the
   output, the machine stats, how many DMA ops reached a hook, and each
   lane's DMA and dispatch counters as the barrier (a hook op) sees them. *)
let run_dma_kernel ?(read = (2, 0)) ?(write = (2, 0)) () =
  let f = Func.create ~name:"dma" ~arg_tys:[ tensor [| 8 |] ] ~result_tys:[ tensor [| 8 |] ] in
  let b = Builder.for_func f in
  let wg = Upmem_d.alloc_dpus b ~dimms:1 ~dpus:2 ~tasklets:2 in
  let inb = Upmem_d.alloc b wg ~shape:[| 2 |] ~dtype:T.I32 ~level:0 in
  ignore (Upmem_d.scatter b (Func.param f 0) inb wg ~map:"block");
  let outb = Upmem_d.alloc b wg ~shape:[| 2 |] ~dtype:T.I32 ~level:0 in
  ignore
    (Upmem_d.launch b wg ~tasklets:2 ~ins:[ inb ] ~outs:[ outb ] (fun bb args ->
         let wram = Upmem_d.wram_alloc bb [| 2 |] T.I32 in
         let c0 = Arith.const_index bb 0 in
         let rc, ro = read and wc, wo = write in
         Upmem_d.mram_read bb ~mram:args.(0) ~wram ~mram_off:(Arith.const_index bb ro)
           ~wram_off:c0 ~count:rc;
         Upmem_d.mram_write bb ~wram ~mram:args.(1) ~mram_off:(Arith.const_index bb wo)
           ~wram_off:c0 ~count:wc;
         Upmem_d.barrier_wait bb));
  let out, _ = Upmem_d.gather b outb wg ~result_shape:[| 8 |] in
  Func_d.return b [ out ];
  let machine = Usim.Machine.create ~faults:None (Usim.Config.default ~dimms:1 ()) in
  let hooked = ref 0 and lanes = ref [] in
  let hook ctx (op : Ir.op) ops =
    (match op.Ir.name with
    | "upmem.mram_read" | "upmem.mram_write" -> incr hooked
    | _ -> ());
    (match op.Ir.name with
    | "upmem.barrier_wait" ->
      let p = ctx.Interp.profile in
      lanes := (p.Profile.dma_transfers, p.Profile.dma_bytes, p.Profile.launched_ops) :: !lanes
    | _ -> ());
    Usim.Machine.hook machine ctx op ops
  in
  let results, _ = Compile.run_func ~hooks:[ hook ] f [ Rtval.Tensor (iota [| 8 |]) ] in
  (List.map Rtval.as_tensor results, machine.Usim.Machine.stats, !hooked, List.rev !lanes)

let test_dma_parity () =
  differential run_dma_kernel (fun (r1, s1, h1, l1) (r2, s2, h2, l2) ->
      check_tensors "dma copy" r1 r2;
      check_tensors "dma copy is the identity" [ iota [| 8 |] ] r1;
      Alcotest.(check bool) "stats identical" true (Usim.Stats.equal s1 s2);
      Alcotest.(check int) "dma bytes" (8 * 4 * 2) s1.Usim.Stats.dma_bytes;
      Alcotest.(check int) "lanes seen" 4 (List.length l1);
      Alcotest.(check (list (triple int int int))) "lane counters identical" l1 l2;
      Alcotest.(check int) "no DMA op reaches a hook (tree)" 0 h1;
      Alcotest.(check int) "no DMA op reaches a hook (compiled)" 0 h2);
  (* host-driven DMA ops (no launch, no machine) use the same semantics *)
  let host () =
    let f =
      Func.create ~name:"host_dma"
        ~arg_tys:[ T.MemRef ([| 8 |], T.I32); T.MemRef ([| 4 |], T.I32) ]
        ~result_tys:[]
    in
    let b = Builder.for_func f in
    let c1 = Arith.const_index b 1 and c2 = Arith.const_index b 2 in
    Upmem_d.mram_read b ~mram:(Func.param f 0) ~wram:(Func.param f 1) ~mram_off:c2
      ~wram_off:c1 ~count:3;
    Upmem_d.mram_write b ~wram:(Func.param f 1) ~mram:(Func.param f 0) ~mram_off:c1
      ~wram_off:c1 ~count:3;
    Func_d.return b [];
    let mram = iota [| 8 |] and wram = Tensor.zeros [| 4 |] T.I32 in
    let _, p = Compile.run_func f [ Rtval.Memref mram; Rtval.Memref wram ] in
    (mram, wram, p)
  in
  differential host (fun (m1, w1, p1) (m2, w2, p2) ->
      check_tensors "host dma" [ m1; w1 ] [ m2; w2 ];
      Alcotest.(check bool) "profiles identical" true (Profile.equal p1 p2);
      Alcotest.(check int) "transfers" 2 p1.Profile.dma_transfers;
      Alcotest.(check int) "bytes" 24 p1.Profile.dma_bytes)

let test_dma_bounds_parity () =
  List.iter
    (fun (scenario, expect) ->
      let e_tree = with_backend Compile.Tree (fun () -> catch scenario) in
      let e_comp = with_backend Compile.Compiled (fun () -> catch scenario) in
      match (e_tree, e_comp) with
      | Some a, Some b ->
        Alcotest.(check string) "same diagnostic" a b;
        List.iter
          (fun part ->
            if not (contains a part) then Alcotest.failf "%S does not mention %S" a part)
          expect
      | _ -> Alcotest.fail "expected both backends to raise")
    [ ( (fun () -> run_dma_kernel ~read:(6, 0) ()),
        [ "upmem.mram_read: MRAM range [0, 6) out of bounds for 2 elements";
          "on DPU 0 (tasklet 0)" ] );
      ( (fun () -> run_dma_kernel ~write:(2, 1) ()),
        [ "upmem.mram_write: MRAM range [1, 3) out of bounds for 2 elements";
          "on DPU 0 (tasklet 0)" ] );
    ]

(* ----- bench --json differential ----- *)

(* wall_s is the one field that legitimately differs between two runs;
   everything else (names, sim_s, runs, jobs, schema) must match byte for
   byte. *)
let strip_wall s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let key = "\"wall_s\":" in
  let klen = String.length key in
  let i = ref 0 in
  while !i < n do
    if !i + klen <= n && String.sub s !i klen = key then begin
      i := !i + klen;
      while !i < n && s.[!i] <> ',' do
        incr i
      done;
      if !i < n then incr i;
      if !i < n && s.[!i] = ' ' then incr i
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* locate the bench executable relative to this test binary, so the test
   works under both `dune runtest` (cwd test/) and `dune exec` (cwd root) *)
let bench_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bench" "main.exe"))

let bench_json ~interp ~jobs =
  let out = Filename.temp_file "cinm_bench" ".json" in
  let cmd =
    Printf.sprintf
      "%s --quick --jobs %d --interp %s --json %s ablation tab4 dialects \
       >/dev/null 2>&1"
      (Filename.quote bench_exe) jobs interp (Filename.quote out)
  in
  let rc = Sys.command cmd in
  Alcotest.(check int) (Printf.sprintf "bench exit (%s)" cmd) 0 rc;
  let s = read_file out in
  Sys.remove out;
  strip_wall s

let test_bench_json_differential () =
  List.iter
    (fun jobs ->
      let t = bench_json ~interp:"tree" ~jobs in
      let c = bench_json ~interp:"compiled" ~jobs in
      Alcotest.(check string)
        (Printf.sprintf "--json identical minus wall_s at --jobs %d" jobs)
        t c)
    [ 1; 4 ]

let () =
  Alcotest.run "compile"
    [ ( "differential",
        [ Alcotest.test_case "upmem gemm, jobs 1 and 4" `Quick test_upmem_gemm;
          Alcotest.test_case "upmem gemm wram-opt, jobs 1 and 4" `Quick
            test_upmem_gemm_wram_opt;
          Alcotest.test_case "fault scenarios" `Quick test_faults_differential;
          Alcotest.test_case "cim matmul report" `Quick test_cim_differential;
        ] );
      ( "control-flow",
        [ Alcotest.test_case "loop-carried swap (fib)" `Quick test_scf_loop_carried;
          Alcotest.test_case "scf.if + cmpi + memref" `Quick test_scf_if_cmpi_memref;
          Alcotest.test_case "error parity" `Quick test_error_parity;
          Alcotest.test_case "watchdog parity" `Quick test_watchdog_parity;
          Alcotest.test_case "watchdog off by default" `Quick test_watchdog_default_off;
        ] );
      ( "ownership",
        [ Alcotest.test_case "owned loop updates in place" `Quick test_owned_loop_in_place;
          Alcotest.test_case "argument destination copies" `Quick test_owned_arg_not_updated;
          Alcotest.test_case "read after update copies" `Quick test_owned_read_after_update;
          Alcotest.test_case "reshape/expand alias copies" `Quick test_owned_alias;
          Alcotest.test_case "if yield / capture copies" `Quick test_owned_escapes;
          Alcotest.test_case "shared loop init copies" `Quick test_owned_shared_init;
        ] );
      ( "dma",
        [ Alcotest.test_case "tree/compiled parity, no hook dispatch" `Quick test_dma_parity;
          Alcotest.test_case "bounds diagnostics identical" `Quick test_dma_bounds_parity;
        ] );
      ( "bench-json",
        [ Alcotest.test_case "bit-identical at jobs 1 and 4" `Quick
            test_bench_json_differential;
        ] );
    ]
