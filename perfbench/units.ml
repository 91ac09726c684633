(* The work units of the three workloads.

   figures-exec units are the paper's evaluation kernels at the bench
   harness's --quick sizes and machine configurations (bench/main.ml):
   Fig. 10 CIM variants plus the ARM host, Fig. 11 cinm and cinm-opt at
   4/8/16 DIMMs, Fig. 12 cpu-opt, cinm and PrIM at 4/8/16 DIMMs, and the
   two heterogeneous kernels. compile-stream draws from a fixed pool of
   generated modules and catalog kernels. serve-open sends catalog
   kernels to the daemon. *)

open Cinm_ir
open Cinm_interp
open Cinm_core
open Cinm_benchmarks
module Usim = Cinm_upmem_sim
module Cpu = Cinm_cpu_sim

(* ----- machine configurations of the bench harness ----- *)

let machine_scale = 1.0 /. 16.0
let dpus_per_dimm = 8
let scaled_host = Cpu.Model.scaled machine_scale Cpu.Model.xeon_opt

let upmem_config ~dimms ~optimize =
  Backend.default_upmem ~dimms ~dpus_per_dimm ~tasklets:16 ~optimize ()

let scaled_sim_config (c : Backend.upmem_config) =
  let base = Driver.upmem_sim_config c in
  {
    base with
    Usim.Config.host_to_mram_bw = base.Usim.Config.host_to_mram_bw *. machine_scale;
    mram_to_host_bw = base.Usim.Config.mram_to_host_bw *. machine_scale;
    launch_overhead_s = base.Usim.Config.launch_overhead_s *. machine_scale;
  }

let cim_variants =
  [ ("cim", false, false); ("cim-min-writes", true, false);
    ("cim-parallel", false, true); ("cim-opt", true, true) ]

let dimm_configs = [ 4; 8; 16 ]

let fig10_suite () =
  [
    Ml_kernels.mm ~m:224 ~k:256 ~n:256 ();
    Ml_kernels.mm2 ~m:112 ~k:256 ~n:256 ~p:256 ();
    Ml_kernels.mm3 ~m:112 ~k:256 ~n:256 ~p:256 ~q:256 ();
    Ml_kernels.conv_multi ~h:32 ~w:64 ~kh:8 ~kw:8 ~filters:256 ();
    Prim_kernels.mv ~m:256 ~n:256 ();
    Ml_kernels.contrl ~a:16 ~b:16 ~c:16 ~d:4 ~e:8 ~f:8 ();
    Ml_kernels.contrs1 ~a:112 ~b:256 ~c:8 ~d:8 ();
    Ml_kernels.contrs2 ~a:32 ~b:256 ~c:8 ~d:64 ();
    Ml_kernels.mlp ~batch:112 ~d_in:256 ~d_hidden:256 ~d_out:128 ();
  ]

let fig11_suite () =
  [
    Ml_kernels.mm ~m:512 ~k:16 ~n:16 ();
    Ml_kernels.mm2 ~m:512 ~k:16 ~n:16 ~p:16 ();
    Ml_kernels.mm3 ~m:512 ~k:16 ~n:16 ~p:16 ~q:16 ();
    Ml_kernels.conv ~h:128 ~w:66 ();
    Ml_kernels.contrs1 ~a:512 ~b:16 ~c:4 ~d:4 ();
    Ml_kernels.mlp ~batch:512 ~d_in:16 ~d_hidden:16 ~d_out:16 ();
  ]

let prim_sizes =
  { Suites.default_prim_sizes with
    Suites.va_n = 16384; red_n = 16384; hst_n = 16384; sel_n = 16384; ts_n = 16384 + 7 }

let hetero_suite () =
  [ Hetero_kernels.mix ~m:256 ~ew:16384 ~db:1024 ~q:64 (); Hetero_kernels.batch ~n:4096 () ]

let hetero_backend = Backend.default_hetero ~ranks:4 ~dimms:2 ~dpus_per_dimm ()

(* ----- figures-exec ----- *)

(* How a unit reaches its simulator. [Compiled] units go through
   Driver.compile; [Lowered] units are the hand-written PrIM baselines,
   already at the upmem level. *)
type how =
  | Compiled of Backend.t * Cpu.Model.t option
  | Upmem_flow of Backend.upmem_config  (** cinm: compiled, run on the scaled machine *)
  | Lowered of Backend.upmem_config  (** prim baseline *)

type spec = {
  name : string;  (** figure/benchmark/variant *)
  input : string;  (** figure/benchmark: the pin key of the input *)
  kind : string;  (** upmem | cim | hetero | host | prim *)
  bench : Benchmark.t;  (** the program and its host reference *)
  source : Benchmark.t;  (** the descriptor built and fed (= bench except prim) *)
  how : how;
}

let figure_specs () =
  let mk fig kind variant (b : Benchmark.t) ?(source = b) how =
    let input = fig ^ "/" ^ source.Benchmark.name ^ if source == b then "" else "/prim" in
    { name = Printf.sprintf "%s/%s/%s" fig b.Benchmark.name variant; input; kind; bench = b;
      source; how }
  in
  let fig10 =
    List.concat_map
      (fun b ->
        mk "fig10" "host" "arm" b (Compiled (Backend.Host_arm, None))
        :: List.map
             (fun (v, mw, par) ->
               mk "fig10" "cim" v b
                 (Compiled (Backend.Cim (Backend.default_cim ~min_writes:mw ~parallel:par ()), None)))
             cim_variants)
      (fig10_suite ())
  in
  let fig11 =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun d ->
            [ mk "fig11" "upmem" (Printf.sprintf "cinm-%dd" d) b
                (Upmem_flow (upmem_config ~dimms:d ~optimize:false));
              mk "fig11" "upmem" (Printf.sprintf "cinm-opt-%dd" d) b
                (Upmem_flow (upmem_config ~dimms:d ~optimize:true)) ])
          dimm_configs)
      (fig11_suite ())
  in
  let prim_suite = Suites.prim_suite ~sizes:prim_sizes () in
  let baselines =
    List.map (fun d -> (d, Suites.prim_baselines ~sizes:prim_sizes (upmem_config ~dimms:d ~optimize:true)))
      dimm_configs
  in
  let fig12 =
    List.concat_map
      (fun (b : Benchmark.t) ->
        mk "fig12" "host" "cpu-opt" b (Compiled (Backend.Host_xeon, Some scaled_host))
        :: List.concat_map
             (fun d ->
               let config = upmem_config ~dimms:d ~optimize:true in
               mk "fig12" "upmem" (Printf.sprintf "cinm-%dd" d) b (Upmem_flow config)
               :: (match
                     List.find_opt (fun (p : Benchmark.t) -> p.Benchmark.name = b.Benchmark.name)
                       (List.assoc d baselines)
                   with
                  | Some p ->
                    [ { (mk "fig12" "prim" (Printf.sprintf "prim-%dd" d) b ~source:p (Lowered config))
                        with input = Printf.sprintf "fig12/%s/prim-%dd" b.Benchmark.name d } ]
                  | None -> []))
             dimm_configs)
      prim_suite
  in
  let hetero =
    List.map (fun b -> mk "hetero" "hetero" "het" b (Compiled (hetero_backend, None))) (hetero_suite ())
  in
  fig10 @ fig11 @ fig12 @ hetero

type exec_unit = {
  spec : spec;
  func : Func.t;  (** the function run: compiled (first of [modul]) or the baseline *)
  modul : Func.modul option;
  args : Rtval.t list;
  run : unit -> Rtval.t list * Report.t;
}

(* Compile one unit (the cold compile users pay before running it). *)
let prepare (s : spec) ~(func : Func.t) ~(args : Rtval.t list) : exec_unit =
  match s.how with
  | Compiled (backend, host_model) ->
    let compiled = Driver.compile_func backend func in
    { spec = s; func = List.hd compiled.Driver.modul.Func.funcs; modul = Some compiled.Driver.modul;
      args;
      run = (fun () -> Driver.run ?host_model compiled args) }
  | Upmem_flow config ->
    let compiled = Driver.compile_func (Backend.Upmem config) func in
    let f = List.hd compiled.Driver.modul.Func.funcs in
    let sim_config = scaled_sim_config config in
    { spec = s; func = f; modul = Some compiled.Driver.modul; args;
      run =
        (fun () ->
          Driver.run_upmem_func ~backend_name:"cinm" ~host_model:scaled_host
            ~modul:compiled.Driver.modul ~sim_config f args) }
  | Lowered config ->
    let sim_config = scaled_sim_config config in
    { spec = s; func; modul = None; args;
      run =
        (fun () ->
          Driver.run_upmem_func ~backend_name:"prim" ~host_model:scaled_host ~sim_config func args) }

(* ----- compile-stream ----- *)

(* The daemon's backend configurations (Server.backend_of_name): the
   compile-stream targets, and the in-process twins of serve-open keys. *)
let stream_backends =
  [ ("host", Backend.Host_xeon);
    ("upmem", Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:4 ~tasklets:4 ()));
    ("cim", Backend.Cim (Backend.default_cim ()));
    ("hetero", Backend.default_hetero ~dimms:1 ~dpus_per_dimm:4 ()) ]

(* Generated-module sizes: the op count brings out superlinear passes. *)
let gen_sizes = [ 12; 30; 60; 120 ]
let gen_per_size = 4

(* Fixed generator seeds of the pool; the run seed only orders the
   stream, so every module it can name is pinned. *)
let gen_seed ~ops ~i = (ops * 1000) + i

let pool_names () =
  List.concat_map
    (fun ops -> List.init gen_per_size (fun i -> Printf.sprintf "gen/%d/%d" ops (gen_seed ~ops ~i)))
    gen_sizes
  @ List.map (fun n -> "catalog/" ^ n) (Cinm_serve_lib.Catalog.names ())

(* The printed text of a pool module. *)
let pool_text name =
  match String.split_on_char '/' name with
  | [ "gen"; ops; seed ] ->
    Printer.module_to_string
      (Cinm_fuzz_lib.Gen.generate ~ops:(int_of_string ops) ~seed:(int_of_string seed) ())
  | [ "catalog"; b ] ->
    let bench = Option.get (Cinm_serve_lib.Catalog.find b) in
    let m = Func.create_module () in
    Func.add_func m (bench.Benchmark.build ());
    Printer.module_to_string m
  | _ -> invalid_arg ("pool_text: " ^ name)

(* ----- serve-open ----- *)

(* The request mix: (benchmark, backend, strict) keys whose one-worker
   service time is about 5-60 ms on the daemon's backend configurations
   (measured in-process on a 2-vCPU VM: sel/upmem 5 ms ... mv/cim 45 ms).
   It spans more keys than the daemon's pipeline cache holds, so a steady
   share compiles cold. *)
let serve_mix =
  [ ("2mm", "upmem", false); ("3mm", "upmem", false); ("contrl", "upmem", false);
    ("contrs1", "upmem", false); ("contrs2", "upmem", false); ("conv", "upmem", false);
    ("mlp", "upmem", false); ("mm", "upmem", false); ("sel", "upmem", false);
    ("ts", "upmem", false); ("conv", "cim", false); ("bfs", "cim", false);
    ("mv", "cim", false); ("ts", "cim", false); ("ts", "host", false);
    ("ts", "hetero", false); ("mm", "upmem", true); ("mlp", "upmem", true);
    ("conv", "cim", true); ("ts", "hetero", true) ]

let serve_cache_capacity = 12
