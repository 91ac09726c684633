(* perfbench: the CINM benchmark.

     main.exe --workload figures-exec|compile-stream|serve-open
              --seed N --seconds S --trace 0|1
     main.exe --print-pins

   Prints diagnostics, then as its last line one JSON object with
   "correct", "attempted", "failed" and "metrics": the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. README.md
   defines every workload and metric. Everything runs on one domain
   (jobs = 1) with the compiled interpreter. *)

open Cinm_ir
open Cinm_interp
open Cinm_core
open Cinm_benchmarks
open Perfbench_lib
module L = Layers
module Usim = Cinm_upmem_sim
module Msim = Cinm_memristor_sim
module Transforms = Cinm_transforms
module Json = Cinm_serve_lib.Json
module Client = Cinm_serve_lib.Client

let now = Unix.gettimeofday

(* ----- pins: the identity of every workload ----- *)

let pins_path = "perfbench/pins.txt"

(* [Some tbl] checks against the pinned digests; [None] records them. *)
let pins : (string, string) Hashtbl.t option ref = ref None
let recorded : (string * string) list ref = ref []

exception Workload_changed of string

let load_pins () =
  let tbl = Hashtbl.create 512 in
  let ic = open_in pins_path in
  (try
     while true do
       match String.split_on_char ' ' (String.trim (input_line ic)) with
       | [ k; d ] -> Hashtbl.replace tbl k d
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  pins := Some tbl

let pin_matches key digest =
  match !pins with
  | Some tbl -> Hashtbl.find_opt tbl key = Some digest
  | None ->
    if not (List.mem_assoc key !recorded) then recorded := (key, digest) :: !recorded;
    true

(* An input that differs from its pin means the workload itself changed:
   the run fails. *)
let require_pin key digest = if not (pin_matches key digest) then raise (Workload_changed key)

(* ----- host diagnostics ----- *)

let cpu_ticks () =
  let ic = open_in "/proc/stat" in
  let line = input_line ic in
  close_in ic;
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | _ :: fields ->
    let v = List.map int_of_string fields in
    let total = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) v) in
    let steal = if List.length v > 7 then List.nth v 7 else 0 in
    (steal, total)
  | [] -> (0, 1)

let steal_share (s0, t0) (s1, t1) =
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0

let self_hwm_mb () = Serve_open.vm_hwm_mb (Unix.getpid ())

(* The interpreter's code cache over the timed phase: misses there are
   codegen inside timed units, and evictions mean the cache overflowed. *)
let cache_diag (c0 : Compile.cache_stats) (c1 : Compile.cache_stats) =
  [ ("code_cache_misses", string_of_int (c1.Compile.misses - c0.Compile.misses));
    ("code_cache_evictions", string_of_int (c1.Compile.evictions - c0.Compile.evictions)) ]

(* ----- shared reporting ----- *)

type outcome = {
  attempted : int;
  failed : int;  (** units that did not complete correctly *)
  wrong : int;  (** completed units whose output failed its check *)
  e2e : (string * float) list;
  diag : (string * string) list;
}

let e2e_units =
  [ ("throughput_per_s", "1/s"); ("goodput_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms"); ("unit_ms_geomean", "ms"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

let tail_fields xs =
  match Pstats.tail xs with
  | Some t ->
    ( t.Pstats.value,
      [ ("latency_tail_pct", Printf.sprintf "%g" t.Pstats.pct);
        ("latency_tail_beyond", string_of_int t.Pstats.beyond);
        ("latency_samples", string_of_int t.Pstats.samples) ] )
  | None -> failwith "too few samples for a latency tail"

(* Run [setup] [n] times and keep the last state. Each set-up time is
   divided by the host factor sampled just before it, and the reported
   set-up time is the median, so one preempted set-up does not move it. *)
let repeated_setup n setup =
  let times = ref [] and state = ref None in
  for _ = 1 to n do
    Gc.compact ();
    let href = Hostref.create () in
    Hostref.burst href 5;
    let t0 = now () in
    let s = setup () in
    times := ((now () -. t0) /. Hostref.factor href) :: !times;
    state := Some s
  done;
  (Option.get !state, Pstats.median !times)

type rounds = {
  ms : float list array;  (** per unit, wall ms of each sample *)
  at : float list array;  (** per unit, the midpoint time of each sample *)
  oks : int array;  (** per unit, samples that passed their check *)
  mutable nrounds : int;
  mutable busy_s : float;  (** time spent in units *)
}

let new_rounds n =
  { ms = Array.make n []; at = Array.make n []; oks = Array.make n 0; nrounds = 0; busy_s = 0.0 }
let samples r = Array.fold_left (fun acc m -> acc + List.length m) 0 r.ms
let passed r = Array.fold_left ( + ) 0 r.oks
let unit_geomean r = Pstats.geomean (Array.to_list (Array.map Pstats.median r.ms))

(* Whole rounds of every unit in a fresh seeded order until [seconds]
   have passed, sampling the host reference between units. With [trace],
   a warm-up round that counts nowhere but in [attempted] and [failed]
   comes first; then rounds pair up untraced and traced in the order
   U T T U U T ..., so the tracing overhead is read from paired rounds
   that neither warm-up nor a steady drift favours. Returns the
   untraced, traced and warm-up rounds. *)
let rounds ~rng ~href ~seconds ~trace ~n run1 =
  let base = new_rounds n and traced = new_rounds n and warm = new_rounds n in
  let t0 = now () in
  let k = ref (if trace then -1 else 0) in
  let traced_round k = trace && (k mod 4 = 1 || k mod 4 = 2) in
  while !k < (if trace then 2 else 1) || (trace && !k mod 2 = 1) || now () -. t0 < seconds do
    let r = if !k < 0 then warm else if traced_round !k then traced else base in
    L.enabled := r == traced;
    Array.iter
      (fun i ->
        Hostref.tick href;
        let a = now () in
        let ok = run1 i in
        let dt = now () -. a in
        r.ms.(i) <- (1e3 *. dt) :: r.ms.(i);
        r.at.(i) <- (a +. (0.5 *. dt)) :: r.at.(i);
        r.busy_s <- r.busy_s +. dt;
        if ok then r.oks.(i) <- r.oks.(i) + 1)
      (Srng.shuffle rng (Array.init n Fun.id));
    r.nrounds <- r.nrounds + 1;
    incr k
  done;
  L.enabled := false;
  (base, traced, warm)

(* [r] with every sample divided by the host factor around it. *)
let normalized href r =
  let local = Hostref.local href in
  let ms = Array.map2 (List.map2 (fun at ms -> ms /. local at)) r.at r.ms in
  { r with ms; busy_s = 1e-3 *. Array.fold_left (List.fold_left ( +. )) 0.0 ms }

(* End-to-end metrics of the untraced rounds, every sample divided by the
   host factor around it; the [others] (traced and warm-up rounds) only
   add their units to the attempted and failed counts. *)
let summarize ~setup_s ~rss ~href ~others raw =
  let r = normalized href raw in
  let all = List.concat (Array.to_list r.ms) in
  let total = samples r and good = passed r in
  let tail, tail_diag = tail_fields all in
  let t_total = List.fold_left (fun a o -> a + samples o) 0 others
  and t_good = List.fold_left (fun a o -> a + passed o) 0 others in
  {
    attempted = total + t_total;
    failed = total - good + (t_total - t_good);
    wrong = total - good + (t_total - t_good);
    e2e =
      [ ("throughput_per_s", float_of_int total /. r.busy_s);
        ("goodput_per_s", float_of_int good /. r.busy_s);
        ("latency_p50_ms", Pstats.median all); ("latency_tail_ms", tail);
        ("unit_ms_geomean", unit_geomean r); ("peak_rss_mb", rss); ("setup_s", setup_s) ];
    diag =
      [ ("rounds", string_of_int (List.fold_left (fun a o -> a + o.nrounds) r.nrounds others));
        ("host_factor", Printf.sprintf "%.4f" (Hostref.factor href));
        ("host_samples", string_of_int (Hostref.samples href));
        ("raw_throughput_per_s", Printf.sprintf "%.4f" (float_of_int total /. raw.busy_s));
        ("raw_unit_ms_geomean", Printf.sprintf "%.4f" (unit_geomean raw)) ]
      @ tail_diag;
  }

(* Turn a span total accumulated over [r]'s rounds into a per-round one. *)
let per_round r name = L.set name (L.get name /. float_of_int r.nrounds)

(* Tracing overhead from paired rounds, as the geomean of per-unit
   median times traced over untraced. *)
let overhead_pct ~base ~traced =
  L.set "trace.overhead_pct" (100.0 *. ((unit_geomean traced /. unit_geomean base) -. 1.0))

(* ----- figures-exec ----- *)

let figures_setup () =
  let checked = Hashtbl.create 64 in
  List.map
    (fun (s : Units.spec) ->
      let func = s.Units.source.Benchmark.build () in
      let args = s.Units.source.Benchmark.inputs () in
      if not (Hashtbl.mem checked s.Units.input) then begin
        Hashtbl.add checked s.Units.input ();
        require_pin ("in-func:" ^ s.Units.input) (Pdigest.text (Printer.func_to_string func));
        require_pin ("in-args:" ^ s.Units.input) (Pdigest.values args)
      end;
      ignore (Benchmark.reference s.Units.bench);
      Units.prepare s ~func ~args)
    (Units.figure_specs ())

(* One figures-exec unit: a Driver run and its output check against the
   pinned digest and the host reference. *)
let figures_unit (u : Units.exec_unit) =
  let kind = u.Units.spec.Units.kind in
  let w0 = Gc.minor_words () in
  let results, report = L.span ("core.run_ms." ^ kind) u.Units.run in
  if !L.enabled then L.add "interp.minor_words_per_unit" (Gc.minor_words () -. w0);
  let ok =
    L.span "benchmarks.check_ms" (fun () ->
        pin_matches ("out:" ^ u.Units.spec.Units.name) (Pdigest.values results)
        && Benchmark.results_match u.Units.spec.Units.bench results)
  in
  if not ok then Printf.eprintf "figures-exec: %s: output check failed\n%!" u.Units.spec.Units.name;
  (ok, report.Report.total_s)

(* Compile a fresh build pass by pass, timing each pass and the verifier
   after it, as Driver.compile runs them. *)
let probe_passes backend (m : Func.modul) =
  L.add "ir.ops_in" (float_of_int (Pass.count_ops m));
  (try
     List.iter
       (fun (p : Pass.t) ->
         if p.Pass.pass_name = "cinm-partition" then
           ignore
             (L.span "transforms.partition_plan_ms" (fun () ->
                  Transforms.Partition.plan_module Transforms.Partition.default_policy m));
         L.span ("transforms." ^ p.Pass.pass_name ^ "_ms") (fun () -> p.Pass.run m);
         L.add ("transforms." ^ p.Pass.pass_name ^ ".ops_after") (float_of_int (Pass.count_ops m));
         match L.span "ir.verify_ms" (fun () -> Verifier.verify_module m) with
         | [] -> ()
         | e :: _ -> failwith (Verifier.error_to_string e))
       (Driver.pipeline backend)
   with e -> Printf.eprintf "probe: pass pipeline failed: %s\n%!" (Printexc.to_string e));
  L.add "ir.ops_out" (float_of_int (Pass.count_ops m))

let module_of f =
  let m = Func.create_module () in
  Func.add_func m f;
  m

let backend_of (spec : Units.spec) =
  match spec.Units.how with
  | Units.Compiled (b, _) -> b
  | Units.Upmem_flow c | Units.Lowered c -> Backend.Upmem c

let tensors_of args =
  List.filter_map (function Rtval.Tensor t | Rtval.Memref t -> Some t | _ -> None) args

(* The probe round of the traced run: every unit once through the direct
   layer entry points the Driver hides. *)
let figures_probe (units : Units.exec_unit list) =
  let fresh = Units.figure_specs () in
  let hosted = Hashtbl.create 32 in
  List.iter2
    (fun (u : Units.exec_unit) (s : Units.spec) ->
      let spec = u.Units.spec in
      (* the unit's cold compile, whole and pass by pass *)
      (match spec.Units.how with
      | Units.Compiled _ | Units.Upmem_flow _ ->
        let backend = backend_of spec in
        L.span ("core.compile_ms." ^ spec.Units.kind) (fun () ->
            ignore (Driver.compile_func backend (s.Units.source.Benchmark.build ())));
        probe_passes backend (module_of (s.Units.source.Benchmark.build ()))
      | Units.Lowered _ -> ());
      (* simulators called directly *)
      (match spec.Units.how with
      | Units.Upmem_flow c | Units.Lowered c ->
        let machine = Usim.Machine.create (Units.scaled_sim_config c) in
        let _, ms = L.timed (fun () -> Usim.Machine.run machine u.Units.func u.Units.args) in
        let st = machine.Usim.Machine.stats in
        L.add "upmem_sim.run_ms" ms;
        L.add "upmem_sim.dpu_instructions" (float_of_int st.Usim.Stats.dpu_instructions);
        L.add "upmem_sim.dma_bytes" (float_of_int st.Usim.Stats.dma_bytes);
        L.add "upmem_sim.transferred_bytes" (float_of_int st.Usim.Stats.transferred_bytes);
        L.add "upmem_sim.launches" (float_of_int st.Usim.Stats.launches);
        L.add "upmem_sim.retries" (float_of_int st.Usim.Stats.retries);
        L.add "upmem_sim.failed_dpus" (float_of_int st.Usim.Stats.failed_dpus);
        let pus = c.Backend.ranks * c.Backend.dimms * c.Backend.dpus_per_dimm in
        List.iter
          (fun (t : Tensor.t) ->
            (* block map over whole chunks, as the lowering tiles it *)
            let chunk = Tensor.num_elements t / pus in
            if chunk > 0 then begin
              let bufs = Array.init pus (fun _ -> Tensor.zeros [| chunk |] t.Tensor.dtype) in
              L.span "interp.distrib_scatter_ms" (fun () -> Distrib.scatter ~map:"block" t bufs);
              ignore
                (L.span "interp.distrib_gather_ms" (fun () ->
                     Distrib.gather bufs ~result_shape:[| pus * chunk |] ~dtype:t.Tensor.dtype))
            end)
          (tensors_of u.Units.args)
      | Units.Compiled (Backend.Cim _, _) ->
        let _, report = u.Units.run () in
        L.add "memristor_sim.mvms" (float_of_int (Report.counter report "mvms"));
        L.add "memristor_sim.cells_written" (float_of_int (Report.counter report "cells_written"));
        L.add "cam_sim.searches" (float_of_int (Report.counter report "cam_searches"));
        let c = match spec.Units.how with Units.Compiled (Backend.Cim c, _) -> c | _ -> assert false in
        let machine =
          Msim.Machine.create
            { (Msim.Config.default ~tiles:c.Backend.tiles ()) with
              Msim.Config.rows = c.Backend.rows; cols = c.Backend.cols }
        in
        let cam = Cinm_cam_sim.Cam_machine.create (Cinm_cam_sim.Cam_machine.default_config ()) in
        let _, ms =
          L.timed (fun () ->
              Compile.run_func
                ~hooks:[ Msim.Machine.hook machine; Cinm_cam_sim.Cam_machine.hook cam ]
                ?modul:u.Units.modul u.Units.func u.Units.args)
        in
        L.add "memristor_sim.run_ms" ms
      | Units.Compiled ((Backend.Host_arm | Backend.Host_xeon), _) ->
        let _, report = u.Units.run () in
        L.add "cpu_sim.ops" (float_of_int (Report.counter report "ops"))
      | Units.Compiled _ -> ());
      (* host interpreter on the host-lowered program, warm and cold *)
      let lowered = match spec.Units.how with Units.Lowered _ -> true | _ -> false in
      if (not lowered) && not (Hashtbl.mem hosted spec.Units.input) then begin
        Hashtbl.add hosted spec.Units.input ();
        let c = Driver.compile_func Backend.Host_xeon (s.Units.source.Benchmark.build ()) in
        let f = List.hd c.Driver.modul.Func.funcs in
        let run () = ignore (Compile.run_func ~modul:c.Driver.modul f u.Units.args) in
        Compile.clear_cache ();
        let _, cold = L.timed run in
        let _, warm = L.timed run in
        L.add "interp.host_run_ms" warm;
        L.add "interp.codegen_ms" (Float.max 0.0 (cold -. warm));
        (* the host reference, recomputed on a fresh descriptor *)
        L.span "benchmarks.reference_ms" (fun () -> ignore (Benchmark.reference s.Units.bench))
      end)
    units fresh;
  let instr = L.get "upmem_sim.dpu_instructions" in
  if instr > 0.0 then L.add "interp.ns_per_dpu_instr" (1e6 *. L.get "upmem_sim.run_ms" /. instr)

let figures_exec ~seed ~seconds ~trace =
  let units, setup_s = repeated_setup 5 figures_setup in
  let units = Array.of_list units in
  let n = Array.length units in
  let rng = Srng.make seed in
  Gc.compact ();
  (* simulated time per unit: deterministic, so the last sample is it *)
  let sim_s = Array.make n 0.0 in
  let run1 i =
    let ok, s = figures_unit units.(i) in
    sim_s.(i) <- s;
    ok
  in
  let st0 = cpu_ticks () in
  let href = Hostref.create () in
  let cache0 = Compile.cache_stats () in
  let base, traced, warm = rounds ~rng ~href ~seconds ~trace ~n run1 in
  let cache1 = Compile.cache_stats () in
  if trace then begin
    List.iter (fun k -> per_round traced ("core.run_ms." ^ k)) L.run_kinds;
    per_round traced "benchmarks.check_ms";
    L.set "interp.minor_words_per_unit"
      (L.get "interp.minor_words_per_unit" /. float_of_int (samples traced));
    overhead_pct ~base ~traced;
    L.enabled := true;
    figures_probe (Array.to_list units)
  end;
  let steal = steal_share st0 (cpu_ticks ()) in
  let o = summarize ~setup_s ~rss:(self_hwm_mb ()) ~href ~others:[ traced; warm ] base in
  { o with
    diag =
      o.diag
      @ [ ("units", string_of_int n);
          ( "sim_us_geomean",
            Printf.sprintf "%.17g" (Pstats.geomean (List.map (fun s -> 1e6 *. s) (Array.to_list sim_s))) );
          ("steal_share", Printf.sprintf "%.4f" steal) ]
      @ cache_diag cache0 cache1 }

(* ----- compile-stream ----- *)

let stream_setup () =
  List.map
    (fun name ->
      let text = Units.pool_text name in
      require_pin ("pool:" ^ name) (Pdigest.text text);
      (name, Parser.parse_module_text text))
    (Units.pool_names ())

(* The inputs of a pool module and the check of a result against the
   module's host reference: the Fuzz oracle's CPU run for a generated
   module, the catalog's own reference for a kernel. The inputs are
   pinned, so neither the generator nor the catalog can change them. *)
let stream_reference name (src : Func.modul) =
  let f = List.hd src.Func.funcs in
  let args, check =
    match String.split_on_char '/' name with
    | [ "gen"; _; seed ] -> (
      let seed = int_of_string seed in
      let module O = Cinm_fuzz_lib.Oracle in
      match O.run_module ~backend:Backend.Host_xeon ~seed src with
      | O.Vals expected, _ ->
        ( Cinm_fuzz_lib.Gen.arg_values ~seed f,
          fun rs -> List.length rs = List.length expected && List.for_all2 O.rt_equal rs expected )
      | O.Fail e, _ -> failwith (Printf.sprintf "%s: host reference failed: %s" name e))
    | [ "catalog"; b ] ->
      let bench = Option.get (Cinm_serve_lib.Catalog.find b) in
      (bench.Benchmark.inputs (), Benchmark.results_match bench)
    | _ -> invalid_arg ("stream_reference: " ^ name)
  in
  require_pin ("stream-args:" ^ name) (Pdigest.values args);
  (args, check)

(* Check each unit's first compiled output once, outside the timed
   phase: its printed form must re-parse and verify, and running the
   re-parsed module must give its pinned result and the host reference of
   its source module, so a pass that stops preserving what a module
   computes fails the unit. Returns the number of units that fail. *)
let stream_check pool backends (first : string option array) =
  let nb = Array.length backends in
  let refs =
    Array.map
      (fun (name, src) ->
        lazy (stream_reference name (Parser.parse_module_text (Printer.module_to_string src))))
      pool
  in
  let bad i = function
    | None -> true
    | Some out -> (
      let name, _ = pool.(i / nb) and bname, backend = backends.(i mod nb) in
      let args, check = Lazy.force refs.(i / nb) in
      let run () =
        let m = Parser.parse_module_text out in
        match Verifier.verify_module m with
        | [] -> Some (fst (Driver.run { Driver.modul = m; backend; fallback = None } args))
        | _ :: _ -> None
      in
      match run () with
      | Some results ->
        let ok = pin_matches (Printf.sprintf "stream-out:%s/%s" name bname) (Pdigest.values results) && check results in
        if not ok then Printf.eprintf "compile-stream: %s/%s: output check failed\n%!" name bname;
        not ok
      | None ->
        Printf.eprintf "compile-stream: %s/%s: output does not verify\n%!" name bname;
        true
      | exception e ->
        Printf.eprintf "compile-stream: %s/%s: %s\n%!" name bname (Printexc.to_string e);
        true)
  in
  Array.to_list (Array.mapi bad first) |> List.filter Fun.id |> List.length

let compile_stream ~seed ~seconds ~trace =
  let pool, setup_s = repeated_setup 9 stream_setup in
  let pool = Array.of_list pool and backends = Array.of_list Units.stream_backends in
  let nb = Array.length backends in
  let n = Array.length pool * nb in
  (* first output of each unit in this run: every later compile of the
     same unit must print identically, and the first is checked by
     [stream_check] *)
  let first = Array.make n None in
  let run1 i =
    let _, modul = pool.(i / nb) and bname, backend = backends.(i mod nb) in
    let text = L.span "ir.print_ms" (fun () -> Printer.module_to_string modul) in
    let m = L.span "ir.parse_ms" (fun () -> Parser.parse_module_text text) in
    let compiled = L.span ("core.compile_ms." ^ bname) (fun () -> Driver.compile backend m) in
    let out = L.span "ir.print_ms" (fun () -> Printer.module_to_string compiled.Driver.modul) in
    let d = Pdigest.text out in
    compiled.Driver.fallback = None
    &&
    match first.(i) with
    | None ->
      first.(i) <- Some (d, out);
      true
    | Some (d0, _) -> d = d0
  in
  let rng = Srng.make seed in
  Gc.compact ();
  let st0 = cpu_ticks () in
  let href = Hostref.create () in
  let cache0 = Compile.cache_stats () in
  let base, traced, warm = rounds ~rng ~href ~seconds ~trace ~n run1 in
  let cache1 = Compile.cache_stats () in
  if trace then begin
    List.iter (per_round traced)
      ([ "ir.print_ms"; "ir.parse_ms" ] @ List.map (fun k -> "core.compile_ms." ^ k) L.compile_kinds);
    overhead_pct ~base ~traced;
    L.enabled := true;
    (* probe round: every unit once, pass by pass *)
    Array.iter
      (fun (_, modul) ->
        Array.iter
          (fun (_, backend) ->
            probe_passes backend (Parser.parse_module_text (Printer.module_to_string modul)))
          backends)
      pool
  end;
  let steal = steal_share st0 (cpu_ticks ()) in
  let rss = self_hwm_mb () in
  let bad_first = stream_check pool backends (Array.map (Option.map snd) first) in
  let o = summarize ~setup_s ~rss ~href ~others:[ traced; warm ] base in
  { o with
    failed = o.failed + bad_first;
    wrong = o.wrong + bad_first;
    diag =
      o.diag @ [ ("units", string_of_int n); ("steal_share", Printf.sprintf "%.4f" steal) ] @ cache_diag cache0 cache1 }

(* ----- serve-open ----- *)

(* In-process identity and expected results of every mix key: pinned
   inputs, pinned outputs, and the simulated time replies must carry. *)
let serve_expected () =
  Array.map
    (fun (b, be, _) ->
      let bench = Option.get (Cinm_serve_lib.Catalog.find b) in
      let func = bench.Benchmark.build () in
      require_pin ("serve-in-func:" ^ b) (Pdigest.text (Printer.func_to_string func));
      require_pin ("serve-in-args:" ^ b) (Pdigest.values (bench.Benchmark.inputs ()));
      let compiled = Driver.compile_func (List.assoc be Units.stream_backends) func in
      let results, report = Driver.run compiled (bench.Benchmark.inputs ()) in
      if not (pin_matches (Printf.sprintf "serve-out:%s/%s" b be) (Pdigest.values results)) then
        raise (Workload_changed (Printf.sprintf "serve-out:%s/%s" b be));
      report.Report.total_s)
    Serve_open.keys

let serve_open ~seed ~seconds ~trace =
  let module S = Serve_open in
  let expected_sim = serve_expected () in
  (try Unix.mkdir S.run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock k = Printf.sprintf "%s/s%d-%d.sock" S.run_dir (Unix.getpid ()) k in
  (* nine cold starts, one after another, each divided by the host
     factor sampled just before it; the last daemon serves the run *)
  let nstarts = 9 in
  let starts =
    List.init nstarts (fun k ->
        let h = Hostref.create () in
        Hostref.burst h 5;
        let d, c, t = S.start ~sock:(sock k) in
        (d, c, t /. Hostref.factor h))
  in
  let setup_s = Pstats.median (List.map (fun (_, _, t) -> t) starts) in
  List.iteri (fun k (d, c, _) -> if k < nstarts - 1 then S.shutdown d c) starts;
  let d, c, _ = List.nth starts (nstarts - 1) in
  Client.close c;
  let rng = Srng.make seed in
  let st0 = cpu_ticks () in
  let href = Hostref.create ~nominal:Hostref.service_nominal_ms ~exponent:1.0 ()
  and svc = Hostref.start_service () in
  let ph =
    Fun.protect
      ~finally:(fun () -> Hostref.stop_service svc)
      (fun () -> S.run_phase ~sock:d.S.sock ~href ~svc ~trace ~drain_s:60.0 (S.requests rng ~seconds))
  in
  let steal = steal_share st0 (cpu_ticks ()) in
  let c = Client.connect ~attempts:1 d.S.sock in
  let stats = Client.request c (Client.make_request "stats") in
  let metrics = Client.request c (Client.make_request "metrics") in
  let rss = S.vm_hwm_mb d.S.pid in
  S.shutdown d c;
  S.report_failures ~expected_sim ph;
  let scale = Hostref.local href in
  let b = S.summarize ~expected_sim ~scale ~select:(S.untraced ~trace) ph in
  let t = S.summarize ~expected_sim ~scale ~select:(S.traced ~trace) ph in
  let w = S.summarize ~expected_sim ~scale ~select:(fun i -> trace && S.block i = 0) ph in
  let tail, tail_diag = tail_fields b.S.lat in
  let lag = S.lag_ms ph in
  let sub obj path = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some obj) path in
  let num obj path = Option.value ~default:0.0 (Option.bind (sub obj path) Json.get_float) in
  let ratio hits misses = if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0 in
  let pc_ratio = ratio (num stats [ "pipeline_cache"; "hits" ]) (num stats [ "pipeline_cache"; "misses" ]) in
  if trace then begin
    let hist name q = 1e3 *. num metrics [ "histograms"; name; q ] in
    L.set "serve.queue_wait_ms.p50" (hist "cinm_serve_queue_wait_seconds" "p50");
    L.set "serve.queue_wait_ms.p95" (hist "cinm_serve_queue_wait_seconds" "p95");
    L.set "serve.execute_ms.p50" (hist "cinm_serve_execute_seconds" "p50");
    L.set "serve.compile_ms.p50" (hist "cinm_serve_compile_seconds" "p50");
    L.set "serve.codegen_ms.p50" (hist "cinm_codegen_seconds" "p50");
    (* the daemon's histogram quantiles are bucket bounds, so transport
       is taken from exact means: client e2e minus daemon e2e *)
    let client = S.client_ms ph in
    let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
    L.set "serve.transport_ms.mean"
      (mean client
      -. (1e3 *. num metrics [ "histograms"; "cinm_serve_request_seconds"; "sum" ]
          /. Float.max 1.0 (num metrics [ "histograms"; "cinm_serve_request_seconds"; "count" ])));
    L.set "serve.inline_rtt_ms.p50" (match ph.S.pings with [] -> 0.0 | p -> Pstats.median p);
    L.set "serve.pipeline_cache_hit_ratio" pc_ratio;
    L.set "serve.code_cache_hit_ratio"
      (ratio (num stats [ "code_cache"; "hits" ]) (num stats [ "code_cache"; "misses" ]));
    (* "ok" is also the reply's own status flag, so divide by "served" *)
    L.set "serve.degraded_ratio" (num stats [ "degraded" ] /. Float.max 1.0 (num stats [ "served" ]));
    L.set "trace.overhead_pct" (100.0 *. ((Pstats.median t.S.raw /. Pstats.median b.S.raw) -. 1.0))
  end;
  (* throughput and goodput follow the offered load, so they are not
     divided by the host factor; latencies are *)
  {
    attempted = b.S.sent + t.S.sent + w.S.sent;
    failed = b.S.failed + t.S.failed + w.S.failed;
    wrong = b.S.wrong + t.S.wrong + w.S.wrong;
    e2e =
      [ ("throughput_per_s", float_of_int (List.length b.S.lat) /. ph.S.elapsed);
        ("goodput_per_s", float_of_int b.S.good /. ph.S.elapsed);
        ("latency_p50_ms", Pstats.median b.S.lat); ("latency_tail_ms", tail);
        ("unit_ms_geomean", Pstats.geomean b.S.per_key); ("peak_rss_mb", rss); ("setup_s", setup_s) ];
    diag =
      tail_diag
      @ [ ("rate_per_s", Printf.sprintf "%g" S.rate_per_s);
          ("latency_limit_ms", Printf.sprintf "%g" S.latency_limit_ms);
          ("host_factor", Printf.sprintf "%.4f" (Hostref.factor href));
          ("host_samples", string_of_int (Hostref.samples href));
          ("raw_latency_p50_ms", Printf.sprintf "%.4f" (Pstats.median b.S.raw));
          ("gen_lag_p50_ms", Printf.sprintf "%.3f" (Pstats.median lag));
          ("gen_lag_max_ms", Printf.sprintf "%.3f" (List.fold_left Float.max 0.0 lag));
          ("pipeline_cache_hit_ratio", Printf.sprintf "%.3f" pc_ratio);
          ("steal_share", Printf.sprintf "%.4f" steal) ];
  }

(* ----- entry point ----- *)

let print_pins () =
  let units = figures_setup () in
  List.iter (fun u -> ignore (figures_unit u)) units;
  let pool = Array.of_list (stream_setup ()) and backends = Array.of_list Units.stream_backends in
  let nb = Array.length backends in
  ignore
    (stream_check pool backends
       (Array.init (Array.length pool * nb) (fun i ->
            let _, m = pool.(i / nb) and _, backend = backends.(i mod nb) in
            let compiled = Driver.compile backend (Parser.parse_module_text (Printer.module_to_string m)) in
            Some (Printer.module_to_string compiled.Driver.modul))));
  ignore (serve_expected ());
  List.iter (fun (k, d) -> Printf.printf "%s %s\n" k d) (List.sort compare !recorded)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let print_result ~trace (o : outcome) =
  let metrics =
    if trace then List.map (fun (name, unit) -> (name, L.get name, unit)) L.metrics
    else List.map (fun (name, unit) -> (name, List.assoc name o.e2e, unit)) e2e_units
  in
  List.iter
    (fun (name, v, _) -> if not (Float.is_finite v) then failwith ("non-finite metric " ^ name))
    metrics;
  List.iter (fun (k, v) -> Printf.printf "# %s %s\n" k v) o.diag;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.wrong = 0) o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
          metrics))

let usage () =
  prerr_endline
    "usage: main.exe --workload figures-exec|compile-stream|serve-open --seed N --seconds S --trace 0|1\n\
    \       main.exe --print-pins";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a killed run still stops the daemons it started *)
  List.iter
    (fun signal ->
      Sys.set_signal signal (Sys.Signal_handle (fun _ -> Serve_open.kill_all (); exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  Cinm_dialects.Registry.ensure_all ();
  Cinm_support.Pool.set_default_jobs 1;
  Compile.set_backend Compile.Compiled;
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--print-pins" ] then (print_pins (); exit 0);
  let rec parse acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((flag, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_opt k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  if List.exists (fun (k, _) -> not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace" ])) opts
  then usage ();
  let workload = get "--workload" and seed = int_opt "--seed" and seconds = int_opt "--seconds" in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  let run =
    match workload with
    | "figures-exec" -> figures_exec
    | "compile-stream" -> compile_stream
    | "serve-open" -> serve_open
    | _ -> usage ()
  in
  match
    load_pins ();
    run ~seed ~seconds:(float_of_int seconds) ~trace
  with
  | o ->
    Serve_open.kill_all ();
    print_result ~trace o
  | exception Workload_changed key ->
    Serve_open.kill_all ();
    Printf.eprintf "perfbench: workload input %s differs from its pin in %s\n" key pins_path;
    exit 1
  | exception e ->
    Serve_open.kill_all ();
    Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
    exit 1
