(* The end-to-end CINM compiler driver: assembles the progressive-lowering
   pipeline of paper Fig. 4 for a chosen backend, compiles a module, and
   executes it on the corresponding simulator, producing a Report.

   Pipelines:
     host:   tosa -> linalg                     (reference interpreter)
     upmem:  tosa -> linalg -> cinm -> cnm -> upmem   (machine simulator)
     cim:    tosa -> linalg -> cinm -> cim [-> unroll] -> memristor -> licm
*)

open Cinm_ir
open Cinm_transforms
open Cinm_interp
module Usim = Cinm_upmem_sim
module Msim = Cinm_memristor_sim
module Camsim = Cinm_cam_sim
module Cpu = Cinm_cpu_sim
module Trace = Cinm_support.Trace
module Log = Cinm_support.Log
module Config = Cinm_support.Config

let () = Cinm_dialects.Registry.ensure_all ()

(* ----- pipeline construction ----- *)

let force_target t =
  Target_select.pass
    ~policy:{ Target_select.default_policy with forced_target = Some t }
    ()

let cim_target =
  (* greedy policy with a low threshold: every matmul-like op offloads to
     the crossbar, everything else is host-orchestrated (as in OCC) *)
  Target_select.pass
    ~policy:{ Target_select.default_policy with cim_gemm_threshold = 2 }
    ()

let pipeline (backend : Backend.t) : Pass.t list =
  match backend with
  | Backend.Host_xeon | Backend.Host_arm -> [ Torch_to_tosa.pass; Tosa_to_linalg.pass ]
  | Backend.Upmem c ->
    let cnm_opts =
      {
        (* ranks scale the DPU grid like extra DIMMs (per-rank fault
           domains live in the simulator, not the lowering) *)
        Cinm_to_cnm.dpus =
          c.Backend.ranks * c.Backend.dimms * c.Backend.dpus_per_dimm;
        tasklets = c.Backend.tasklets;
        optimize = c.Backend.optimize;
        max_rows_per_launch = c.Backend.max_rows_per_launch;
      }
    in
    let up_opts =
      { Cnm_to_upmem.default_options with dpus_per_dimm = c.Backend.dpus_per_dimm }
    in
    [
      Torch_to_tosa.pass; Tosa_to_linalg.pass; Linalg_to_cinm.pass;
      force_target "cnm"; Ew_fusion.pass;
      Cinm_to_cnm.pass ~options:cnm_opts (); Cnm_to_upmem.pass ~options:up_opts ();
      Canonicalize.pass;
    ]
  | Backend.Cim c ->
    let cim_opts =
      {
        Cinm_to_cim.rows = c.Backend.rows;
        cols = c.Backend.cols;
        tiles = c.Backend.tiles;
        input_chunk = c.Backend.input_chunk;
        interchange = c.Backend.min_writes;
        parallel = c.Backend.parallel;
      }
    in
    [
      Torch_to_tosa.pass; Tosa_to_linalg.pass; Linalg_to_cinm.pass; cim_target;
      Cinm_to_cam.pass; Cinm_to_rtm.pass ();
      Cinm_to_cim.pass ~options:cim_opts (); Loop_unroll.pass;
      Cim_to_memristor.assign_pass ~tiles:c.Backend.tiles; Cim_to_memristor.pass;
      Licm.pass; Licm.pass; Canonicalize.pass;
    ]
  | Backend.Hetero (u, ci) ->
    (* one module partitioned across all devices: the dependency-aware
       partitioner replaces forced target selection, then *every* device
       lowering runs — each claims the ops whose "target" the partitioner
       assigned to it, everything left runs natively on the host *)
    let total_dpus = u.Backend.ranks * u.Backend.dimms * u.Backend.dpus_per_dimm in
    let cnm_opts =
      {
        Cinm_to_cnm.dpus = total_dpus;
        tasklets = u.Backend.tasklets;
        optimize = u.Backend.optimize;
        max_rows_per_launch = u.Backend.max_rows_per_launch;
      }
    in
    let up_opts =
      { Cnm_to_upmem.default_options with dpus_per_dimm = u.Backend.dpus_per_dimm }
    in
    let cim_opts =
      {
        Cinm_to_cim.rows = ci.Backend.rows;
        cols = ci.Backend.cols;
        tiles = ci.Backend.tiles;
        input_chunk = ci.Backend.input_chunk;
        interchange = ci.Backend.min_writes;
        parallel = ci.Backend.parallel;
      }
    in
    let part_policy =
      {
        Partition.default_policy with
        Partition.upmem_dpus = total_dpus;
        cim_rows = ci.Backend.rows;
        cim_cols = ci.Backend.cols;
      }
    in
    [
      Torch_to_tosa.pass; Tosa_to_linalg.pass; Linalg_to_cinm.pass;
      Partition.pass ~policy:part_policy (); Ew_fusion.pass;
      Cinm_to_cam.pass; Cinm_to_rtm.pass ();
      Cinm_to_cim.pass ~options:cim_opts (); Loop_unroll.pass;
      Cim_to_memristor.assign_pass ~tiles:ci.Backend.tiles; Cim_to_memristor.pass;
      Licm.pass; Licm.pass;
      Cinm_to_cnm.pass ~options:cnm_opts (); Cnm_to_upmem.pass ~options:up_opts ();
      Canonicalize.pass;
    ]

(* One host-clock driver span (compile / execute), emitted even when [f]
   raises so the trace shows where a failing run died. The same timing
   feeds the phase histograms (cinm_driver_compile_seconds /
   cinm_driver_execute_seconds) when metrics are collected; with both
   tracing and metrics off this is a single branch around [f]. *)
let with_span ?config name f =
  let tracing = Trace.enabled () and metrics = Trace.Metrics.enabled () in
  if not (tracing || metrics) then f ()
  else begin
    let t0 = Trace.now_host () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Trace.now_host () -. t0 in
        if tracing then begin
          let args =
            match config with
            | Some c when c.Config.req_id <> "" ->
              [ ("req_id", Trace.Str c.Config.req_id) ]
            | _ -> []
          in
          Trace.complete ~cat:"driver" ~args ~clock:Trace.Host
            ~pid:Trace.host_pid ~track:"driver" ~ts:t0 ~dur name
        end;
        if metrics then begin
          let phase =
            match String.index_opt name ':' with
            | Some i -> String.sub name 0 i
            | None -> name
          in
          Trace.Metrics.observe
            (Printf.sprintf "cinm_driver_%s_seconds" phase)
            dur
        end)
      f
  end

type compiled = {
  modul : Func.modul;
  backend : Backend.t;
  fallback : Pass.diag option;
      (** set when device lowering failed and the module was re-lowered
          for the CPU instead *)
}

let clone_module (m : Func.modul) =
  let m' = Func.create_module () in
  List.iter (fun f -> Func.add_func m' (Func.clone f)) m.Func.funcs;
  m'

(* The degradation path when a device lowering fails: lower the pristine
   module to scf loops for the host interpreter (cinm→scf applies to ops
   without a device target, which a fresh front-end run leaves unset). *)
let cpu_fallback_pipeline =
  [
    Torch_to_tosa.pass; Tosa_to_linalg.pass; Linalg_to_cinm.pass;
    Cinm_to_scf.pass; Canonicalize.pass;
  ]

let compile ?(verify = true) ?(fallback = true) ?config backend (m : Func.modul)
    : compiled =
  with_span ?config ("compile:" ^ Backend.to_string backend) @@ fun () ->
  match backend with
  | Backend.Host_xeon | Backend.Host_arm ->
    Pass.run_pipeline ~verify ?config (pipeline backend) m;
    { modul = m; backend; fallback = None }
  | Backend.Upmem _ | Backend.Cim _ | Backend.Hetero _ -> (
    (* device lowerings can fail on capacity/config limits; keep a pristine
       snapshot so the failed (possibly half-transformed) module can be
       abandoned and re-lowered for the CPU *)
    let snapshot = if fallback then Some (clone_module m) else None in
    match Pass.run_pipeline_result ~verify ?config (pipeline backend) m with
    | Ok () -> { modul = m; backend; fallback = None }
    | Error diag -> (
      match snapshot with
      | None -> raise (Pass.Pass_failed diag)
      | Some snap ->
        Log.warn "%s; degrading to CPU lowering" (Pass.diag_to_string diag);
        (match Pass.last_reproducer () with
        | Some r when r.Pass.diag = diag ->
          Log.warn "crash reproducer for the failed lowering: %s" r.Pass.path
        | _ -> ());
        Pass.run_pipeline ~verify ?config cpu_fallback_pipeline snap;
        { modul = snap; backend; fallback = Some diag }))

let compile_func ?verify ?fallback ?config backend (f : Func.t) : compiled =
  let m = Func.create_module () in
  Func.add_func m f;
  compile ?verify ?fallback ?config backend m

(* ----- execution ----- *)

let upmem_sim_config (c : Backend.upmem_config) =
  {
    (Usim.Config.default ~ranks:c.Backend.ranks ~dimms:c.Backend.dimms ()) with
    Usim.Config.dpus_per_dimm = c.Backend.dpus_per_dimm;
  }

(* The machine fault plan a request's config asks for: an explicit plan
   overrides the process default (CINM_FAULTS via Fault.default), which
   machines apply when the argument is omitted. *)
let machine_faults config =
  match config with Some { Config.faults = Some p; _ } -> Some (Some p) | _ -> None

(* Run an already-lowered upmem-level function on the machine simulator
   (used both by the driver and by the hand-written PrIM baselines). *)
let run_upmem_func ?(backend_name = "upmem") ?host_model ?modul ?config
    ~sim_config f args =
  let machine = Usim.Machine.create ?faults:(machine_faults config) sim_config in
  let profile = Profile.create () in
  let results, _ =
    with_span ?config ("execute:" ^ backend_name) @@ fun () ->
    Compile.run_func
      ~hooks:[ Usim.Machine.hook machine ]
      ~profile ?modul ?config f args
  in
  let stats = machine.Usim.Machine.stats in
  let host_model = Option.value host_model ~default:Cpu.Model.xeon_opt in
  let host = Cpu.Model.estimate host_model profile in
  let device_s = Usim.Stats.total_s stats in
  (* With tracing live, the report's time breakdown is *derived from the
     trace* rather than read off the stats in parallel: the machine emits
     one span per bucket increment, in increment order, so the folded
     span durations reproduce the stats fields bit for bit (asserted by
     test_trace). With tracing off, trace_pid stays 0 and the stats are
     used directly — identical values either way. *)
  let breakdown =
    let pid = machine.Usim.Machine.trace_pid in
    if pid > 0 then
      [
        ("cpu->dpu", Trace.device_total ~pid "cpu->dpu");
        ("kernel", Trace.device_total ~pid "kernel");
        ("dpu->cpu", Trace.device_total ~pid "dpu->cpu");
      ]
    else
      [
        ("cpu->dpu", stats.Usim.Stats.host_to_device_s);
        ("kernel", stats.Usim.Stats.kernel_s);
        ("dpu->cpu", stats.Usim.Stats.device_to_host_s);
      ]
  in
  (* the machine dies with this run and gathers copy out of device
     buffers, so their storage can recycle through the arena now *)
  Usim.Machine.recycle machine;
  ( results,
    {
      Report.backend = backend_name;
      total_s = host.Cpu.Model.time_s +. device_s;
      host_s = host.Cpu.Model.time_s;
      device_s;
      breakdown;
      energy_j = stats.Usim.Stats.energy_j +. host.Cpu.Model.energy_j;
      counters =
        ([
           ("launches", stats.Usim.Stats.launches);
           ("dpu_instructions", stats.Usim.Stats.dpu_instructions);
           ("dma_bytes", stats.Usim.Stats.dma_bytes);
           ("transferred_bytes", stats.Usim.Stats.transferred_bytes);
         ]
        @
        (* only surfaced under an active fault plan, keeping fault-free
           reports byte-identical to the pre-fault-model ones *)
        if stats.Usim.Stats.retries = 0 && stats.Usim.Stats.failed_dpus = 0 then
          []
        else
          [
            ("retries", stats.Usim.Stats.retries);
            ("failed_dpus", stats.Usim.Stats.failed_dpus);
          ]);
      tracks = [];
    } )

let run ?(fname = "") ?host_model ?config (compiled : compiled)
    (args : Rtval.t list) : Rtval.t list * Report.t =
  let f =
    match fname with
    | "" -> List.hd compiled.modul.Func.funcs
    | name -> Func.find_func_exn compiled.modul name
  in
  let backend_name = Backend.to_string compiled.backend in
  let run_on_host ~backend_name model =
    let results, profile =
      with_span ?config ("execute:" ^ backend_name) @@ fun () ->
      Compile.run_func ~modul:compiled.modul ?config f args
    in
    let est = Cpu.Model.estimate model profile in
    ( results,
      {
        Report.backend = backend_name;
        total_s = est.Cpu.Model.time_s;
        host_s = est.Cpu.Model.time_s;
        device_s = 0.0;
        breakdown =
          [ ("compute", est.Cpu.Model.compute_s); ("memory", est.Cpu.Model.memory_s) ];
        energy_j = est.Cpu.Model.energy_j;
        counters = [ ("ops", Profile.total_scalar_ops profile) ];
        tracks = [];
      } )
  in
  match compiled.backend with
  | _ when compiled.fallback <> None ->
    (* device lowering failed at compile time: the module holds the scf
       CPU lowering; run it on the host interpreter *)
    run_on_host
      ~backend_name:(backend_name ^ "+cpu-fallback")
      (Option.value host_model ~default:Cpu.Model.xeon_opt)
  | Backend.Host_xeon | Backend.Host_arm ->
    let model =
      match (host_model, compiled.backend) with
      | Some m, _ -> m
      | None, Backend.Host_xeon -> Cpu.Model.xeon_opt
      | None, _ -> Cpu.Model.arm_inorder
    in
    run_on_host ~backend_name model
  | Backend.Upmem c ->
    run_upmem_func ~backend_name ?host_model ~modul:compiled.modul ?config
      ~sim_config:(upmem_sim_config c) f args
  | Backend.Cim c ->
    let machine =
      Msim.Machine.create
        ?faults:(machine_faults config)
        {
          (Msim.Config.default ~tiles:c.Backend.tiles ()) with
          Msim.Config.rows = c.Backend.rows;
          cols = c.Backend.cols;
        }
    in
    let cam = Camsim.Cam_machine.create (Camsim.Cam_machine.default_config ()) in
    let profile = Profile.create () in
    let results, _ =
      with_span ?config ("execute:" ^ backend_name) @@ fun () ->
      Compile.run_func
        ~hooks:[ Msim.Machine.hook machine; Camsim.Cam_machine.hook cam ]
        ~profile ~modul:compiled.modul ?config f args
    in
    let stats = machine.Msim.Machine.stats in
    let cam_stats = cam.Camsim.Cam_machine.stats in
    (* the ARM core orchestrates the accelerator and runs everything that
       is not matmul-like (paper §4.1) *)
    let host = Cpu.Model.estimate Cpu.Model.arm_inorder profile in
    let device_s = Msim.Stats.total_s stats +. cam_stats.Camsim.Cam_machine.busy_s in
    (* trace-derived when live, stats-derived when off; see run_upmem_func *)
    let breakdown =
      let pid = machine.Msim.Machine.trace_pid in
      if pid > 0 then
        [
          ("program", Trace.device_total ~pid "program");
          ("mvm", Trace.device_total ~pid "mvm");
          ("io", Trace.device_total ~pid "io");
        ]
      else
        [
          ("program", stats.Msim.Stats.program_s);
          ("mvm", stats.Msim.Stats.compute_s);
          ("io", stats.Msim.Stats.io_s);
        ]
    in
    (* tile staging copies die with the machine; MVM results were fresh *)
    Msim.Machine.recycle machine;
    ( results,
      {
        Report.backend = backend_name;
        total_s = host.Cpu.Model.time_s +. device_s;
        host_s = host.Cpu.Model.time_s;
        device_s;
        breakdown;
        energy_j =
          stats.Msim.Stats.energy_j +. cam_stats.Camsim.Cam_machine.energy_j
          +. host.Cpu.Model.energy_j;
        counters =
          [
            ("crossbar_writes", stats.Msim.Stats.store_ops);
            ("cells_written", stats.Msim.Stats.cells_written);
            ("mvms", stats.Msim.Stats.mvms);
            ("cam_searches", cam_stats.Camsim.Cam_machine.cam_searches);
            ("rtm_reads", cam_stats.Camsim.Cam_machine.rtm_reads);
          ];
        tracks = [];
      } )
  | Backend.Hetero (u, ci) ->
    let machines =
      {
        Stream_exec.upmem =
          Usim.Machine.create ?faults:(machine_faults config) (upmem_sim_config u);
        memristor =
          Msim.Machine.create
            ?faults:(machine_faults config)
            {
              (Msim.Config.default ~tiles:ci.Backend.tiles ()) with
              Msim.Config.rows = ci.Backend.rows;
              cols = ci.Backend.cols;
            };
        cam = Camsim.Cam_machine.create (Camsim.Cam_machine.default_config ());
      }
    in
    (* as on the cim path, the in-order ARM core orchestrates the
       accelerators and runs whatever the partitioner kept on the host *)
    let host_model = Option.value host_model ~default:Cpu.Model.arm_inorder in
    let host_cost p = (Cpu.Model.estimate host_model p).Cpu.Model.time_s in
    let outcome =
      with_span ?config ("execute:" ^ backend_name) @@ fun () ->
      Stream_exec.run ?config ~modul:compiled.modul ~host_cost ~machines f args
    in
    let s = outcome.Stream_exec.summary in
    let ustats = machines.Stream_exec.upmem.Usim.Machine.stats in
    let mstats = machines.Stream_exec.memristor.Msim.Machine.stats in
    let cstats = machines.Stream_exec.cam.Camsim.Cam_machine.stats in
    Usim.Machine.recycle machines.Stream_exec.upmem;
    Msim.Machine.recycle machines.Stream_exec.memristor;
    let module Sched = Cinm_support.Schedule in
    let track_busy pred =
      List.fold_left
        (fun acc (t : Sched.track) ->
          if pred t.Sched.tr_machine then
            acc +. t.Sched.tr_compute_s +. t.Sched.tr_dma_s
          else acc)
        0.0 s.Sched.tracks
    in
    let host_energy = (Cpu.Model.estimate host_model outcome.Stream_exec.profile).Cpu.Model.energy_j in
    ( outcome.Stream_exec.results,
      {
        (* e2e is the overlapped critical path: >= the busiest engine,
           <= host_s + device_s (the single-stream sum) *)
        Report.backend = backend_name;
        total_s = s.Sched.e2e_s;
        host_s = track_busy (String.equal Sched.host_machine);
        device_s = track_busy (fun m -> not (String.equal Sched.host_machine m));
        breakdown =
          [
            ("e2e_overlapped", s.Sched.e2e_s);
            ("e2e_sequential", s.Sched.seq_s);
            ("max_channel_busy", s.Sched.max_channel_busy_s);
          ]
          @ List.concat_map
              (fun (t : Sched.track) ->
                [
                  (t.Sched.tr_machine ^ ".compute", t.Sched.tr_compute_s);
                  (t.Sched.tr_machine ^ ".dma", t.Sched.tr_dma_s);
                  (t.Sched.tr_machine ^ ".idle", t.Sched.tr_idle_s);
                ])
              s.Sched.tracks;
        energy_j =
          Usim.Stats.(ustats.energy_j)
          +. mstats.Msim.Stats.energy_j
          +. cstats.Camsim.Cam_machine.energy_j +. host_energy;
        counters =
          [
            ("launches", ustats.Usim.Stats.launches);
            ("dma_bytes", ustats.Usim.Stats.dma_bytes);
            ("transferred_bytes", ustats.Usim.Stats.transferred_bytes);
            ("mvms", mstats.Msim.Stats.mvms);
            ("cells_written", mstats.Msim.Stats.cells_written);
            ("cam_searches", cstats.Camsim.Cam_machine.cam_searches);
            ("rtm_reads", cstats.Camsim.Cam_machine.rtm_reads);
          ]
          @
          if ustats.Usim.Stats.retries = 0 && ustats.Usim.Stats.failed_dpus = 0
          then []
          else
            [
              ("retries", ustats.Usim.Stats.retries);
              ("failed_dpus", ustats.Usim.Stats.failed_dpus);
            ];
        tracks = s.Sched.tracks;
      } )

(* Run a compiled artifact, degrading to the host when a fault plan has
   failed more DPUs than the allocation can absorb: like a compile-time
   lowering failure, the request is re-lowered for the CPU from [source]
   (the pristine function) rather than lost. Only this typed capacity
   error is caught, so genuine kernel bugs still surface. Returns the
   artifact that produced the results, whose [fallback] says why when it
   is the degraded one. *)
let run_degrading ?verify ?fallback ?host_model ?config ~source (compiled : compiled)
    args =
  match run ?host_model ?config compiled args with
  | results, report -> (results, report, compiled)
  | exception Usim.Machine.Insufficient_capacity msg when fallback <> Some false ->
    Log.warn "%s; degrading to host execution" msg;
    let m = Func.create_module () in
    Func.add_func m (source ());
    Pass.run_pipeline ?verify ?config cpu_fallback_pipeline m;
    let diag = { Pass.pass = "execute"; op = None; message = msg } in
    let degraded = { compiled with modul = m; fallback = Some diag } in
    let results, report = run ?host_model ?config degraded args in
    (results, report, degraded)

(* Compile and run in one step (used by examples and the bench harness). *)
let compile_and_run ?verify ?fallback ?host_model ?config backend f args =
  let compiled = compile_func ?verify ?fallback ?config backend (Func.clone f) in
  let results, report, _ =
    run_degrading ?verify ?fallback ?host_model ?config
      ~source:(fun () -> Func.clone f)
      compiled args
  in
  (results, report)
