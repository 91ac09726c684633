(* Per-layer accounting for the traced run. Spans are taken in the
   benchmark's own code, around its calls into each layer's public
   functions; nothing inside lib/ is instrumented. With [enabled] off a
   span is a plain call. *)

let enabled = ref false
let sums : (string, float) Hashtbl.t = Hashtbl.create 128
let now = Unix.gettimeofday

let add name v =
  Hashtbl.replace sums name (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums name))

let set name v = Hashtbl.replace sums name v
let get name = Option.value ~default:0.0 (Hashtbl.find_opt sums name)

(* Time [f] and return its result with the elapsed milliseconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, 1e3 *. (now () -. t0))

let span name f =
  if not !enabled then f ()
  else begin
    let r, ms = timed f in
    add name ms;
    r
  end

(* Every pass that occurs in a Driver.pipeline the workloads compile. *)
let passes =
  [ "torch-to-tosa"; "tosa-to-linalg"; "linalg-to-cinm"; "cinm-target-select"; "cinm-partition";
    "cinm-ew-fusion"; "cinm-to-cam"; "cinm-to-rtm"; "cinm-to-cim"; "loop-unroll";
    "cim-assign-tiles"; "cim-to-memristor"; "licm"; "cinm-to-cnm"; "cnm-to-upmem"; "canonicalize" ]

let run_kinds = [ "upmem"; "cim"; "hetero"; "host"; "prim" ]
let compile_kinds = [ "host"; "upmem"; "cim"; "hetero" ]

(* The per-layer metrics of BENCHMARK.json, in output order, with units.
   A traced run reports every one of them; a layer the workload does not
   exercise reads 0. *)
let metrics =
  [ ("ir.parse_ms", "ms"); ("ir.print_ms", "ms"); ("ir.verify_ms", "ms");
    ("ir.ops_in", "count"); ("ir.ops_out", "count") ]
  @ List.concat_map
      (fun p -> [ ("transforms." ^ p ^ "_ms", "ms"); ("transforms." ^ p ^ ".ops_after", "count") ])
      passes
  @ [ ("transforms.partition_plan_ms", "ms");
      ("interp.host_run_ms", "ms"); ("interp.codegen_ms", "ms");
      ("interp.ns_per_dpu_instr", "ns"); ("interp.distrib_scatter_ms", "ms");
      ("interp.distrib_gather_ms", "ms"); ("interp.minor_words_per_unit", "words");
      ("upmem_sim.run_ms", "ms"); ("upmem_sim.dpu_instructions", "count");
      ("upmem_sim.dma_bytes", "bytes"); ("upmem_sim.transferred_bytes", "bytes");
      ("upmem_sim.launches", "count"); ("upmem_sim.retries", "count");
      ("upmem_sim.failed_dpus", "count");
      ("memristor_sim.run_ms", "ms"); ("memristor_sim.mvms", "count");
      ("memristor_sim.cells_written", "count"); ("cam_sim.searches", "count");
      ("cpu_sim.ops", "count") ]
  @ List.map (fun k -> ("core.run_ms." ^ k, "ms")) run_kinds
  @ List.map (fun k -> ("core.compile_ms." ^ k, "ms")) compile_kinds
  @ [ ("benchmarks.check_ms", "ms"); ("benchmarks.reference_ms", "ms");
      ("serve.queue_wait_ms.p50", "ms"); ("serve.queue_wait_ms.p95", "ms");
      ("serve.execute_ms.p50", "ms"); ("serve.compile_ms.p50", "ms");
      ("serve.codegen_ms.p50", "ms"); ("serve.transport_ms.mean", "ms");
      ("serve.inline_rtt_ms.p50", "ms"); ("serve.pipeline_cache_hit_ratio", "ratio");
      ("serve.code_cache_hit_ratio", "ratio"); ("serve.degraded_ratio", "ratio");
      ("trace.overhead_pct", "%") ]
