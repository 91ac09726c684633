(* Host-speed reference. On a shared VM the same code runs up to 1.7x
   slower for minutes at a time while neighbours load the host (see
   README.md, "Noise"). A fixed kernel owned by the benchmark, sampled
   through every timed phase, measures that slowdown: [factor] is the
   kernel's slowdown (its median time over its nominal time), raised to
   [cpu_exponent], and every reported duration is divided by the factor
   around it ([local]), i.e. expressed at the nominal host speed.
   The kernel streams a 512 KiB float array (it tracked the workloads'
   slowdowns best of the kernels tried) and allocates nothing, so the
   program under test cannot change its time. *)

(* The kernel's median time on a quiet 2-vCPU VM (Intel Xeon, 2 MiB L2
   per core); it only sets the scale of the normalized figures. *)
let nominal_ms = 1.2

(* Sampling period: about 2% of the timed phase goes to the kernel. *)
let interval_s = 0.05

let data = Array.make (64 * 1024) 1.0

let kernel () =
  let s = ref 0.0 in
  for r = 1 to 8 do
    for i = 0 to Array.length data - 1 do
      s := !s +. (data.(i) *. float_of_int r)
    done
  done;
  !s

(* The in-process workloads slow more than the kernel does: over 10-s
   windows and over whole runs their log-slowdown measured 1.2-1.8 times
   the kernel's (README.md, "Noise"), so their factor is the kernel's
   slowdown to this power. *)
let cpu_exponent = 1.5

type t = {
  nominal : float;  (** the sampled kernel's nominal time, ms *)
  exponent : float;  (** factor = (time / nominal) ** exponent *)
  mutable samples : (float * float) list;  (** (time, ms), newest first *)
  mutable last : float;
}

let create ?(nominal = nominal_ms) ?(exponent = cpu_exponent) () =
  { nominal; exponent; samples = []; last = 0.0 }

let record t t0 t1 =
  t.samples <- (0.5 *. (t0 +. t1), 1e3 *. (t1 -. t0)) :: t.samples;
  t.last <- t1

let sample t =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  record t t0 (Unix.gettimeofday ())

(* Sample when the last sample is [interval_s] old; called between units. *)
let tick t = if Unix.gettimeofday () -. t.last >= interval_s then sample t

(* [k] samples back to back, for a short phase such as one set-up. *)
let burst t k =
  for _ = 1 to k do
    sample t
  done

let samples t = List.length t.samples

(* Host slowdown over all samples taken so far: 1.0 at nominal speed. *)
let factor t = (Pstats.median (List.map snd t.samples) /. t.nominal) ** t.exponent

(* Samples the local factor is the median of: about 1.5 s of them. *)
let local_k = 31

(* The host factor around each moment: [local t at] is the median of the
   [local_k] samples nearest to time [at], over the nominal time. Dividing
   each unit by the factor around it also corrects slow spells shorter
   than a run, which a per-run factor leaves in the tail. *)
let local t =
  let a = Array.of_list (List.rev t.samples) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Hostref.local: no samples";
  fun at ->
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst a.(mid) < at then lo := mid + 1 else hi := mid
    done;
    let l = ref !lo and r = ref !lo in
    while !r - !l < min local_k n do
      if !l = 0 then incr r
      else if !r = n then decr l
      else if at -. fst a.(!l - 1) <= fst a.(!r) -. at then decr l
      else incr r
    done;
    (Pstats.median (List.init (!r - !l) (fun i -> snd a.(!l + i))) /. t.nominal) ** t.exponent

(* serve-open's reference is a service with the daemon's shape, because
   the daemon suffers more than the CPU kernel shows: it runs two domains
   (event loop and worker), so every minor GC of the worker waits for the
   other domain, and every request crosses domains twice. When the host
   is loaded each of those waits pays a vCPU wake-up. The service is a
   second domain of the benchmark process, blocked in a read; a sample
   hands it a token through a pipe, it runs the CPU kernel and an
   allocation loop (short-lived blocks, minor GCs only) and hands the
   token back. *)

let service_nominal_ms = 3.0

let alloc_loop () =
  let s = ref 0 in
  for i = 1 to 400_000 do
    let r = Sys.opaque_identity (ref i) in
    s := !s + !r
  done;
  !s

type service = { req : Unix.file_descr; rep : Unix.file_descr; dom : unit Domain.t; fds : Unix.file_descr list }

let start_service () =
  let req_r, req_w = Unix.pipe () and rep_r, rep_w = Unix.pipe () in
  let dom =
    Domain.spawn (fun () ->
        let b = Bytes.create 1 in
        while Unix.read req_r b 0 1 = 1 && Bytes.get b 0 = 'r' do
          ignore (Sys.opaque_identity (kernel ()));
          ignore (Sys.opaque_identity (alloc_loop ()));
          ignore (Unix.write rep_w b 0 1)
        done)
  in
  { req = req_w; rep = rep_r; dom; fds = [ req_r; req_w; rep_r; rep_w ] }

(* One round trip through the service, recorded in [t] (created with
   [~nominal:service_nominal_ms ~exponent:1.0]: the service does the
   daemon's kind of work, and its slowdown tracked the daemon's as is). *)
let sample_service t svc =
  let b = Bytes.make 1 'r' in
  let t0 = Unix.gettimeofday () in
  ignore (Unix.write svc.req b 0 1);
  ignore (Unix.read svc.rep b 0 1);
  record t t0 (Unix.gettimeofday ())

let stop_service svc =
  ignore (Unix.write svc.req (Bytes.make 1 'q') 0 1);
  Domain.join svc.dom;
  List.iter Unix.close svc.fds
