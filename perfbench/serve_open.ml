(* serve-open: an open-loop generator against a `cinm_serve --jobs 1`
   child. One sender thread writes requests at their seeded Poisson send
   times; one reader thread collects responses from both connections
   (runs on one, health pings on the other) and matches them by id.
   Latency runs from each request's scheduled send time, so a stalled
   daemon or a late generator shows up in every request queued behind it. *)

module Json = Cinm_serve_lib.Json
module Client = Cinm_serve_lib.Client

let now = Unix.gettimeofday

(* Arrival rate and the latency limit goodput is counted against. The
   mix's one-worker capacity measured ~40-50 req/s on a quiet 2-vCPU VM;
   10 req/s keeps the daemon busy ~20-40% of the time as the host's speed
   drifts, because queueing multiplies every slowdown of the worker. *)
let rate_per_s = 10.0
let latency_limit_ms = 250.0
let ping_interval_s = 0.25

let daemon_exe () =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/cinm_serve.exe"

let run_dir = ".perfbench_run"

type daemon = { pid : int; sock : string; mutable alive : bool }

let reap ?(timeout_s = 10.0) d =
  if d.alive then begin
    let t0 = now () in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when now () -. t0 < timeout_s ->
        Unix.sleepf 0.005;
        wait ()
      | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ();
    d.alive <- false;
    (try Sys.remove d.sock with Sys_error _ -> ())
  end

(* Every daemon this process started, so an exit on any path stops them. *)
let live : daemon list ref = ref []

let kill_all () =
  List.iter
    (fun d ->
      if d.alive then begin
        (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
        reap d
      end)
    !live

let spawn ~sock =
  let exe = daemon_exe () in
  if not (Sys.file_exists exe) then failwith ("daemon executable not built: " ^ exe);
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [| exe; "--socket"; sock; "--jobs"; "1"; "--interp"; "compiled"; "--cache-capacity";
       string_of_int Units.serve_cache_capacity; "--warm" |]
  in
  let pid = Unix.create_process exe args devnull devnull Unix.stderr in
  Unix.close devnull;
  let d = { pid; sock; alive = true } in
  live := d :: !live;
  d

let expect_ok what (r : Json.t) =
  if Json.bool_field r "ok" <> Some true then
    failwith (Printf.sprintf "%s failed: %s" what (Json.to_string r))

(* Start a daemon and time exec -> first health reply. Readiness is
   polled by one-attempt connects at sub-millisecond spacing, so the
   figure is not quantized by Client.connect's 50 ms retry. *)
let start ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let t0 = now () in
  let d = spawn ~sock in
  let rec connect () =
    match Client.connect ~attempts:1 sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ ->
        d.alive <- false;
        failwith "daemon exited during start-up");
      if now () -. t0 > 60.0 then failwith "daemon not ready after 60 s";
      Unix.sleepf 0.0005;
      connect ()
  in
  let c = connect () in
  let r = Client.request c (Client.make_request "health") in
  let setup_s = now () -. t0 in
  expect_ok "health" r;
  (d, c, setup_s)

let shutdown d c =
  (try ignore (Client.request c (Client.make_request "shutdown")) with _ -> ());
  Client.close c;
  reap d

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ----- the request stream ----- *)

type req = { key : int; faults : string option; at : float  (** scheduled send, s from start *) }

let keys = Array.of_list Units.serve_mix
let faultable k = let _, be, _ = keys.(k) in be = "upmem" || be = "hetero"

(* Seeded arrivals over [seconds]. Keys come in blocks that hold every
   key once in shuffled order, so every seed sends the same mix; in each
   block two device requests (1 in 10 overall) carry a seeded dpu_fail
   plan, which drives the retry/remap path. *)
let requests rng ~seconds =
  let times = Array.of_list (Srng.poisson_schedule rng ~rate:rate_per_s ~seconds) in
  let nk = Array.length keys in
  let block () =
    let order = Srng.shuffle rng (Array.init nk Fun.id) in
    let faulted = ref 0 in
    Array.map
      (fun k ->
        let faults =
          if faultable k && !faulted < 2 then begin
            incr faulted;
            Some (Printf.sprintf "dpu_fail=0.1,seed=%d" (Srng.int rng 1_000_000))
          end
          else None
        in
        (k, faults))
      order
  in
  let cur = ref [||] and pos = ref nk in
  Array.map
    (fun at ->
      if !pos >= nk then begin
        cur := block ();
        pos := 0
      end;
      let k, faults = !cur.(!pos) in
      incr pos;
      { key = k; faults; at })
    times

(* In a traced run the first block of [Array.length keys] requests warms
   the daemon up, then blocks alternate between traced and untraced, so
   the tracing overhead is read from requests sent side by side. *)
let block i = i / Array.length keys
let traced ~trace i = trace && block i mod 2 = 1
let untraced ~trace i = not (traced ~trace i) && not (trace && block i = 0)

let request_line ~id ~trace (r : req) =
  let b, be, strict = keys.(r.key) in
  Json.to_string
    (Client.make_request ~id ~benchmark:b ~backend:be ~strict ~check:true ?faults:r.faults ~trace "run")

(* ----- raw pipelined connections ----- *)

let connect_raw sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

type reply = { recv : float; ok : bool; degraded : bool; sim_s : float; code : string }

type phase = {
  reqs : req array;
  sent : float array;  (** actual send time, absolute *)
  replies : reply option array;
  pings : float list;  (** health round trips, ms *)
  t0 : float;
  elapsed : float;
}

(* Send [reqs] open-loop and collect every reply (or give up after
   [drain_s] past the last send). A third thread samples the reference
   service [svc] into [href] until the last reply. *)
let run_phase ~sock ~href ~svc ~trace ~drain_s (reqs : req array) =
  let fd_run = connect_raw sock and fd_ping = connect_raw sock in
  let n = Array.length reqs in
  let sent = Array.make n 0.0 and replies = Array.make n None in
  let horizon = if n = 0 then 0.0 else reqs.(n - 1).at in
  let nping = int_of_float (horizon /. ping_interval_s) in
  let ping_sent = Array.make nping 0.0 and ping_ms = ref [] in
  let t0 = now () +. 0.01 in
  let received = ref 0 and pings_received = ref 0 in
  let m = Mutex.create () in
  let sender () =
    (* merge run requests and health pings by due time *)
    let i = ref 0 and p = ref 0 in
    while !i < n || !p < nping do
      let next_req = if !i < n then reqs.(!i).at else infinity in
      let next_ping = if !p < nping then float_of_int (!p + 1) *. ping_interval_s else infinity in
      let due = t0 +. Float.min next_req next_ping in
      let d = due -. now () in
      if d > 0.0 then Unix.sleepf d;
      if next_req <= next_ping then begin
        let line =
          request_line ~id:(Printf.sprintf "r%d" !i) ~trace:(traced ~trace !i) reqs.(!i) ^ "\n"
        in
        sent.(!i) <- now ();
        write_all fd_run line;
        incr i
      end
      else begin
        ping_sent.(!p) <- now ();
        write_all fd_ping (Printf.sprintf "{\"op\":\"health\",\"id\":\"h%d\"}\n" !p);
        incr p
      end
    done
  in
  let handle line =
    let t = now () in
    let j = Json.parse line in
    match Json.string_field j "id" with
    | Some id when String.length id > 1 && id.[0] = 'r' ->
      let i = int_of_string (String.sub id 1 (String.length id - 1)) in
      let code =
        match Json.member "error" j with
        | Some e -> Option.value ~default:"error" (Json.string_field e "code")
        | None -> if Json.bool_field j "ok" = Some true then "ok" else "error"
      in
      Mutex.lock m;
      replies.(i) <-
        Some
          { recv = t; ok = Json.bool_field j "ok" = Some true;
            degraded = Json.bool_field j "degraded" = Some true;
            sim_s = Option.value ~default:nan (Json.float_field j "sim_total_s"); code };
      incr received;
      Mutex.unlock m
    | Some id when String.length id > 1 && id.[0] = 'h' ->
      let k = int_of_string (String.sub id 1 (String.length id - 1)) in
      Mutex.lock m;
      ping_ms := (1e3 *. (t -. ping_sent.(k))) :: !ping_ms;
      incr pings_received;
      Mutex.unlock m
    | _ -> ()
  in
  let reader () =
    let bufs = [ (fd_run, Buffer.create 65536); (fd_ping, Buffer.create 1024) ] in
    let chunk = Bytes.create 65536 in
    let finished () =
      Mutex.lock m;
      let r = !received >= n && !pings_received >= nping in
      Mutex.unlock m;
      r
    in
    let give_up = t0 +. horizon +. drain_s in
    let closed = ref false in
    while (not (finished ())) && (not !closed) && now () < give_up do
      match Unix.select [ fd_run; fd_ping ] [] [] 0.05 with
      | ready, _, _ ->
        List.iter
          (fun fd ->
            let buf = List.assq fd bufs in
            let k = Unix.read fd chunk 0 (Bytes.length chunk) in
            if k = 0 then closed := true
            else begin
              Buffer.add_subbytes buf chunk 0 k;
              let s = Buffer.contents buf in
              let lines = String.split_on_char '\n' s in
              let rec consume = function
                | [ rest ] ->
                  Buffer.clear buf;
                  Buffer.add_string buf rest
                | line :: tl ->
                  if line <> "" then handle line;
                  consume tl
                | [] -> ()
              in
              consume lines
            end)
          ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  let done_ = Atomic.make false in
  let sampler () =
    while not (Atomic.get done_) do
      Thread.delay Hostref.interval_s;
      Hostref.sample_service href svc
    done
  in
  let ts = Thread.create sender () and tr = Thread.create reader () and th = Thread.create sampler () in
  Thread.join ts;
  Thread.join tr;
  Atomic.set done_ true;
  Thread.join th;
  Unix.close fd_run;
  Unix.close fd_ping;
  let last =
    Array.fold_left (fun acc r -> match r with Some r -> Float.max acc r.recv | None -> acc) t0 replies
  in
  { reqs; sent; replies; pings = !ping_ms; t0; elapsed = Float.max (last -. t0) horizon }

(* Latency of request [i] from its scheduled send time, ms. *)
let latency_ms ph i =
  match ph.replies.(i) with Some r -> Some (1e3 *. (r.recv -. (ph.t0 +. ph.reqs.(i).at))) | None -> None

(* A reply checks out when it is ok and, on a fault-free request, not
   degraded and carrying the simulated time the library computes for the
   same key in-process. *)
let checks_out ~expected_sim ph i =
  match ph.replies.(i) with
  | Some r when r.ok ->
    ph.reqs.(i).faults <> None || ((not r.degraded) && r.sim_s = expected_sim.(ph.reqs.(i).key))
  | _ -> false

(* A structured error reply is a failed operation; a missing reply or an
   ok reply that does not check out is a wrong one. *)
let is_error ph i = match ph.replies.(i) with Some r -> not r.ok | None -> false

let report_failures ~expected_sim ph =
  Array.iteri
    (fun i (r : req) ->
      if not (checks_out ~expected_sim ph i) then
        let b, be, strict = keys.(r.key) in
        match ph.replies.(i) with
        | None -> Printf.eprintf "serve-open: r%d %s/%s strict=%b: no reply\n" i b be strict
        | Some rep ->
          Printf.eprintf "serve-open: r%d %s/%s strict=%b faults=%s: code=%s degraded=%b sim=%.17g expected=%.17g\n"
            i b be strict (Option.value ~default:"-" r.faults) rep.code rep.degraded rep.sim_s
            expected_sim.(r.key))
    ph.reqs

type summary = {
  sent : int;
  raw : float list;  (** ms from the scheduled send, every reply *)
  lat : float list;  (** ... each divided by [scale] at its scheduled send *)
  good : int;  (** checked-out replies within the latency limit (raw) *)
  failed : int;  (** requests without a checked-out reply *)
  wrong : int;  (** ... of which not a structured error *)
  per_key : float list;  (** median scaled latency of each key *)
}

(* The summary of the requests [i] with [select i]; [scale t] is the host
   factor around absolute time [t]. *)
let summarize ~expected_sim ~scale ~select ph =
  let idx = List.filter select (List.init (Array.length ph.reqs) Fun.id) in
  let count p = List.length (List.filter p idx) in
  let bad i = not (checks_out ~expected_sim ph i) in
  let scaled i = Option.map (fun l -> l /. scale (ph.t0 +. ph.reqs.(i).at)) (latency_ms ph i) in
  {
    sent = List.length idx;
    raw = List.filter_map (latency_ms ph) idx;
    lat = List.filter_map scaled idx;
    good =
      count (fun i ->
          checks_out ~expected_sim ph i
          && match latency_ms ph i with Some l -> l <= latency_limit_ms | None -> false);
    failed = count bad;
    wrong = count (fun i -> bad i && not (is_error ph i));
    per_key =
      List.filter_map
        (fun k ->
          match List.filter_map (fun i -> if ph.reqs.(i).key = k then scaled i else None) idx with
          | [] -> None
          | xs -> Some (Pstats.median xs))
        (List.init (Array.length keys) Fun.id);
  }

(* Generator lag: actual minus scheduled send, ms. *)
let lag_ms ph =
  List.init (Array.length ph.reqs) (fun i -> 1e3 *. (ph.sent.(i) -. (ph.t0 +. ph.reqs.(i).at)))

(* Client e2e from the actual send, ms (for the transport estimate). *)
let client_ms ph =
  List.filter_map
    (fun i -> match ph.replies.(i) with Some r -> Some (1e3 *. (r.recv -. ph.sent.(i))) | None -> None)
    (List.init (Array.length ph.reqs) Fun.id)
