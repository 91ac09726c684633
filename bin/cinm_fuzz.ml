(* cinm-fuzz: differential fuzzing + chaos harness.

   Default mode generates one verifier-valid module per seed and runs it
   through the full differential oracle matrix (tree vs compiled
   interpreter, every device backend vs the CPU reference, jobs 1 vs N,
   strict mode, deterministic faults vs fault-free). Any mismatch is
   auto-shrunk with the cinm_reduce pipeline under a backend-differential
   predicate and lands in the corpus as a seeded reproducer plus a
   one-line triage record.

   Examples:
     cinm_fuzz --seed-range 0..200
     cinm_fuzz --seed-range 0..50 --corpus-dir fuzz-corpus
     cinm_fuzz --demo-shrink --corpus-dir fuzz-corpus
     cinm_fuzz --chaos --requests 400 --clients 8
     cinm_fuzz --chaos --socket /tmp/cinm.sock
*)

open Cmdliner
module Fuzz = Cinm_fuzz_lib

let () = Cinm_dialects.Registry.ensure_all ()

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else go (i + 1)
  in
  go 0

let parse_range s =
  match String.index_opt s '.' with
  | Some i
    when i + 1 < String.length s
         && s.[i + 1] = '.'
         && i > 0 ->
    let a = int_of_string_opt (String.sub s 0 i) in
    let b = int_of_string_opt (String.sub s (i + 2) (String.length s - i - 2)) in
    (match (a, b) with
    | Some a, Some b when b > a -> Ok (a, b)
    | _ -> Error (`Msg (Printf.sprintf "bad seed range %S (want A..B with B > A)" s)))
  | _ -> Error (`Msg (Printf.sprintf "bad seed range %S (want A..B)" s))

let campaign ~range ~corpus_dir ~jobs_alt ~inject =
  let first, last = range in
  let corpus_dir = if corpus_dir = "" then None else Some corpus_dir in
  Printf.printf "cinm-fuzz: seeds %d..%d through the oracle matrix (%s)\n%!"
    first last
    (String.concat ", " Fuzz.Oracle.axes);
  let progress seed mism =
    if (seed - first + 1) mod 25 = 0 || seed = last - 1 then
      Printf.printf "  seed %d/%d, %d mismatching seed(s)\n%!" (seed + 1) last mism
  in
  let s = Fuzz.Campaign.run_range ~inject ~jobs_alt ~corpus_dir ~progress ~first ~last () in
  List.iter
    (fun (r : Fuzz.Campaign.shrink_record) ->
      Printf.printf
        "MISMATCH seed=%d axis=%s: shrunk %d -> %d ops%s\n  detail: %s\n%!"
        r.Fuzz.Campaign.seed r.axis r.ops_before r.ops_after
        (match r.repro_path with Some p -> ", reproducer " ^ p | None -> "")
        r.detail)
    s.Fuzz.Campaign.shrinks;
  Printf.printf "cinm-fuzz: %d seeds, %d mismatching\n%!" s.Fuzz.Campaign.seeds_run
    s.Fuzz.Campaign.mismatch_seeds;
  if s.Fuzz.Campaign.mismatch_seeds = 0 then 0 else 1

(* The known-bug fixture: inject a synthetic compiled-backend bug on any
   module containing cinm.gemm, then prove the shrink pipeline takes a
   large generated module down by >= 80% and records the seed. *)
let demo_shrink ~corpus_dir =
  let corpus_dir = if corpus_dir = "" then "fuzz-corpus" else corpus_dir in
  let rec find_gemm_seed seed =
    if seed > 64 then failwith "no gemm-bearing seed in 0..64?!"
    else
      let m = Cinm_ir.Printer.module_to_string (Fuzz.Gen.generate ~ops:60 ~seed ()) in
      if contains_sub m "cinm.gemm" then (seed, m) else find_gemm_seed (seed + 1)
  in
  let seed, text = find_gemm_seed 0 in
  let m = Cinm_ir.Parser.parse_module_text text in
  match Fuzz.Oracle.check_axis ~inject:true ~axis:"compiled" ~seed text with
  | None -> Printf.printf "demo-shrink: injected bug did not trigger\n"; 1
  | Some { Fuzz.Oracle.detail; _ } ->
    let r =
      Fuzz.Campaign.shrink_and_record ~inject:true ~corpus_dir:(Some corpus_dir)
        ~seed ~axis:"compiled" ~detail m
    in
    let pct =
      100.
      *. float_of_int (r.Fuzz.Campaign.ops_before - r.ops_after)
      /. float_of_int (max 1 r.ops_before)
    in
    Printf.printf "demo-shrink: seed %d, ops %d -> %d (%.0f%% reduction), repro %s\n%!"
      seed r.ops_before r.ops_after pct
      (Option.value r.repro_path ~default:"-");
    let seed_recorded =
      match r.repro_path with
      | None -> false
      | Some p ->
        let text = In_channel.with_open_text p In_channel.input_all in
        Fuzz.Campaign.fuzz_seed_of_text text = Some seed
    in
    if pct >= 80.0 && seed_recorded then 0
    else begin
      if not seed_recorded then
        Printf.printf "demo-shrink: FAIL — seed not recorded in reproducer header\n";
      if pct < 80.0 then
        Printf.printf "demo-shrink: FAIL — only %.0f%% reduction (need >= 80%%)\n" pct;
      1
    end

let chaos ~socket ~requests ~clients ~seed =
  let socket = if socket = "" then None else Some socket in
  Printf.printf "cinm-fuzz --chaos: %d requests over %d clients (seed %d)%s\n%!"
    requests clients seed
    (match socket with Some s -> " against " ^ s | None -> ", in-process daemon");
  let r = Fuzz.Chaos.run ?socket ~requests ~clients ~seed () in
  Printf.printf
    "chaos: sent %d (%d disconnects): %d ok, %d structured errors, \
     responses_total=%d, drain %s\n%!"
    r.Fuzz.Chaos.sent r.disconnects r.ok r.errors r.counters_total
    (if r.clean_drain then "clean" else "DIRTY");
  match r.Fuzz.Chaos.violations with
  | [] ->
    Printf.printf "chaos: all protocol invariants held\n%!";
    0
  | vs ->
    List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) vs;
    Printf.printf "chaos: %d protocol-invariant violation(s)\n%!" (List.length vs);
    1

let run range_s corpus_dir jobs_alt inject demo chaos_mode socket requests
    clients seed dump_seed =
  if dump_seed >= 0 then begin
    (* triage helper: print the exact module a seed generates, so a log
       line like "seed 12: pass X failed" turns into IR on stdout *)
    print_endline Fuzz.Campaign.grammar_header;
    print_string
      (Cinm_ir.Printer.module_to_string (Fuzz.Campaign.module_of_seed dump_seed));
    0
  end
  else if demo then demo_shrink ~corpus_dir
  else if chaos_mode then chaos ~socket ~requests ~clients ~seed
  else
    match parse_range range_s with
    | Error (`Msg m) ->
      prerr_endline m;
      2
    | Ok range -> campaign ~range ~corpus_dir ~jobs_alt ~inject

let range_arg =
  Arg.(value & opt string "0..50"
       & info [ "seed-range" ] ~docv:"A..B"
           ~doc:"Seeds to fuzz, half-open: A..B runs B-A modules.")

let corpus_arg =
  Arg.(value & opt string ""
       & info [ "corpus-dir" ] ~docv:"DIR"
           ~doc:"Where shrunk reproducers and triage.log land (default: \
                 report only, write nothing).")

let jobs_alt_arg =
  Arg.(value & opt int 4
       & info [ "jobs-alt" ] ~docv:"N" ~doc:"The N of the jobs-1-vs-N oracle axis.")

let inject_arg =
  Arg.(value & flag
       & info [ "inject-bug" ]
           ~doc:"Treat any cinm.gemm-bearing module as a compiled-backend \
                 mismatch (synthetic bug for exercising the shrink path).")

let demo_arg =
  Arg.(value & flag
       & info [ "demo-shrink" ]
           ~doc:"Run the known-bug fixture: generate a large module, inject \
                 a compiled-backend bug, and require the reducer to shrink \
                 it by >= 80% with the seed recorded in the reproducer.")

let chaos_arg =
  Arg.(value & flag
       & info [ "chaos" ]
           ~doc:"Drive a live cinm_serve with a seeded hostile concurrent \
                 mix and assert the protocol invariants.")

let socket_arg =
  Arg.(value & opt string ""
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Chaos: target an external daemon instead of an in-process one.")

let requests_arg =
  Arg.(value & opt int 400 & info [ "requests" ] ~docv:"N" ~doc:"Chaos: request count.")

let clients_arg =
  Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc:"Chaos: concurrent clients.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Chaos: mix seed.")

let dump_seed_arg =
  Arg.(value & opt int (-1)
       & info [ "dump-seed" ] ~docv:"N"
           ~doc:"Print the module seed N generates and exit (triage helper).")

let cmd =
  let doc = "differential fuzzing and chaos harness for the CINM stack" in
  Cmd.v (Cmd.info "cinm_fuzz" ~doc)
    Term.(const run $ range_arg $ corpus_arg $ jobs_alt_arg $ inject_arg
          $ demo_arg $ chaos_arg $ socket_arg $ requests_arg $ clients_arg
          $ seed_arg $ dump_seed_arg)

let () = exit (Cmd.eval' cmd)
