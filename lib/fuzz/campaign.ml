open Cinm_ir
module Reduce = Cinm_reduce_lib.Reduce
module Log = Cinm_support.Log

type shrink_record = {
  seed : int;
  axis : string;
  detail : string;
  ops_before : int;
  ops_after : int;
  repro_path : string option;
}

type summary = {
  seeds_run : int;
  mismatch_seeds : int;
  shrinks : shrink_record list;
}

(* O_EXCL-create "<stem>.mlir" (or "<stem>-2.mlir", ...) under [dir]:
   atomic against concurrent campaign processes sharing one corpus. *)
let create_fresh ~dir ~stem =
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  let rec go n =
    if n > 64 then None
    else
      let name =
        if n = 1 then stem ^ ".mlir" else Printf.sprintf "%s-%d.mlir" stem n
      in
      let path = Filename.concat dir name in
      match open_out_gen [ Open_wronly; Open_creat; Open_excl ] 0o644 path with
      | oc -> Some (path, oc)
      | exception Sys_error _ -> go (n + 1)
  in
  go 1

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let append_triage ~dir line =
  try
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644
        (Filename.concat dir "triage.log")
    in
    output_string oc (line ^ "\n");
    close_out oc
  with Sys_error _ -> ()

let fuzz_seed_of_text text =
  let prefix = "// fuzz-seed:" in
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         let l = String.trim l in
         if String.starts_with ~prefix l then
           int_of_string_opt
             (String.trim
                (String.sub l (String.length prefix)
                   (String.length l - String.length prefix)))
         else None)

let shrink_and_record ?(inject = false) ?jobs_alt ?(max_rounds = 12) ~corpus_dir
    ~seed ~axis ~detail m =
  (* the reducer re-prints candidates, so any pass-crash reproducer its
     predicate runs produce would name this seed *)
  Pass.set_fuzz_seed (Some seed);
  Fun.protect
    ~finally:(fun () -> Pass.set_fuzz_seed None)
    (fun () ->
      let interesting c =
        match Verifier.verify_module c with
        | [] ->
          let r =
            Oracle.check_axis ~inject ?jobs_alt ~axis ~seed
              (Printer.module_to_string c)
          in
          Log.debug "shrink candidate (%d ops): oracle %s" (Pass.count_ops c)
            (match r with Some m -> "MISMATCH " ^ m.Oracle.detail | None -> "agrees");
          r <> None
        | e :: _ ->
          Log.debug "shrink candidate rejected by verifier: %s"
            (Verifier.error_to_string e);
          false
      in
      let reduced, stats = Reduce.reduce ~max_rounds ~interesting m in
      let repro_path =
        match corpus_dir with
        | None -> None
        | Some dir -> (
          match create_fresh ~dir ~stem:(Printf.sprintf "fuzz-seed%d-%s" seed axis) with
          | None ->
            Log.warn "fuzz: no creatable reproducer name for seed %d in %s" seed dir;
            None
          | Some (path, oc) ->
            output_string oc (Printf.sprintf "// cinm-fuzz --seed-range %d..%d\n" seed (seed + 1));
            output_string oc (Printf.sprintf "// fuzz-seed: %d\n" seed);
            output_string oc (Printf.sprintf "// axis: %s\n" axis);
            output_string oc (Printf.sprintf "// detail: %s\n" (one_line detail));
            let body = Printer.module_to_string reduced in
            output_string oc body;
            if body = "" || body.[String.length body - 1] <> '\n' then
              output_char oc '\n';
            close_out oc;
            Some path)
      in
      let rec_ =
        {
          seed;
          axis;
          detail;
          ops_before = stats.Reduce.ops_before;
          ops_after = stats.Reduce.ops_after;
          repro_path;
        }
      in
      (match corpus_dir with
      | Some dir ->
        append_triage ~dir
          (Printf.sprintf "seed=%d axis=%s ops=%d->%d (%.0f%% shrunk) repro=%s detail=%s"
             seed axis rec_.ops_before rec_.ops_after
             (100.
             *. float_of_int (rec_.ops_before - rec_.ops_after)
             /. float_of_int (max 1 rec_.ops_before))
             (Option.value repro_path ~default:"-")
             (one_line detail))
      | None -> ());
      rec_)

let module_of_seed seed = Gen.generate ~updates:true ~seed ()

let grammar_header = "// grammar: updates"

let has_line text line =
  List.exists (fun l -> String.trim l = line) (String.split_on_char '\n' text)

(* fixtures recorded before the update-loop grammar carry no grammar
   header and stay what the default grammar generates *)
let fixture_module_of_seed ~text seed =
  if has_line text grammar_header then module_of_seed seed
  else Gen.generate ~seed ()

let run_range ?(inject = false) ?jobs_alt ?(corpus_dir = None)
    ?(progress = fun _ _ -> ()) ~first ~last () =
  let shrinks = ref [] in
  let mismatch_seeds = ref 0 in
  for seed = first to last - 1 do
    Pass.set_fuzz_seed (Some seed);
    let m = module_of_seed seed in
    let text = Printer.module_to_string m in
    Pass.set_fuzz_seed None;
    (match Oracle.check_seed ~inject ?jobs_alt ~seed text with
    | [] -> ()
    | { Oracle.axis; detail } :: _ as all ->
      incr mismatch_seeds;
      let r =
        shrink_and_record ~inject ?jobs_alt ~corpus_dir ~seed ~axis ~detail m
      in
      shrinks := r :: !shrinks;
      (* mismatches past the first are triaged but not shrunk: one
         reproducer per seed keeps the corpus readable *)
      (match corpus_dir with
      | Some dir ->
        List.iteri
          (fun i { Oracle.axis; detail } ->
            if i > 0 then
              append_triage ~dir
                (Printf.sprintf "seed=%d axis=%s (unshrunk) detail=%s" seed axis
                   (one_line detail)))
          all
      | None -> ()));
    progress seed !mismatch_seeds
  done;
  { seeds_run = last - first; mismatch_seeds = !mismatch_seeds; shrinks = List.rev !shrinks }
