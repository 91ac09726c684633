(* Tests for the differential fuzzing harness: generator determinism
   (byte-identical at any jobs setting), verifier validity by
   construction, grammar coverage, the oracle matrix on the committed
   regression corpus, and the fuzz-seed reproducer header round-trip. *)

open Cinm_ir
module Fuzz = Cinm_fuzz_lib
module Pool = Cinm_support.Pool

let () = Cinm_dialects.Registry.ensure_all ()

(* the campaign's grammar (loops may update their carried tensor) *)
let gen_text seed = Printer.module_to_string (Fuzz.Campaign.module_of_seed seed)

(* the default grammar: perfbench's compile-stream pool, --demo-shrink
   and the fixtures recorded before the update loops *)
let default_text seed = Printer.module_to_string (Fuzz.Gen.generate ~seed ())

let grammars = [ ("campaign", gen_text); ("default", default_text) ]

let with_jobs j f =
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      Pool.set_default_jobs j;
      f ())

(* ----- determinism ----- *)

let test_deterministic () =
  (* same seed, same bytes — across repeated calls and jobs settings *)
  List.iter
    (fun (g, text) ->
      List.iter
        (fun seed ->
          let a = text seed in
          let b = text seed in
          Alcotest.(check string) (Printf.sprintf "%s seed %d repeat" g seed) a b;
          let c = with_jobs 1 (fun () -> text seed) in
          let d = with_jobs 4 (fun () -> text seed) in
          Alcotest.(check string) (Printf.sprintf "%s seed %d jobs=1" g seed) a c;
          Alcotest.(check string) (Printf.sprintf "%s seed %d jobs=4" g seed) a d)
        [ 0; 1; 7; 42; 199 ];
      (* different seeds diverge (SplitMix64 streams are independent) *)
      Alcotest.(check bool) (g ^ " seeds 0 and 1 differ") true (text 0 <> text 1))
    grammars

let test_args_deterministic () =
  let m = Fuzz.Campaign.module_of_seed 11 in
  let f = List.hd m.Func.funcs in
  let a = Fuzz.Gen.arg_values ~seed:11 f in
  let b = Fuzz.Gen.arg_values ~seed:11 f in
  Alcotest.(check (list string))
    "argument synthesis is seed-pure"
    (List.map Cinm_interp.Rtval.to_string a)
    (List.map Cinm_interp.Rtval.to_string b)

(* ----- validity ----- *)

let n_validity = 500

let test_valid_by_construction () =
  List.iter
    (fun (g, generate) ->
      for seed = 0 to n_validity - 1 do
        let m = generate seed in
        (match Verifier.verify_module m with
        | [] -> ()
        | errs ->
          Alcotest.failf "%s seed %d: %d verifier error(s): %s" g seed
            (List.length errs)
            (String.concat "; " (List.map Verifier.error_to_string errs)));
        (* and the printed text parses back to a verifier-valid module *)
        let m2 = Parser.parse_module_text (Printer.module_to_string m) in
        Alcotest.(check (list string))
          (Printf.sprintf "%s seed %d round-trips clean" g seed)
          []
          (List.map Verifier.error_to_string (Verifier.verify_module m2))
      done)
    [
      ("campaign", Fuzz.Campaign.module_of_seed);
      ("default", fun seed -> Fuzz.Gen.generate ~seed ());
    ]

(* ----- distribution sanity ----- *)

let test_distribution () =
  (* over a few hundred seeds the generator must actually exercise the
     surface it claims: every grammar op appears somewhere, and the
     dtype mix covers ints, narrow ints and floats *)
  let texts = List.init 300 gen_text in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then false
      else if String.sub hay i nn = needle then true
      else go (i + 1)
    in
    go 0
  in
  let seen op = List.exists (fun t -> contains t op) texts in
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Printf.sprintf "grammar op %s appears in 300 seeds" op)
        true (seen op))
    Fuzz.Gen.grammar;
  List.iter
    (fun dt ->
      Alcotest.(check bool)
        (Printf.sprintf "dtype %s appears in 300 seeds" dt)
        true (seen dt))
    [ "i8"; "i16"; "i32"; "f32"; "f64" ]

(* ----- the committed regression corpus ----- *)

let corpus_files () =
  Sys.readdir "fixtures/fuzz" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mlir")
  |> List.sort compare
  |> List.map (Filename.concat "fixtures/fuzz")

let test_corpus_headers () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun path ->
      let text = In_channel.with_open_text path In_channel.input_all in
      match Fuzz.Campaign.fuzz_seed_of_text text with
      | None -> Alcotest.failf "%s: no // fuzz-seed: header" path
      | Some seed ->
        (* the corpus file is exactly what its seed generates today in
           the file's grammar: the historic fixtures stay the default
           grammar's modules that found their bugs *)
        let m = Parser.parse_module_text text in
        Alcotest.(check string)
          (Printf.sprintf "%s matches its seed %d" path seed)
          (Printer.module_to_string (Fuzz.Campaign.fixture_module_of_seed ~text seed))
          (Printer.module_to_string m))
    files

let test_grammar_header () =
  (* a fixture pasted from --dump-seed carries the grammar header and
     regenerates with the campaign grammar; one without it does not *)
  let seed = 3 in
  let dumped = Fuzz.Campaign.grammar_header ^ "\n" ^ gen_text seed in
  let regen text =
    Printer.module_to_string (Fuzz.Campaign.fixture_module_of_seed ~text seed)
  in
  Alcotest.(check string) "header -> campaign grammar" (gen_text seed) (regen dumped);
  Alcotest.(check string) "no header -> default grammar" (default_text seed)
    (regen (default_text seed));
  Alcotest.(check string) "dumped text parses to the module" (gen_text seed)
    (Printer.module_to_string (Parser.parse_module_text dumped))

let test_corpus_oracle () =
  (* every historic bug-finding seed must stay green through the full
     differential matrix — this is the regression suite the fuzzer won *)
  List.iter
    (fun path ->
      let text = In_channel.with_open_text path In_channel.input_all in
      let seed = Option.get (Fuzz.Campaign.fuzz_seed_of_text text) in
      match Fuzz.Oracle.check_seed ~seed text with
      | [] -> ()
      | ms ->
        Alcotest.failf "%s: %s" path
          (String.concat "; "
             (List.map
                (fun (m : Fuzz.Oracle.mismatch) ->
                  m.Fuzz.Oracle.axis ^ ": " ^ m.Fuzz.Oracle.detail)
                ms)))
    (corpus_files ())

let () =
  Alcotest.run "fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "seed-deterministic at any jobs" `Quick
            test_deterministic;
          Alcotest.test_case "argument synthesis seed-pure" `Quick
            test_args_deterministic;
          Alcotest.test_case
            (Printf.sprintf "%d modules verifier-valid" n_validity)
            `Slow test_valid_by_construction;
          Alcotest.test_case "grammar and dtype coverage" `Slow
            test_distribution;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "fixtures carry fuzz-seed headers" `Quick
            test_corpus_headers;
          Alcotest.test_case "grammar header selects the generator" `Quick
            test_grammar_header;
          Alcotest.test_case "historic seeds green on the full matrix" `Slow
            test_corpus_oracle;
        ] );
    ]
