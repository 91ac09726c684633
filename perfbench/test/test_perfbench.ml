(* Tests for the benchmark's own helpers: the tail-percentile rule, the
   geomean, seeded determinism of everything a seed names, digest
   stability against the committed pins, and the host reference. *)

open Perfbench_lib
open Cinm_interp

let () = Cinm_dialects.Registry.ensure_all ()
let floats = Alcotest.(list (float 0.0))

(* ----- statistics ----- *)

let test_quantiles () =
  (* the inclusive method of Python's statistics.quantiles *)
  Alcotest.(check (float 1e-12)) "median even" 2.5 (Pstats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check (float 1e-12)) "median odd" 3.0 (Pstats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.(check (float 1e-12)) "q1" 1.75 (Pstats.quantile [ 1.0; 2.0; 3.0; 4.0 ] 0.25)

let test_tail_rule () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  (match Pstats.tail xs with
  | Some t ->
    (* p99 .. p95 leave fewer than 10 samples beyond; p90 leaves 10 *)
    Alcotest.(check (float 0.0)) "pct" 90.0 t.Pstats.pct;
    Alcotest.(check (float 0.0)) "value" 90.0 t.Pstats.value;
    Alcotest.(check int) "beyond" 10 t.Pstats.beyond;
    Alcotest.(check int) "samples" 100 t.Pstats.samples
  | None -> Alcotest.fail "100 samples have a tail");
  let xs = List.init 1000 (fun i -> float_of_int i) in
  (match Pstats.tail xs with
  | Some t -> Alcotest.(check (float 0.0)) "1000 samples read p99" 99.0 t.Pstats.pct
  | None -> Alcotest.fail "1000 samples have a tail");
  Alcotest.(check bool) "too few samples" true (Pstats.tail (List.init 19 float_of_int) = None);
  (* ties: nothing is strictly beyond a constant sample *)
  Alcotest.(check bool) "constant" true (Pstats.tail (List.init 500 (fun _ -> 1.0)) = None)

let test_geomean () =
  Alcotest.(check (float 1e-12)) "1,4,16" 4.0 (Pstats.geomean [ 1.0; 4.0; 16.0 ]);
  Alcotest.(check (float 1e-12)) "single" 7.5 (Pstats.geomean [ 7.5 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Pstats.geomean: no samples") (fun () ->
      ignore (Pstats.geomean []));
  Alcotest.check_raises "zero" (Invalid_argument "Pstats.geomean: non-positive sample") (fun () ->
      ignore (Pstats.geomean [ 1.0; 0.0 ]))

(* ----- seeded determinism ----- *)

let test_rng_pinned () =
  (* SplitMix64 from seed 0: the reference stream's first outputs *)
  let r = Srng.make 0 in
  let a = Srng.next64 r in
  let b = Srng.next64 r in
  Alcotest.(check string) "first" "e220a8397b1dcdaf" (Printf.sprintf "%016Lx" a);
  Alcotest.(check string) "second" "6e789e6aa1b965f4" (Printf.sprintf "%016Lx" b)

let test_unit_order () =
  let order seed = Srng.shuffle (Srng.make seed) (Array.init 129 Fun.id) in
  Alcotest.(check (array int)) "same seed" (order 7) (order 7);
  Alcotest.(check bool) "other seed" false (order 7 = order 8);
  let sorted = Array.copy (order 7) in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "a permutation" (Array.init 129 Fun.id) sorted

let test_arrivals () =
  let sched seed = Srng.poisson_schedule (Srng.make seed) ~rate:20.0 ~seconds:20.0 in
  Alcotest.check floats "same seed" (sched 3) (sched 3);
  Alcotest.(check int) "expected count" 400 (List.length (sched 3));
  Alcotest.(check bool) "sorted, inside the window" true
    (List.sort compare (sched 3) = sched 3 && List.for_all (fun t -> t >= 0.0 && t < 20.0) (sched 3));
  let reqs seed = Serve_open.requests (Srng.make seed) ~seconds:20.0 in
  Alcotest.(check bool) "same request stream" true (reqs 3 = reqs 3);
  let faulted = Array.fold_left (fun n r -> if r.Serve_open.faults <> None then n + 1 else n) 0 (reqs 3) in
  (* two per block of 20 keys *)
  Alcotest.(check int) "1 in 10 carries a fault plan" (Array.length (reqs 3) / 10) faulted

let test_module_stream () =
  (* the first round of a compile-stream run: seeded order over the
     (pool module, backend) units, printed *)
  let names = Array.of_list (Units.pool_names ()) in
  let nb = List.length Units.stream_backends in
  let stream seed =
    Srng.shuffle (Srng.make seed) (Array.init (Array.length names * nb) Fun.id)
    |> Array.to_list
    |> List.filteri (fun i _ -> i < 24)
    |> List.map (fun u ->
           Units.pool_text names.(u / nb) ^ "\n// backend " ^ fst (List.nth Units.stream_backends (u mod nb)))
    |> String.concat "\n"
  in
  Alcotest.(check string) "byte-identical" (stream 5) (stream 5)

(* ----- digests ----- *)

let test_digest_stable () =
  (* md5 of "ti32:2:2[" ^ four int64le ^ "]i5;" *)
  let t = Tensor.of_int_array [| 2; 2 |] [| 1; -2; 3; 4 |] in
  Alcotest.(check string) "int tensor" "691bf97ec03423a2eaeadfc184325fd1"
    (Pdigest.values [ Rtval.Tensor t; Rtval.Int 5 ]);
  let f = Tensor.of_float_array [| 3 |] [| 0.5; -0.0; 1e300 |] in
  Alcotest.(check string) "same value, same digest" (Pdigest.values [ Rtval.Tensor f ])
    (Pdigest.values [ Rtval.Tensor (Tensor.copy f) ]);
  Alcotest.(check bool) "-0.0 differs from 0.0" false
    (Pdigest.values [ Rtval.Float 0.0 ] = Pdigest.values [ Rtval.Float (-0.0) ])

let pins () =
  let ic = open_in "../pins.txt" in
  let rec go acc =
    match input_line ic with
    | line -> (
      match String.split_on_char ' ' line with [ k; d ] -> go ((k, d) :: acc) | _ -> go acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_pool_pins () =
  (* every compile-stream pool module still prints to its pinned digest *)
  let pool = List.filter (fun (k, _) -> String.length k > 5 && String.sub k 0 5 = "pool:") (pins ()) in
  Alcotest.(check int) "one pin per pool module" (List.length (Units.pool_names ())) (List.length pool);
  List.iter
    (fun (k, d) ->
      let name = String.sub k 5 (String.length k - 5) in
      Alcotest.(check string) name d (Pdigest.text (Units.pool_text name)))
    pool

(* ----- host reference ----- *)

let test_host_factor () =
  let nominal = 2.0 in
  let t = Hostref.create ~nominal ~exponent:1.0 () in
  (* slow (3x) for the first 40 s, nominal for the next 40 *)
  t.Hostref.samples <-
    List.rev (List.init 80 (fun i -> (float_of_int i, if i < 40 then 3.0 *. nominal else nominal)));
  Alcotest.(check (float 1e-12)) "median over nominal" 2.0 (Hostref.factor t);
  let local = Hostref.local t in
  Alcotest.(check (float 1e-12)) "slow spell" 3.0 (local 5.0);
  Alcotest.(check (float 1e-12)) "nominal spell" 1.0 (local 70.0);
  Alcotest.(check (float 1e-12)) "before the first sample" 3.0 (local (-10.0));
  Alcotest.(check (float 1e-12)) "after the last sample" 1.0 (local 1000.0);
  let t2 = Hostref.create ~nominal ~exponent:2.0 () in
  t2.Hostref.samples <- t.Hostref.samples;
  Alcotest.(check (float 1e-12)) "exponent" 9.0 (Hostref.local t2 5.0)

let test_service () =
  (* the reference service answers every sample and stops cleanly *)
  let t = Hostref.create ~nominal:Hostref.service_nominal_ms ~exponent:1.0 ()
  and svc = Hostref.start_service () in
  for _ = 1 to 3 do
    Hostref.sample_service t svc
  done;
  Hostref.stop_service svc;
  Alcotest.(check int) "samples" 3 (Hostref.samples t);
  Alcotest.(check bool) "positive" true (Hostref.factor t > 0.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [ Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "geomean" `Quick test_geomean ] );
      ( "seeds",
        [ Alcotest.test_case "rng pinned" `Quick test_rng_pinned;
          Alcotest.test_case "unit order" `Quick test_unit_order;
          Alcotest.test_case "arrival schedule" `Quick test_arrivals;
          Alcotest.test_case "module stream" `Quick test_module_stream ] );
      ( "digests",
        [ Alcotest.test_case "stable" `Quick test_digest_stable;
          Alcotest.test_case "pool pins" `Quick test_pool_pins ] );
      ( "hostref",
        [ Alcotest.test_case "factor" `Quick test_host_factor;
          Alcotest.test_case "service" `Quick test_service ] );
    ]
