(* Pinned unit tests for strict Tensor.equal (dtype and shape first,
   NaN-aware float comparison), for the unboxed narrow payloads'
   wrap-on-store semantics, and for the in-place update variants
   (insert_slice_into, map2_into) against their copying counterparts. *)

open Cinm_ir
open Cinm_interp
module T = Types

let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

(* ----- strict equality ----- *)

let test_equal_dtype_strict () =
  let a = Tensor.of_int_array ~dtype:T.I32 [| 4 |] [| 1; 2; 3; 4 |] in
  let b = Tensor.of_int_array ~dtype:T.I64 [| 4 |] [| 1; 2; 3; 4 |] in
  check_bool "same data, different dtype is not equal" false (Tensor.equal a b);
  check_bool "copy is equal" true (Tensor.equal a (Tensor.copy a))

let test_equal_shape_strict () =
  let a = Tensor.of_int_array [| 4 |] [| 1; 2; 3; 4 |] in
  let b = Tensor.of_int_array [| 2; 2 |] [| 1; 2; 3; 4 |] in
  check_bool "same data, different shape is not equal" false (Tensor.equal a b)

let test_equal_narrow_payloads () =
  let a = Tensor.of_int_array ~dtype:T.I8 [| 3 |] [| 1; -2; 127 |] in
  let b = Tensor.of_int_array ~dtype:T.I8 [| 3 |] [| 1; -2; 127 |] in
  check_bool "i8 payloads equal" true (Tensor.equal a b);
  let c = Tensor.of_int_array ~dtype:T.I16 [| 3 |] [| 1; -2; 127 |] in
  check_bool "i8 vs i16 with same values is not equal" false (Tensor.equal a c);
  Tensor.set_int b 1 (-3);
  check_bool "i8 payloads with one differing byte" false (Tensor.equal a b)

let test_equal_nan_aware () =
  let mk v = Tensor.of_float_array [| 3 |] [| 1.0; v; 3.0 |] in
  check_bool "NaN equals NaN positionally" true
    (Tensor.equal (mk Float.nan) (mk Float.nan));
  check_bool "NaN does not equal a number" false
    (Tensor.equal (mk Float.nan) (mk 2.0));
  check_bool "0.0 equals -0.0" true (Tensor.equal (mk 0.0) (mk (-0.0)))

(* ----- wrap-on-store of the unboxed narrow payloads ----- *)

let test_i8_wrap_pinned () =
  let t = Tensor.init ~dtype:T.I8 [| 4 |] (fun i -> 126 + i) in
  check_ints "i8 wraps at +128"
    [ 126; 127; -128; -127 ]
    (Array.to_list (Tensor.to_int_array t));
  let u = Tensor.init ~dtype:T.I8 [| 4 |] (fun i -> -126 - i) in
  check_ints "i8 wraps at -129"
    [ -126; -127; -128; 127 ]
    (Array.to_list (Tensor.to_int_array u));
  Tensor.set_int t 0 330;
  Alcotest.(check int) "i8 store 330 reads back 74" 74 (Tensor.get_int t 0);
  Tensor.set_int t 0 (-130);
  Alcotest.(check int) "i8 store -130 reads back 126" 126 (Tensor.get_int t 0)

let test_i16_wrap_pinned () =
  let t = Tensor.init ~dtype:T.I16 [| 4 |] (fun i -> 32766 + i) in
  check_ints "i16 wraps at +32768"
    [ 32766; 32767; -32768; -32767 ]
    (Array.to_list (Tensor.to_int_array t));
  Tensor.set_int t 0 40000;
  Alcotest.(check int) "i16 store 40000 reads back -25536" (-25536)
    (Tensor.get_int t 0);
  Tensor.set_int t 0 (-32769);
  Alcotest.(check int) "i16 store -32769 reads back 32767" 32767
    (Tensor.get_int t 0)

let test_wrap_function_pinned () =
  Alcotest.(check int) "wrap i8 128" (-128) (Tensor.wrap T.I8 128);
  Alcotest.(check int) "wrap i8 -129" 127 (Tensor.wrap T.I8 (-129));
  Alcotest.(check int) "wrap i16 32768" (-32768) (Tensor.wrap T.I16 32768);
  Alcotest.(check int) "wrap i32 2^31" (-2147483648) (Tensor.wrap T.I32 2147483648);
  Alcotest.(check int) "wrap i1 3" 1 (Tensor.wrap T.I1 3);
  Alcotest.(check int) "wrap i64 is identity" max_int (Tensor.wrap T.I64 max_int)

(* ----- in-place updates agree with the copying ops ----- *)

let outcome f = match f () with t -> Ok t | exception Invalid_argument m -> Error m

let same_outcome name copying in_place =
  match (outcome copying, outcome in_place) with
  | Ok a, Ok b ->
    if not (Tensor.equal a b) then
      Alcotest.failf "%s: %s vs %s" name (Tensor.to_string a) (Tensor.to_string b)
  | Error a, Error b -> Alcotest.(check string) (name ^ ": same error") a b
  | _ -> Alcotest.failf "%s: one variant raised, the other did not" name

(* payload kinds: int array (i32), bytes (i8, i16), floats; the i8 pair
   wraps on the narrow path *)
let operands () =
  [ ( "i32",
      Tensor.of_int_array [| 2; 3 |] [| 1; -2; 3; 4; 5; 6 |],
      Tensor.of_int_array [| 2; 3 |] [| 7; 8; -9; 10; 11; 12 |] );
    ( "i8",
      Tensor.of_int_array ~dtype:T.I8 [| 2; 3 |] [| 100; -100; 3; 4; 5; 6 |],
      Tensor.of_int_array ~dtype:T.I8 [| 2; 3 |] [| 100; -100; 9; 10; 11; 12 |] );
    ( "i16",
      Tensor.of_int_array ~dtype:T.I16 [| 2; 3 |] [| 30000; 2; 3; 4; 5; 6 |],
      Tensor.of_int_array ~dtype:T.I16 [| 2; 3 |] [| 30000; 8; 9; 10; 11; 12 |] );
    ( "f64",
      Tensor.of_float_array ~dtype:T.F64 [| 2; 3 |] [| 1.5; Float.nan; 3.; 4.; 5.; 6. |],
      Tensor.of_float_array ~dtype:T.F64 [| 2; 3 |] [| 0.5; 1.; -3.; 4.; 5.; 6. |] ) ]

let test_map2_into () =
  List.iter
    (fun (dt, a, b) ->
      List.iter
        (fun op ->
          let name = dt ^ " " ^ op in
          same_outcome name
            (fun () -> Tensor.map2 op a b)
            (fun () ->
              let a' = Tensor.copy a in
              Tensor.map2_into op a' b;
              a'))
        [ "add"; "mul"; "max"; "bogus" ])
    (operands ());
  let a = Tensor.of_int_array [| 2 |] [| 1; 2 |] and b = Tensor.of_int_array [| 3 |] [| 1; 2; 3 |] in
  same_outcome "shape mismatch" (fun () -> Tensor.map2 "add" a b) (fun () ->
      Tensor.map2_into "add" a b;
      a)

let test_insert_slice_into () =
  List.iter
    (fun (dt, dst, src) ->
      let src = Tensor.extract_slice src ~offsets:[| 0; 1 |] ~sizes:[| 2; 2 |] in
      List.iter
        (fun offsets ->
          let name = Printf.sprintf "%s at [%d, %d]" dt offsets.(0) offsets.(1) in
          same_outcome name
            (fun () -> Tensor.insert_slice src dst ~offsets)
            (fun () ->
              let d = Tensor.copy dst in
              Tensor.insert_slice_into src d ~offsets;
              d))
        [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 1 |] (* out of bounds *) ])
    (operands ())

let () =
  Alcotest.run "tensor"
    [
      ( "equal",
        [
          Alcotest.test_case "dtype strict" `Quick test_equal_dtype_strict;
          Alcotest.test_case "shape strict" `Quick test_equal_shape_strict;
          Alcotest.test_case "narrow payloads" `Quick test_equal_narrow_payloads;
          Alcotest.test_case "nan aware" `Quick test_equal_nan_aware;
        ] );
      ( "wrap",
        [
          Alcotest.test_case "i8 pinned" `Quick test_i8_wrap_pinned;
          Alcotest.test_case "i16 pinned" `Quick test_i16_wrap_pinned;
          Alcotest.test_case "wrap function" `Quick test_wrap_function_pinned;
        ] );
      ( "in-place",
        [
          Alcotest.test_case "map2_into = map2" `Quick test_map2_into;
          Alcotest.test_case "insert_slice_into = insert_slice" `Quick
            test_insert_slice_into;
        ] );
    ]
