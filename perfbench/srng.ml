(* The benchmark's own SplitMix64 stream. Workload draws (unit order,
   module stream, arrival schedule) come only from here, never from a
   generator inside the library under test, so a change to lib/ cannot
   change which work a seed names. *)

type t = { mutable state : int64 }

let make seed = { state = Int64.of_int seed }

let next64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, n). *)
let int t n =
  if n <= 0 then invalid_arg "Srng.int";
  Int64.to_int (Int64.unsigned_rem (next64 t) (Int64.of_int n))

(* Uniform in [0, 1) with 53 random bits. *)
let float t = Int64.to_float (Int64.shift_right_logical (next64 t) 11) /. 9007199254740992.0

let shuffle t a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Send times (seconds from the start) of a Poisson process of [rate]
   per second over [seconds], conditioned on its expected count: that many
   uniform arrival times, sorted. The arrivals stay memoryless, and every
   seed offers the same number of requests. *)
let poisson_schedule t ~rate ~seconds =
  let n = int_of_float (Float.round (rate *. seconds)) in
  let a = Array.init n (fun _ -> float t *. seconds) in
  Array.sort compare a;
  Array.to_list a
