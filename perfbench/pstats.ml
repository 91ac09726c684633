(* Order statistics used by every reported timing. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (the "inclusive" method of
   Python's statistics.quantiles), q in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let geomean xs =
  match xs with
  | [] -> invalid_arg "Pstats.geomean: no samples"
  | _ ->
    List.iter
      (fun x -> if not (x > 0.0) then invalid_arg "Pstats.geomean: non-positive sample")
      xs;
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* The percentile ladder the tail is read from, highest first. *)
let ladder = [ 99.9; 99.5; 99.0; 98.0; 97.5; 95.0; 90.0; 75.0; 50.0 ]

type tail = { pct : float; value : float; beyond : int; samples : int }

(* The highest ladder percentile that has at least [min_beyond] samples
   strictly above its nearest-rank value, so a tail is never read off a
   handful of samples. [None] when not even the median qualifies. *)
let tail ?(min_beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  let at p =
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    let v = a.(max 0 (min (n - 1) (rank - 1))) in
    let beyond = Array.fold_left (fun c x -> if x > v then c + 1 else c) 0 a in
    { pct = p; value = v; beyond; samples = n }
  in
  if n = 0 then None
  else List.find_opt (fun t -> t.beyond >= min_beyond) (List.map at ladder)
