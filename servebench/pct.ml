(* Order statistics for the report. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank quantile of an unsorted sample; nan when empty. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted a in
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* The tail rule: a percentile is reported only when at least ten samples
   lie beyond it, so p99 needs 1000 completions.  With fewer, the tail
   reported is the highest percentile that still has ten samples beyond
   it, 1 - 10/n. *)
let tail_samples = 10

let tail_q n =
  if n >= 100 * tail_samples then 0.99
  else Float.max 0.5 (1.0 -. (float_of_int tail_samples /. float_of_int (max 1 n)))

let p99 a =
  if Array.length a < 100 * tail_samples then
    invalid_arg
      (Printf.sprintf "p99 needs %d samples, got %d" (100 * tail_samples)
         (Array.length a))
  else quantile a 0.99

(* The reported tail: (quantile used, value). *)
let tail a =
  let q = tail_q (Array.length a) in
  (q, if q = 0.99 then p99 a else quantile a q)

let geomean a =
  if Array.length a = 0 then Float.nan
  else exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 a /. float_of_int (Array.length a))
