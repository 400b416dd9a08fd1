let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (acc /. float_of_int n)

(* nan on empty, like [mean]: folding from +/-infinity would report an
   infinite extremum for a sample that has no elements at all. *)
let minimum xs = if Array.length xs = 0 then nan else Array.fold_left min infinity xs
let maximum xs = if Array.length xs = 0 then nan else Array.fold_left max neg_infinity xs

(* Nearest-rank on an already-sorted sample: rank = ceil(p/100 * n),
   element at rank-1. Shared by ron_obs report's trace and SLO tables,
   so the two agree on what "p999" means. *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let sorted = Array.copy xs in
    Fsort.sort_floats sorted;
    percentile_sorted sorted p
  end

let median xs = percentile xs 50.0

let of_ints a = Array.map float_of_int a

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

let summarize xs =
  {
    count = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = minimum xs;
    p50 = percentile xs 50.0;
    p90 = percentile xs 90.0;
    p99 = percentile xs 99.0;
    max = maximum xs;
  }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f"
    s.count s.mean s.stddev s.min s.p50 s.p90 s.p99 s.max
