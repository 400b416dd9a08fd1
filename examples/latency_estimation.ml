(* Internet-latency estimation — the scenario that motivated triangulation
   (Kleinberg-Slivkins-Wexler [33] and the Meridian system [57]).

   A CDN wants to answer "what is the latency between any two of my 300
   vantage points?" without the O(n^2) measurement matrix. Each node
   measures latencies only to its triangulation beacons and publishes that
   small label; any pair of labels then certifies an interval
   [D-, D+] around the true latency.

   We compare the paper's (0, delta)-triangulation (Theorem 3.2: EVERY pair
   certified) with the common-beacon baseline of [33, 50] (a fraction of
   pairs gets no guarantee), on a synthetic latency metric: clustered
   "cities" plus per-node access delays.

   Run with: dune exec examples/latency_estimation.exe *)

module Rng = Ron_util.Rng
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Stats = Ron_util.Stats
module Triangulation = Ron_labeling.Triangulation
module Landmark = Ron_labeling.Landmark

let () =
  let rng = Rng.create 7 in
  let metric =
    Generators.clustered_latency rng ~clusters:6 ~per_cluster:50 ~spread:40.0 ~access:8.0
  in
  let idx = Indexed.create metric in
  let n = Indexed.size idx in
  Printf.printf "synthetic latency matrix: %d nodes, aspect ratio %.0f\n\n" n
    (Indexed.aspect_ratio idx);

  let delta = 0.25 in
  let tri = Triangulation.build idx ~delta in

  (* Accuracy over all pairs. *)
  let ratios = ref [] in
  let certified = ref 0 and total = ref 0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      incr total;
      let d = Indexed.dist idx u v in
      let (lo, hi) = Triangulation.estimate tri u v in
      if lo > 0.0 && hi /. lo <= 1.0 +. (2.0 *. delta) then incr certified;
      ratios := (hi /. d) :: !ratios
    done
  done;
  let rs = Array.of_list !ratios in
  Printf.printf "Theorem 3.2 (0,%.2f)-triangulation:\n" delta;
  Printf.printf "  order (beacons per node): %d of %d nodes\n" (Triangulation.order tri) n;
  Printf.printf "  pairs with certified D+/D- <= %.2f: %d / %d (paper: all)\n"
    (1.0 +. (2.0 *. delta)) !certified !total;
  Printf.printf "  overestimation D+/d: mean %.4f, p99 %.4f, max %.4f\n\n" (Stats.mean rs)
    (Stats.percentile rs 99.0) (Stats.maximum rs);

  (* The baseline: same label budget spent on shared random beacons. *)
  List.iter
    (fun k ->
      let b = Landmark.of_metric idx (Rng.split rng) ~k in
      Printf.printf
        "common-beacon baseline, k=%3d: %.1f%% of pairs get NO (1+%.2f) guarantee\n" k
        (100.0 *. Landmark.bad_fraction b ~delta:(2.0 *. delta))
        (2.0 *. delta))
    [ 4; 16; 64 ];
  Printf.printf
    "\nThe (eps, delta) flaw the paper fixes: shared beacons leave real pairs\n\
     uncertified no matter how many there are; per-node rings of neighbors\n\
     certify every pair with O(log n)-ish labels.\n"
