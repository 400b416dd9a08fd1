(* Tests for the ron_metric library: Metric, Indexed, Generators, Doubling,
   Net, Measure, Packing — the substrate Lemmas 1.1-1.4, Theorem 1.3 and
   Lemma 3.1/A.1 of the paper. *)

module Rng = Ron_util.Rng
module Bits = Ron_util.Bits
module Metric = Ron_metric.Metric
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Doubling = Ron_metric.Doubling
module Net = Ron_metric.Net
module Measure = Ron_metric.Measure
module Packing = Ron_metric.Packing

let check_bool msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)
let check_float msg = Alcotest.(check (float 1e-9)) msg

let rng () = Rng.create 12345

(* A few standard fixtures. *)
let grid8 = lazy (Indexed.create (Generators.grid2d 8 8))
let expline = lazy (Indexed.create (Generators.exponential_line 16))
let cloud = lazy (Indexed.create (Generators.random_cloud (rng ()) ~n:100 ~dim:2))

(* --------------------------------------------------------------- Metric *)

let test_check_accepts_generators () =
  List.iter
    (fun m ->
      match Metric.check m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "valid metric rejected: %s" e)
    [
      Generators.grid2d 5 4;
      Generators.exponential_line 10;
      Generators.uniform_line 12;
      Generators.ring 9;
      Generators.random_cloud (rng ()) ~n:40 ~dim:3;
      Generators.clustered_latency (rng ()) ~clusters:4 ~per_cluster:8 ~spread:30.0 ~access:5.0;
      Generators.three_point_example 1000.0;
    ]

let test_check_rejects_triangle_violation () =
  let m =
    Metric.of_matrix ~name:"bad"
      [| [| 0.; 1.; 10. |]; [| 1.; 0.; 1. |]; [| 10.; 1.; 0. |] |]
  in
  check_bool "triangle violation detected" (Result.is_error (Metric.check m))

let test_check_rejects_asymmetry () =
  let m =
    Metric.of_matrix ~name:"asym"
      [| [| 0.; 1.; 2. |]; [| 1.5; 0.; 1. |]; [| 2.; 1.; 0. |] |]
  in
  check_bool "asymmetry detected" (Result.is_error (Metric.check m))

let test_check_rejects_zero_offdiag () =
  let m =
    Metric.of_matrix ~name:"dup" [| [| 0.; 0.; 1. |]; [| 0.; 0.; 1. |]; [| 1.; 1.; 0. |] |]
  in
  check_bool "duplicate points detected" (Result.is_error (Metric.check m))

let test_normalize () =
  let m = Generators.euclidean ~name:"pts" [| [| 0. |]; [| 0.5 |]; [| 2.0 |] |] in
  let nm = Metric.normalize m in
  check_float "min distance becomes 1" 1.0 (Metric.min_distance nm);
  check_float "ratios preserved" (Metric.aspect_ratio m) (Metric.aspect_ratio nm)

let test_aspect_ratio_three_point () =
  let m = Generators.three_point_example 1000.0 in
  check_float "aspect ratio" 999.0 (Metric.aspect_ratio m)

let test_submetric () =
  let m = Generators.uniform_line 10 in
  let s = Metric.submetric m [| 0; 3; 9 |] in
  check_int "size" 3 (Metric.size s);
  check_float "distance preserved" 6.0 (Metric.dist s 1 2)

let test_scale () =
  let m = Generators.uniform_line 5 in
  let s = Metric.scale m 2.5 in
  check_float "scaled" 10.0 (Metric.dist s 0 4);
  check_float "aspect ratio invariant" (Metric.aspect_ratio m) (Metric.aspect_ratio s)

(* -------------------------------------------------------------- Indexed *)

let test_indexed_ball_matches_naive () =
  let idx = Lazy.force cloud in
  let n = Indexed.size idx in
  let r = Rng.create 99 in
  for _ = 1 to 50 do
    let u = Rng.int r n in
    let radius = Rng.float r (Indexed.diameter idx) in
    let naive = ref 0 in
    for v = 0 to n - 1 do
      if Indexed.dist idx u v <= radius then incr naive
    done;
    check_int "ball_count = naive" !naive (Indexed.ball_count idx u radius);
    check_int "ball length = naive" !naive (Array.length (Indexed.ball idx u radius))
  done

let test_indexed_ball_sorted_and_starts_self () =
  let idx = Lazy.force grid8 in
  let b = Indexed.ball idx 27 3.0 in
  check_int "self first" 27 b.(0);
  let ok = ref true in
  for i = 0 to Array.length b - 2 do
    if Indexed.dist idx 27 b.(i) > Indexed.dist idx 27 b.(i + 1) then ok := false
  done;
  check_bool "sorted by distance" !ok

let test_indexed_radius_for_count () =
  let idx = Lazy.force grid8 in
  let u = 0 in
  check_float "k=1 radius 0" 0.0 (Indexed.radius_for_count idx u 1);
  let r2 = Indexed.radius_for_count idx u 2 in
  check_float "k=2 nearest" 1.0 r2;
  (* Monotone in k. *)
  let prev = ref 0.0 in
  for k = 1 to Indexed.size idx do
    let r = Indexed.radius_for_count idx u k in
    check_bool "monotone" (r >= !prev);
    prev := r
  done

let test_indexed_r_level () =
  let idx = Lazy.force grid8 in
  let n = Indexed.size idx in
  let u = 12 in
  check_bool "r_level -1 infinite" (Indexed.r_level idx u (-1) = infinity);
  (* level 0: whole space. *)
  check_int "level 0 ball is everything" n
    (Indexed.ball_count idx u (Indexed.r_level idx u 0));
  (* huge level: singleton. *)
  check_float "deep level radius 0" 0.0 (Indexed.r_level idx u 30);
  (* ball at level i has at least ceil(n/2^i) nodes. *)
  for i = 0 to 8 do
    let r = Indexed.r_level idx u i in
    let need = (n + (1 lsl i) - 1) / (1 lsl i) in
    check_bool "measure guarantee" (Indexed.ball_count idx u r >= need)
  done

let test_indexed_annulus () =
  let idx = Lazy.force grid8 in
  let a = Indexed.annulus idx 0 1.0 2.0 in
  Array.iter
    (fun v ->
      let d = Indexed.dist idx 0 v in
      check_bool "annulus bounds" (d > 1.0 && d <= 2.0))
    a;
  (* Counts add up. *)
  check_int "counts partition"
    (Indexed.ball_count idx 0 2.0)
    (Indexed.ball_count idx 0 1.0 + Array.length a)

let test_indexed_aspect_expline () =
  let idx = Lazy.force expline in
  (* {1,2,...,2^15}: min gap 1, diameter 2^15 - 1. *)
  check_float "min" 1.0 (Indexed.min_distance idx);
  check_float "diameter" (float_of_int ((1 lsl 15) - 1)) (Indexed.diameter idx);
  check_int "log2 aspect" 15 (Indexed.log2_aspect_ratio idx)

let test_nearest_of () =
  let idx = Lazy.force grid8 in
  let (v, d) = Indexed.nearest_of idx 0 [| 63; 7; 56 |] in
  check_int "nearest candidate" 7 v;
  check_float "its distance" 7.0 d

let test_indexed_rows_sorted_with_id_tiebreak () =
  (* The grid has many equal distances, so this exercises the documented
     tie-break: equal distances in ascending node id. *)
  List.iter
    (fun idx ->
      let n = Indexed.size idx in
      for u = 0 to n - 1 do
        for k = 0 to n - 2 do
          let (v1, d1) = Indexed.nth_neighbor idx u k in
          let (v2, d2) = Indexed.nth_neighbor idx u (k + 1) in
          check_bool "row non-decreasing" (d1 <= d2);
          if d1 = d2 then check_bool "ties by ascending id" (v1 < v2)
        done
      done)
    [ Lazy.force grid8; Lazy.force expline ]

let test_indexed_create_matches_reference () =
  (* The optimized construction must agree pairwise (order included) with the
     seed implementation, at jobs=1 and at jobs>1. *)
  let m = Generators.random_cloud (Rng.create 4242) ~n:80 ~dim:2 in
  let reference = Indexed.create_reference m in
  List.iter
    (fun jobs ->
      let idx = Indexed.create ~jobs m in
      let n = Indexed.size idx in
      for u = 0 to n - 1 do
        for k = 0 to n - 1 do
          let (v1, d1) = Indexed.nth_neighbor reference u k in
          let (v2, d2) = Indexed.nth_neighbor idx u k in
          check_int (Printf.sprintf "jobs=%d node u=%d k=%d" jobs u k) v1 v2;
          check_float "distance" d1 d2
        done
      done;
      check_float "diameter" (Indexed.diameter reference) (Indexed.diameter idx);
      check_float "min_distance" (Indexed.min_distance reference) (Indexed.min_distance idx))
    [ 1; 4 ]

let test_indexed_ball_count_boundaries () =
  let idx = Lazy.force grid8 in
  let n = Indexed.size idx in
  check_int "negative radius" 0 (Indexed.ball_count idx 0 (-1.0));
  check_int "zero radius counts self" 1 (Indexed.ball_count idx 0 0.0);
  check_int "diameter radius counts all" n (Indexed.ball_count idx 0 (Indexed.diameter idx));
  check_int "beyond diameter" n (Indexed.ball_count idx 0 (Indexed.diameter idx +. 1.0));
  (* Duplicate distances (the grid has many): at every attained radius d the
     closed ball holds the whole tie class; at [Float.pred d] it holds
     exactly the strictly-closer nodes. *)
  for k = 1 to n - 1 do
    let (_, d) = Indexed.nth_neighbor idx 0 k in
    let strictly_closer = ref 0 and tie_class_end = ref 0 in
    for j = 0 to n - 1 do
      let (_, dj) = Indexed.nth_neighbor idx 0 j in
      if dj < d then incr strictly_closer;
      if dj <= d then incr tie_class_end
    done;
    check_int "closed ball = full tie class" !tie_class_end (Indexed.ball_count idx 0 d);
    check_int "just below excludes the tie class" !strictly_closer
      (Indexed.ball_count idx 0 (Float.pred d))
  done

let test_indexed_ball_filter_matches_filter () =
  let idx = Lazy.force cloud in
  let n = Indexed.size idx in
  let r = Rng.create 31 in
  for _ = 1 to 30 do
    let u = Rng.int r n in
    let radius = Rng.float r (Indexed.diameter idx) in
    let keep v = v mod 3 = 0 in
    let expect = Array.of_list (List.filter keep (Array.to_list (Indexed.ball idx u radius))) in
    check_bool "ball_filter = filter o ball" (Indexed.ball_filter idx u radius keep = expect)
  done

(* ------------------------------------------------------------- Doubling *)

let test_greedy_cover_properties () =
  let idx = Lazy.force cloud in
  let n = Indexed.size idx in
  let nodes = Array.init n Fun.id in
  let radius = Indexed.diameter idx /. 4.0 in
  let centers = Doubling.greedy_cover idx nodes ~radius in
  (* Covering: every node within radius of a center. *)
  Array.iter
    (fun u ->
      check_bool "covered" (Array.exists (fun c -> Indexed.dist idx u c <= radius) centers))
    nodes;
  (* Packing: centers pairwise > radius apart. *)
  Array.iteri
    (fun i c ->
      Array.iteri
        (fun j c' -> if j > i then check_bool "packed" (Indexed.dist idx c c' > radius))
        centers)
    centers

let test_dimension_estimate_grid () =
  let idx = Lazy.force grid8 in
  let alpha = Doubling.dimension_estimate idx (rng ()) in
  check_bool "grid dimension in [1, 4]" (alpha >= 1.0 && alpha <= 4.0)

let test_dimension_estimate_expline () =
  let idx = Lazy.force expline in
  let alpha = Doubling.dimension_estimate idx (rng ()) in
  (* The exponential line is doubling with small constant. *)
  check_bool "exponential line doubling" (alpha <= 3.0)

let test_lemma_1_2 () =
  List.iter
    (fun idx -> check_bool "lemma 1.2" (Doubling.lemma_1_2_lower_bound idx ~alpha:4.0))
    [ Lazy.force grid8; Lazy.force expline; Lazy.force cloud ]

(* ------------------------------------------------------------------ Net *)

let test_r_net_is_net () =
  let idx = Lazy.force cloud in
  List.iter
    (fun r ->
      let net = Net.r_net idx ~r () in
      check_bool (Printf.sprintf "r-net r=%g" r) (Net.is_r_net idx net ~r))
    [ 1.0; 2.0; 5.0; 10.0 ]

let test_r_net_with_seeds () =
  let idx = Lazy.force grid8 in
  let seeds = [| 0; 63 |] in
  let net = Net.r_net idx ~seeds ~r:2.0 () in
  check_bool "seeds kept" (Array.exists (( = ) 0) net && Array.exists (( = ) 63) net);
  check_bool "still a net" (Net.is_r_net idx net ~r:2.0)

let test_hierarchy_properties () =
  let idx = Lazy.force grid8 in
  let h = Net.Hierarchy.create idx in
  let n = Indexed.size idx in
  check_int "level 0 is everything" n (Array.length (Net.Hierarchy.level h 0));
  check_int "top level is a single node" 1
    (Array.length (Net.Hierarchy.level h (Net.Hierarchy.jmax h)));
  (* Nested: G_(j+1) subset of G_j; each level is a 2^j-net. *)
  for j = 0 to Net.Hierarchy.jmax h - 1 do
    let upper = Net.Hierarchy.level h (j + 1) in
    Array.iter (fun u -> check_bool "nested" (Net.Hierarchy.mem h j u)) upper;
    check_bool
      (Printf.sprintf "level %d is a 2^%d-net" j j)
      (Net.is_r_net idx (Net.Hierarchy.level h j) ~r:(Float.of_int (1 lsl j)))
  done

let test_hierarchy_nearest_within_radius () =
  let idx = Lazy.force cloud in
  let h = Net.Hierarchy.create idx in
  for j = 0 to Net.Hierarchy.jmax h do
    for u = 0 to Indexed.size idx - 1 do
      let (_, d) = Net.Hierarchy.nearest h j u in
      check_bool "covering radius" (d <= Float.of_int (1 lsl j))
    done
  done

let test_hierarchy_clamping () =
  let idx = Lazy.force grid8 in
  let h = Net.Hierarchy.create idx in
  check_bool "negative clamps to 0"
    (Net.Hierarchy.level h (-5) = Net.Hierarchy.level h 0);
  check_bool "overflow clamps to jmax"
    (Net.Hierarchy.level h 1000 = Net.Hierarchy.level h (Net.Hierarchy.jmax h))

let test_hierarchy_max_level_of () =
  let idx = Lazy.force grid8 in
  let h = Net.Hierarchy.create idx in
  for u = 0 to Indexed.size idx - 1 do
    let l = Net.Hierarchy.max_level_of h u in
    check_bool "at least level 0" (l >= 0);
    check_bool "member at its level" (Net.Hierarchy.mem h l u);
    if l < Net.Hierarchy.jmax h then
      check_bool "not member above" (not (Net.Hierarchy.mem h (l + 1) u) || l + 1 > Net.Hierarchy.jmax h)
  done;
  (* The top net point reaches jmax. *)
  let top = (Net.Hierarchy.level h (Net.Hierarchy.jmax h)).(0) in
  Alcotest.(check int) "top reaches jmax" (Net.Hierarchy.jmax h) (Net.Hierarchy.max_level_of h top)

let test_greedy_cover_zero_radius () =
  let idx = Lazy.force grid8 in
  let nodes = Array.init 10 Fun.id in
  let centers = Doubling.greedy_cover idx nodes ~radius:0.0 in
  check_int "zero radius keeps everything" 10 (Array.length centers)

let test_lemma_1_4_bound () =
  (* An r-net has at most (4r'/r)^alpha points in any ball of radius r'>=r.
     On the 8x8 grid alpha <= 3 comfortably. *)
  let idx = Lazy.force grid8 in
  let r = 2.0 in
  let net = Net.r_net idx ~r () in
  let alpha = 3.0 in
  List.iter
    (fun r' ->
      for u = 0 to Indexed.size idx - 1 do
        let in_ball =
          Array.length (Array.of_list (List.filter (fun p -> Indexed.dist idx u p <= r')
            (Array.to_list net)))
        in
        let bound = (4.0 *. r' /. r) ** alpha in
        check_bool "lemma 1.4" (float_of_int in_ball <= bound)
      done)
    [ 2.0; 4.0; 8.0 ]

(* -------------------------------------------------------------- Measure *)

let measure_fixture idx =
  let h = Net.Hierarchy.create idx in
  Measure.create idx h

let test_measure_probability () =
  List.iter
    (fun idx ->
      let mu = measure_fixture idx in
      let n = Indexed.size idx in
      let total = ref 0.0 in
      for u = 0 to n - 1 do
        check_bool "positive mass" (Measure.mass mu u > 0.0);
        total := !total +. Measure.mass mu u
      done;
      check_bool "sums to 1" (Float.abs (!total -. 1.0) < 1e-9))
    [ Lazy.force grid8; Lazy.force expline; Lazy.force cloud ]

let test_measure_doubling_constant () =
  (* Theorem 1.3: 2^O(alpha)-doubling. On these low-dimensional fixtures the
     constant should be modest. *)
  List.iter
    (fun (name, idx, bound) ->
      let mu = measure_fixture idx in
      let c = Measure.doubling_constant_estimate mu idx (rng ()) in
      check_bool (Printf.sprintf "%s doubling constant %.1f <= %.1f" name c bound) (c <= bound))
    [
      ("grid", Lazy.force grid8, 64.0);
      ("expline", Lazy.force expline, 16.0);
      ("cloud", Lazy.force cloud, 64.0);
    ]

let test_measure_expline_exponential_decay () =
  (* On the exponential line the doubling measure must up-weight the sparse
     (large-coordinate) end: mu(2^(n-1)) >> mu(1) would be wrong the other
     way around — the counting measure piles up near zero, so the measure of
     far points must stay comparable. Concretely the last point carries mass
     comparable to its own scale: mu(last) >= 2^-(jmax+1)-ish, much larger
     than 1/2^n. *)
  let idx = Lazy.force expline in
  let mu = measure_fixture idx in
  let n = Indexed.size idx in
  check_bool "sparse end not starved" (Measure.mass mu (n - 1) >= 0.05)

let test_cumulative_by_distance () =
  let idx = Lazy.force grid8 in
  let mu = measure_fixture idx in
  let c = Measure.cumulative_by_distance mu idx 0 in
  check_bool "non-decreasing"
    (Array.for_all Fun.id (Array.init (Array.length c - 1) (fun i -> c.(i) <= c.(i + 1))));
  check_bool "total is 1" (Float.abs (c.(Array.length c - 1) -. 1.0) < 1e-9)

(* -------------------------------------------------------------- Packing *)

let test_packing_disjoint_and_covering () =
  List.iter
    (fun idx ->
      let n = Indexed.size idx in
      List.iter
        (fun i ->
          let eps = 1.0 /. float_of_int (1 lsl i) in
          let p = Packing.create idx ~eps in
          (* Balls are disjoint. *)
          let owner = Array.make n (-1) in
          Array.iteri
            (fun bi b ->
              Array.iter
                (fun v ->
                  check_bool "disjoint" (owner.(v) < 0);
                  owner.(v) <- bi)
                b.Packing.members)
            (Packing.balls p);
          (* Lemma A.1 guarantee: for every u some ball with d+r <= 6 r_u(eps). *)
          for u = 0 to n - 1 do
            let b = Packing.covering_ball p idx u in
            let value = Indexed.dist idx u b.Packing.center +. b.Packing.radius in
            check_bool "6 r_u(eps) guarantee" (value <= 6.0 *. Indexed.r_eps idx u eps +. 1e-9)
          done)
        [ 0; 1; 2; 3 ])
    [ Lazy.force grid8; Lazy.force expline; Lazy.force cloud ]

let test_packing_measure_lower_bound () =
  (* Each ball has measure >= eps / 2^O(alpha); check a concrete constant for
     the grid (alpha ~ 2, the proof's 16^alpha with alpha<=3). *)
  let idx = Lazy.force grid8 in
  let eps = 0.125 in
  let p = Packing.create idx ~eps in
  Array.iter
    (fun b ->
      check_bool "measure lower bound" (Packing.measure_of p b >= eps /. 4096.0))
    (Packing.balls p)

let test_packing_members_are_balls () =
  let idx = Lazy.force cloud in
  let p = Packing.create idx ~eps:0.25 in
  Array.iter
    (fun b ->
      let expect = Indexed.ball idx b.Packing.center b.Packing.radius in
      let sort a = let c = Array.copy a in Array.sort compare c; c in
      check_bool "members = metric ball" (sort expect = sort b.Packing.members))
    (Packing.balls p)

let test_packing_eps_one () =
  let idx = Lazy.force grid8 in
  let p = Packing.create idx ~eps:1.0 in
  check_bool "nonempty" (Array.length (Packing.balls p) >= 1)

let test_packing_ball_index_of_member () =
  let idx = Lazy.force grid8 in
  let p = Packing.create idx ~eps:0.25 in
  Array.iteri
    (fun bi b ->
      Array.iter
        (fun v -> check_bool "owner matches" (Packing.ball_index_of_member p v = Some bi))
        b.Packing.members)
    (Packing.balls p)

(* --------------------------------------------------------------- QCheck *)

let prop_cloud_metric_valid =
  QCheck.Test.make ~name:"random clouds satisfy the metric axioms" ~count:20
    QCheck.(pair (int_range 5 40) (int_range 1 4))
    (fun (n, dim) ->
      let m = Generators.random_cloud (Rng.create (n * 31 + dim)) ~n ~dim in
      Result.is_ok (Metric.check m))

let prop_latency_metric_valid =
  QCheck.Test.make ~name:"latency metrics satisfy the metric axioms" ~count:15
    QCheck.(pair (int_range 2 5) (int_range 2 8))
    (fun (clusters, per_cluster) ->
      let m =
        Generators.clustered_latency
          (Rng.create (clusters * 131 + per_cluster))
          ~clusters ~per_cluster ~spread:25.0 ~access:10.0
      in
      Result.is_ok (Metric.check m))

let prop_net_invariants =
  QCheck.Test.make ~name:"greedy nets satisfy packing+covering" ~count:20
    QCheck.(pair (int_range 10 60) (int_range 0 4))
    (fun (n, rexp) ->
      let idx = Indexed.create (Generators.random_cloud (Rng.create (n * 7 + rexp)) ~n ~dim:2) in
      let r = Float.of_int (1 lsl rexp) in
      Net.is_r_net idx (Net.r_net idx ~r ()) ~r)

let prop_hierarchy_nested =
  QCheck.Test.make ~name:"hierarchies are nested nets" ~count:10
    QCheck.(int_range 10 50)
    (fun n ->
      let idx = Indexed.create (Generators.random_cloud (Rng.create (n * 13)) ~n ~dim:2) in
      let h = Net.Hierarchy.create idx in
      let ok = ref true in
      for j = 0 to Net.Hierarchy.jmax h - 1 do
        Array.iter
          (fun u -> if not (Net.Hierarchy.mem h j u) then ok := false)
          (Net.Hierarchy.level h (j + 1))
      done;
      !ok)

let prop_indexed_rows_sorted =
  QCheck.Test.make ~name:"indexed rows sorted, ties by ascending id" ~count:15
    QCheck.(int_range 5 60)
    (fun n ->
      let idx = Indexed.create (Generators.random_cloud (Rng.create (n * 11)) ~n ~dim:2) in
      let ok = ref true in
      for u = 0 to n - 1 do
        for k = 0 to n - 2 do
          let (v1, d1) = Indexed.nth_neighbor idx u k in
          let (v2, d2) = Indexed.nth_neighbor idx u (k + 1) in
          if d1 > d2 || (d1 = d2 && v1 >= v2) then ok := false
        done
      done;
      !ok)

let prop_indexed_parallel_equals_sequential =
  QCheck.Test.make ~name:"Indexed.create identical at jobs=1 and jobs=4" ~count:10
    QCheck.(int_range 5 50)
    (fun n ->
      let m = Generators.random_cloud (Rng.create (n * 19)) ~n ~dim:2 in
      let a = Indexed.create ~jobs:1 m and b = Indexed.create ~jobs:4 m in
      let ok = ref true in
      for u = 0 to n - 1 do
        for k = 0 to n - 1 do
          if Indexed.nth_neighbor a u k <> Indexed.nth_neighbor b u k then ok := false
        done
      done;
      !ok)

(* [nearest_of]'s tie rule is the row order: the candidate nearest to u,
   ties by smallest id, is the first candidate in u's sorted row, and
   [row] is that order. The Thm 2.1 zoomings take f_tj as the first G_j
   member of t's row on this premise. Tie-heavy metrics: grids, the
   integer line and an integer cycle. *)
let prop_nearest_of_first_in_row =
  QCheck.Test.make ~name:"nearest_of = first candidate in the sorted row on tie-heavy metrics"
    ~count:40
    QCheck.(triple (int_range 0 2) (int_range 3 12) (pair small_nat (int_range 1 8)))
    (fun (kind, k, (seed, size)) ->
      let m =
        match kind with
        | 0 -> Generators.grid2d k (k + (seed mod 3))
        | 1 -> Generators.uniform_line (3 * k)
        | _ ->
          let c = 3 * k in
          Metric.create ~name:"cycle" c (fun u v ->
              let d = abs (u - v) in
              float_of_int (min d (c - d)))
      in
      let idx = Indexed.create m in
      let n = Indexed.size idx in
      let rng = Rng.create seed in
      List.for_all
        (fun _ ->
          let u = Rng.int rng n in
          let cands = Array.init size (fun _ -> Rng.int rng n) in
          let row = Indexed.row idx u in
          let first = ref (-1) in
          Array.iter (fun v -> if !first < 0 && Array.mem v cands then first := v) row;
          fst (Indexed.nearest_of idx u cands) = !first
          && row = Array.init n (fun k -> fst (Indexed.nth_neighbor idx u k)))
        (List.init 20 Fun.id))

let prop_packing_guarantee =
  QCheck.Test.make ~name:"packing 6r_u(eps) guarantee on random clouds" ~count:10
    QCheck.(pair (int_range 10 60) (int_range 0 3))
    (fun (n, i) ->
      let idx = Indexed.create (Generators.random_cloud (Rng.create (n * 17 + i)) ~n ~dim:2) in
      let eps = 1.0 /. float_of_int (1 lsl i) in
      let p = Packing.create idx ~eps in
      let ok = ref true in
      for u = 0 to n - 1 do
        let b = Packing.covering_ball p idx u in
        if Indexed.dist idx u b.Packing.center +. b.Packing.radius > 6.0 *. Indexed.r_eps idx u eps +. 1e-9
        then ok := false
      done;
      !ok)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ron_metric"
    [
      ( "metric",
        [
          Alcotest.test_case "generators pass check" `Quick test_check_accepts_generators;
          Alcotest.test_case "triangle violation rejected" `Quick test_check_rejects_triangle_violation;
          Alcotest.test_case "asymmetry rejected" `Quick test_check_rejects_asymmetry;
          Alcotest.test_case "duplicate points rejected" `Quick test_check_rejects_zero_offdiag;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "three-point aspect ratio" `Quick test_aspect_ratio_three_point;
          Alcotest.test_case "submetric" `Quick test_submetric;
          Alcotest.test_case "scale" `Quick test_scale;
        ] );
      ( "indexed",
        [
          Alcotest.test_case "ball matches naive" `Quick test_indexed_ball_matches_naive;
          Alcotest.test_case "ball sorted, self first" `Quick test_indexed_ball_sorted_and_starts_self;
          Alcotest.test_case "radius_for_count" `Quick test_indexed_radius_for_count;
          Alcotest.test_case "r_level" `Quick test_indexed_r_level;
          Alcotest.test_case "annulus" `Quick test_indexed_annulus;
          Alcotest.test_case "exponential line aspect" `Quick test_indexed_aspect_expline;
          Alcotest.test_case "nearest_of" `Quick test_nearest_of;
          Alcotest.test_case "rows sorted, ties by id" `Quick test_indexed_rows_sorted_with_id_tiebreak;
          Alcotest.test_case "create = create_reference (jobs 1 and 4)" `Quick
            test_indexed_create_matches_reference;
          Alcotest.test_case "ball_count boundaries" `Quick test_indexed_ball_count_boundaries;
          Alcotest.test_case "ball_filter = filter o ball" `Quick test_indexed_ball_filter_matches_filter;
        ] );
      ( "doubling",
        [
          Alcotest.test_case "greedy cover properties" `Quick test_greedy_cover_properties;
          Alcotest.test_case "greedy cover zero radius" `Quick test_greedy_cover_zero_radius;
          Alcotest.test_case "grid dimension estimate" `Quick test_dimension_estimate_grid;
          Alcotest.test_case "exponential line estimate" `Quick test_dimension_estimate_expline;
          Alcotest.test_case "lemma 1.2" `Quick test_lemma_1_2;
        ] );
      ( "net",
        [
          Alcotest.test_case "r_net is a net" `Quick test_r_net_is_net;
          Alcotest.test_case "r_net with seeds" `Quick test_r_net_with_seeds;
          Alcotest.test_case "hierarchy properties" `Quick test_hierarchy_properties;
          Alcotest.test_case "hierarchy covering radii" `Quick test_hierarchy_nearest_within_radius;
          Alcotest.test_case "hierarchy clamping" `Quick test_hierarchy_clamping;
          Alcotest.test_case "lemma 1.4 bound" `Quick test_lemma_1_4_bound;
          Alcotest.test_case "max_level_of" `Quick test_hierarchy_max_level_of;
        ] );
      ( "measure",
        [
          Alcotest.test_case "probability measure" `Quick test_measure_probability;
          Alcotest.test_case "doubling constant" `Quick test_measure_doubling_constant;
          Alcotest.test_case "exponential line decay" `Quick test_measure_expline_exponential_decay;
          Alcotest.test_case "cumulative by distance" `Quick test_cumulative_by_distance;
        ] );
      ( "packing",
        [
          Alcotest.test_case "disjoint + covering" `Quick test_packing_disjoint_and_covering;
          Alcotest.test_case "measure lower bound" `Quick test_packing_measure_lower_bound;
          Alcotest.test_case "members are metric balls" `Quick test_packing_members_are_balls;
          Alcotest.test_case "eps = 1" `Quick test_packing_eps_one;
          Alcotest.test_case "ball_index_of_member" `Quick test_packing_ball_index_of_member;
        ] );
      ( "properties",
        [
          qt prop_cloud_metric_valid;
          qt prop_latency_metric_valid;
          qt prop_net_invariants;
          qt prop_nearest_of_first_in_row;
          qt prop_hierarchy_nested;
          qt prop_packing_guarantee;
          qt prop_indexed_rows_sorted;
          qt prop_indexed_parallel_equals_sequential;
        ] );
    ]
