(* Tests for ron_labeling: Theorem 3.2 triangulation, Theorem 3.4 distance
   labeling, and the baselines (common beacons as a landmark build, trivial
   DLS). *)

module Rng = Ron_util.Rng
module Metric = Ron_metric.Metric
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Net = Ron_metric.Net
module Triangulation = Ron_labeling.Triangulation
module Landmark = Ron_labeling.Landmark
module Oracle = Triangulation_oracle
module Trivial_dls = Ron_labeling.Trivial_dls
module Dls = Ron_labeling.Dls

let check_bool msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)

let grid = lazy (Indexed.create (Generators.grid2d 7 7))
let expline = lazy (Indexed.create (Generators.exponential_line 18))
let cloud = lazy (Indexed.create (Generators.random_cloud (Rng.create 42) ~n:80 ~dim:2))
let line = lazy (Indexed.create (Metric.normalize (Generators.uniform_line 90)))

let tri_grid = lazy (Triangulation.build (Lazy.force grid) ~delta:0.25)
let tri_expline = lazy (Triangulation.build (Lazy.force expline) ~delta:0.25)
let tri_cloud = lazy (Triangulation.build (Lazy.force cloud) ~delta:0.25)

let dls_grid = lazy (Dls.build (Lazy.force tri_grid))
let dls_expline = lazy (Dls.build (Lazy.force tri_expline))
let dls_cloud = lazy (Dls.build (Lazy.force tri_cloud))

(* The theorem's guarantee with the quantization slack used by Dls. *)
let plus_bound delta = (1.0 +. (2.0 *. delta)) *. (1.0 +. (delta /. 8.0)) +. 1e-9

(* -------------------------------------------------------- Triangulation *)

let all_pairs_triangulation_check name tri idx delta =
  let n = Indexed.size idx in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Indexed.dist idx u v in
      let (lo, hi) = Triangulation.estimate tri u v in
      check_bool (name ^ ": D- <= d") (lo <= d +. 1e-9);
      check_bool (name ^ ": d <= D+") (d <= hi +. 1e-9);
      check_bool (name ^ ": D+ within (1+2delta) d") (hi <= ((1.0 +. (2.0 *. delta)) *. d) +. 1e-9);
      check_bool (name ^ ": D- within") (lo >= ((1.0 -. (2.0 *. delta)) *. d) -. 1e-9)
    done
  done

let test_tri_zero_delta_guarantee_grid () =
  all_pairs_triangulation_check "grid" (Lazy.force tri_grid) (Lazy.force grid) 0.25

let test_tri_zero_delta_guarantee_expline () =
  all_pairs_triangulation_check "expline" (Lazy.force tri_expline) (Lazy.force expline) 0.25

let test_tri_zero_delta_guarantee_cloud () =
  all_pairs_triangulation_check "cloud" (Lazy.force tri_cloud) (Lazy.force cloud) 0.25

let test_tri_self_estimate () =
  let tri = Lazy.force tri_grid in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "self" (0.0, 0.0) (Triangulation.estimate tri 3 3)

let test_tri_witness () =
  let tri = Lazy.force tri_grid in
  let idx = Lazy.force grid in
  let w = Oracle.witness (Oracle.build tri) 0 48 in
  let s = Indexed.dist idx 0 w +. Indexed.dist idx 48 w in
  let (_, hi) = Triangulation.estimate tri 0 48 in
  check_bool "witness achieves D+" (Float.abs (s -. hi) < 1e-9)

let test_tri_order_positive_and_bounded () =
  let tri = Lazy.force tri_expline in
  let n = Indexed.size (Lazy.force expline) in
  let o = Triangulation.order tri in
  check_bool "order positive" (o >= 1);
  check_bool "order at most n" (o <= n)

let test_tri_beacons_contain_xy () =
  let tri = Lazy.force tri_grid in
  let b = Triangulation.beacons tri 5 in
  let mem v = Array.exists (( = ) v) b in
  for i = 0 to Triangulation.levels tri - 1 do
    Array.iter (fun v -> check_bool "x in beacons" (mem v)) (Triangulation.x_neighbors tri 5 i);
    Array.iter (fun v -> check_bool "y in beacons" (mem v)) (Triangulation.y_neighbors tri 5 i)
  done

let test_tri_scale0_canonical () =
  (* The scale-0 X and Y sets must coincide across nodes (prefix sharing). *)
  let tri = Lazy.force tri_cloud in
  let norm a = let c = Array.copy a in Array.sort compare c; c in
  let x0 = norm (Triangulation.x_neighbors tri 0 0) in
  let y0 = norm (Triangulation.y_neighbors tri 0 0) in
  for u = 1 to Indexed.size (Lazy.force cloud) - 1 do
    check_bool "X0 canonical" (norm (Triangulation.x_neighbors tri u 0) = x0);
    check_bool "Y0 canonical" (norm (Triangulation.y_neighbors tri u 0) = y0)
  done

let test_tri_y_members_in_net () =
  let tri = Lazy.force tri_grid in
  let h = Triangulation.hierarchy tri in
  (* Y-members at every scale are net points of some level (weak sanity:
     they are at least in G_0 = everything, and scale-0 members are exactly
     a net level). *)
  let y0 = Triangulation.y_neighbors tri 0 0 in
  check_bool "scale-0 Y nonempty" (Array.length y0 > 0);
  ignore h

let test_tri_rejects_bad_delta () =
  Alcotest.check_raises "delta too big"
    (Invalid_argument "Triangulation.build: delta must be in (0, 1/2)") (fun () ->
      ignore (Triangulation.build (Lazy.force grid) ~delta:0.5))

let test_tri_label_bits_positive () =
  let tri = Lazy.force tri_grid in
  Array.iter (fun b -> check_bool "bits positive" (b > 0)) (Triangulation.label_bits tri)

let test_tri_tight_constants_shrink_order () =
  (* The E-3.2 ablation mechanism: tighter constants give smaller order. *)
  let idx = Lazy.force line in
  let full = Triangulation.build idx ~delta:0.45 in
  let tight = Triangulation.build ~radius_factor:2.0 ~net_divisor:1.0 idx ~delta:0.45 in
  check_bool "tight order smaller"
    (Triangulation.order tight < Triangulation.order full)

(* ------------------------------------------------------ Common beacons *)

let test_beacon_bounds_valid () =
  let idx = Lazy.force cloud in
  let b = Landmark.of_metric idx (Rng.create 7) ~k:12 in
  let n = Indexed.size idx in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Indexed.dist idx u v in
      let (lo, hi) = Landmark.estimate b u v in
      check_bool "D- <= d" (lo <= d +. 1e-9);
      check_bool "d <= D+" (d <= hi +. 1e-9)
    done
  done

let test_beacon_has_bad_pairs () =
  (* The [33,50] flaw the paper fixes: with few common beacons some pairs
     get no (1+delta) guarantee. On a uniform line with k=4 beacons, close
     pairs far from all beacons are hopeless. *)
  let idx = Lazy.force line in
  let b = Landmark.of_metric idx (Rng.create 11) ~k:4 in
  check_bool "eps > 0" (Landmark.bad_fraction b ~delta:0.25 > 0.0)

let test_beacon_more_beacons_help () =
  let idx = Lazy.force line in
  let few = Landmark.of_metric idx (Rng.create 3) ~k:3 in
  let many = Landmark.of_metric idx (Rng.create 3) ~k:60 in
  check_bool "more beacons, fewer bad pairs"
    (Landmark.bad_fraction many ~delta:0.25 <= Landmark.bad_fraction few ~delta:0.25)

let test_beacon_order () =
  let idx = Lazy.force grid in
  let b = Landmark.of_metric idx (Rng.create 1) ~k:9 in
  check_int "order = k" 9 (Landmark.order b);
  check_int "beacon count" 9 (Array.length (Landmark.beacons b))

let test_beacon_k_validation () =
  Alcotest.check_raises "k too big" (Invalid_argument "Landmark.of_metric: k out of range")
    (fun () -> ignore (Landmark.of_metric (Lazy.force grid) (Rng.create 1) ~k:1000))

(* ---------------------------------------------------------- Trivial DLS *)

let test_trivial_exact () =
  let idx = Lazy.force grid in
  let t = Trivial_dls.build idx in
  for u = 0 to 48 do
    for v = 0 to 48 do
      check_bool "exact" (Trivial_dls.estimate t u v = Indexed.dist idx u v)
    done
  done

let test_trivial_bits_linear () =
  let idx = Lazy.force grid in
  let t = Trivial_dls.build idx in
  let bits = Trivial_dls.label_bits t in
  check_bool "Omega(n) bits" (bits.(0) >= (Indexed.size idx - 1) * 53)

(* ------------------------------------------------------------------ Dls *)

let all_pairs_dls_check name dls idx delta =
  let n = Indexed.size idx in
  let bound = plus_bound delta in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Indexed.dist idx u v in
      let est = Dls.estimate (Dls.label dls u) (Dls.label dls v) in
      check_bool (name ^ ": never contracts") (est >= d -. 1e-9);
      check_bool (name ^ ": within bound") (est <= (bound *. d) +. 1e-9)
    done
  done

let test_dls_guarantee_grid () = all_pairs_dls_check "grid" (Lazy.force dls_grid) (Lazy.force grid) 0.25
let test_dls_guarantee_expline () =
  all_pairs_dls_check "expline" (Lazy.force dls_expline) (Lazy.force expline) 0.25
let test_dls_guarantee_cloud () = all_pairs_dls_check "cloud" (Lazy.force dls_cloud) (Lazy.force cloud) 0.25

let test_dls_self () =
  let dls = Lazy.force dls_grid in
  Alcotest.(check (float 0.0)) "self" 0.0 (Dls.estimate (Dls.label dls 3) (Dls.label dls 3))

let test_dls_symmetric () =
  let dls = Lazy.force dls_grid in
  for u = 0 to 10 do
    for v = 0 to 10 do
      let a = Dls.estimate (Dls.label dls u) (Dls.label dls v) in
      let b = Dls.estimate (Dls.label dls v) (Dls.label dls u) in
      check_bool "symmetric" (Float.abs (a -. b) < 1e-9)
    done
  done

let test_dls_zooming_sequence_shape () =
  let dls = Lazy.force dls_grid in
  let idx = Lazy.force grid in
  let tri = Dls.triangulation dls in
  for u = 0 to Indexed.size idx - 1 do
    let f = Dls.zooming_sequence dls u in
    check_int "length = levels" (Triangulation.levels tri) (Array.length f);
    (* f_ui lies within r_ui/4 of u (or is u itself at clamped levels). *)
    Array.iteri
      (fun i fi ->
        let r = Indexed.r_level idx u i in
        check_bool "zooming proximity" (Indexed.dist idx u fi <= Float.max 1.0 (r /. 4.0)))
      f;
    (* Deep scales: f converges to u itself. *)
    check_int "last element is u" u f.(Array.length f - 1)
  done

let test_dls_virtual_neighbors_contain_zoom_successors () =
  (* Claim 3.5(c): f_(u,i+1) is a virtual neighbor of f_ui. *)
  let dls = Lazy.force dls_cloud in
  let n = Indexed.size (Lazy.force cloud) in
  for u = 0 to n - 1 do
    let f = Dls.zooming_sequence dls u in
    for i = 0 to Array.length f - 2 do
      let tf = Dls.virtual_neighbors dls f.(i) in
      check_bool "claim 3.5c" (Array.exists (( = ) f.(i + 1)) tf)
    done
  done

let test_dls_label_bits_positive () =
  let dls = Lazy.force dls_grid in
  Array.iter (fun b -> check_bool "bits positive" (b > 0)) (Dls.label_bits dls);
  check_bool "max consistent"
    (Dls.max_label_bits dls = Array.fold_left max 0 (Dls.label_bits dls))

let test_dls_cross_scheme_rejected () =
  (* Failure injection: labels from different schemes must not silently
     produce an answer when their canonical prefixes differ. *)
  let dls_a = Lazy.force dls_grid in
  let idx_b = Lazy.force expline in
  let dls_b = Lazy.force dls_expline in
  ignore idx_b;
  let la = Dls.label dls_a 1 and lb = Dls.label dls_b 2 in
  let ok =
    try
      ignore (Dls.estimate la lb);
      (* Same prefix length by coincidence is possible; then the estimate is
         garbage but must still be a finite positive number, not a crash. *)
      true
    with Failure _ -> true
  in
  check_bool "mixed labels raise or stay finite" ok

let test_dls_aspect_ratio_scaling () =
  (* Theorem 3.4's point: label size grows like log log Delta, not log
     Delta. Doubling the exponent range of the exponential line (Delta
     squares, log Delta doubles) must grow the max label size by far less
     than 2x. *)
  let small = Indexed.create (Generators.exponential_line 12) in
  let big = Indexed.create (Generators.exponential_line 24) in
  let bits_of idxm = Dls.max_label_bits (Dls.build (Triangulation.build idxm ~delta:0.25)) in
  let b_small = bits_of small and b_big = bits_of big in
  (* log Delta doubles; n also doubles here so allow the (log n) factor —
     the point is to stay well under the 4x a (log n)(log Delta) scheme
     would pay, and under the 2x a pure (log Delta) scheme would pay. *)
  check_bool
    (Printf.sprintf "sub-linear growth in log Delta (%d -> %d)" b_small b_big)
    (float_of_int b_big < 1.9 *. float_of_int b_small)

(* ---------------------------------------------------------- Enumeration *)

(* Every host enumeration starts with the canonical prefix — the scale-0
   beacon set, shared by all nodes — followed by the node's other
   scale-set nodes in ascending order, each node listed once. *)
let test_host_enumeration_prefix () =
  let tri = Lazy.force tri_grid and dls = Lazy.force dls_grid in
  let scale_set u i =
    List.sort_uniq compare
      (Array.to_list (Triangulation.x_neighbors tri u i)
      @ Array.to_list (Triangulation.y_neighbors tri u i))
  in
  let prefix = Array.of_list (scale_set 0 0) in
  let p = Array.length prefix in
  check_int "prefix length" p (Dls.export dls).Dls.prefix_len;
  for u = 0 to Indexed.size (Lazy.force grid) - 1 do
    let h = Dls.host_beacons dls u in
    check_bool "prefix first" (Array.sub h 0 p = prefix);
    let rest = Array.to_list (Array.sub h p (Array.length h - p)) in
    check_bool "rest ascending" (List.sort_uniq compare rest = rest);
    check_bool "rest outside the prefix" (List.for_all (fun v -> not (Array.mem v prefix)) rest);
    let levels = List.init (Triangulation.levels tri) Fun.id in
    let all = List.sort_uniq compare (List.concat_map (scale_set u) levels) in
    check_bool "every scale-set node once" (List.sort compare (Array.to_list h) = all)
  done

(* ------------------------------------- Triangulation vs the Hashtbl oracle *)

module Graph_gen = Ron_graph.Graph_gen
module Sp_metric = Ron_graph.Sp_metric

let families = [| "cloud"; "clustered latency"; "geometric graph" |]
let deltas = [| 0.125; 0.25; 0.45 |]

(* The paper's constants first, then the E-3.2 ablation's. *)
let constants = [| (12.0, 4.0); (4.0, 2.0); (2.0, 1.0); (1.0, 0.5); (0.5, 0.25); (0.25, 0.1) |]

(* A normalized metric of at most 60 points: a cloud in 2 or 3 dimensions,
   a clustered-latency metric, or the shortest-path metric of a random
   geometric graph. *)
let metric_of (family, size, seed) =
  let rng = Rng.create seed and n = 8 + size in
  match family with
  | 0 -> Generators.random_cloud rng ~n ~dim:(2 + (seed mod 2))
  | 1 ->
    let clusters = 1 + (seed mod 5) in
    Generators.clustered_latency rng ~clusters ~per_cluster:(n / clusters) ~spread:30.0
      ~access:6.0
  | _ ->
    let g = Graph_gen.random_geometric rng ~n ~radius:0.3 in
    Metric.normalize (Sp_metric.metric (Sp_metric.create g))

let gen_family = QCheck.Gen.(triple (int_bound 2) (int_bound 52) (int_range 1 100_000))
let print_family (f, size, seed) = Printf.sprintf "%s size %d seed %d" families.(f) (8 + size) seed
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_tri_rows_match_oracle =
  QCheck.Test.make ~name:"rows = Hashtbl oracle, bit for bit; (1 +- 2 delta) at the defaults"
    ~count:40
    (QCheck.make
       ~print:(fun (fam, (d, c)) ->
         Printf.sprintf "%s, delta %g, constants (%g, %g)" (print_family fam) deltas.(d)
           (fst constants.(c)) (snd constants.(c)))
       QCheck.Gen.(pair gen_family (pair (int_bound 2) (oneof [ return 0; int_range 1 5 ]))))
    (fun (fam, (d, c)) ->
      let idx = Indexed.create (metric_of fam) in
      let delta = deltas.(d) and radius_factor, net_divisor = constants.(c) in
      let tri = Triangulation.build ~radius_factor ~net_divisor idx ~delta in
      let oracle = Oracle.build tri in
      let n = Indexed.size idx in
      let nodes = List.init n Fun.id in
      let outcome est u v = try Some (est u v) with Failure _ -> None in
      let pair_ok u v =
        match (outcome (Triangulation.estimate tri) u v, outcome (Oracle.estimate oracle) u v) with
        | Some (lo, hi), Some (lo', hi') ->
          let d = Indexed.dist idx u v in
          same_bits lo lo' && same_bits hi hi'
          && (c > 0 || u = v
             || (hi <= ((1.0 +. (2.0 *. delta)) *. d) +. 1e-9
                && lo >= ((1.0 -. (2.0 *. delta)) *. d) -. 1e-9))
        | None, None -> c > 0
        | _ -> false
      in
      Triangulation.order tri = Oracle.order oracle
      && Triangulation.label_bits tri = Oracle.label_bits oracle
      && List.for_all (fun u -> Triangulation.beacons tri u = Oracle.beacons oracle u) nodes
      && List.for_all (fun u -> List.for_all (pair_ok u) nodes) nodes)

(* Landmark.of_metric against the common-beacon oracle drawn with the same
   seed: the same beacons and bad fraction, the same bounds at every pair
   without a beacon endpoint, exact bounds at the others, and columns that
   the landmark view accepts. *)
let prop_baseline_matches_oracle =
  QCheck.Test.make ~name:"of_metric = common-beacon oracle; its columns load" ~count:30
    (QCheck.make
       ~print:(fun (fam, kseed) -> Printf.sprintf "%s, k seed %d" (print_family fam) kseed)
       QCheck.Gen.(pair gen_family (int_range 1 100_000)))
    (fun (fam, kseed) ->
      let idx = Indexed.create (metric_of fam) in
      let n = Indexed.size idx in
      let k = 1 + (kseed mod n) in
      let lm = Landmark.of_metric idx (Rng.create kseed) ~k in
      let b = Oracle.Beacon.build idx (Rng.create kseed) ~k in
      let is_beacon v = Array.mem v b.Oracle.Beacon.beacons in
      let pair_ok u v =
        let lo, hi = Landmark.estimate lm u v in
        if u = v || not (is_beacon u || is_beacon v) then
          let lo', hi' = Oracle.Beacon.estimate b u v in
          same_bits lo lo' && same_bits hi hi'
        else same_bits lo hi && Float.abs (lo -. Indexed.dist idx u v) <= 1e-9
      in
      let nodes = List.init n Fun.id in
      let frozen = Ron_serve.Server.freeze_landmark_t (Landmark.export lm) in
      Landmark.beacons lm = b.Oracle.Beacon.beacons
      && List.for_all
           (fun delta ->
             same_bits (Landmark.bad_fraction lm ~delta) (Oracle.Beacon.bad_fraction b ~delta))
           [ 0.25; 0.5 ]
      && List.for_all (fun u -> List.for_all (pair_ok u) nodes) nodes
      && Result.is_ok (Ron_serve.Server.of_image (Ron_serve.Server.image frozen)))

(* ---------------------------------------------------- DLS vs the oracle *)

module Pool = Ron_util.Pool

let dls_at ~jobs tri =
  Pool.set_default_jobs (Some jobs);
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs None) (fun () -> Dls.build tri)

(* A random cloud or grid and a delta in {1/4, 1/8}. *)
let gen_instance =
  QCheck.(
    map
      (fun (is_grid, size, (seed, d)) ->
        let m =
          if is_grid then Generators.grid2d (3 + (size mod 4)) (3 + (seed mod 4))
          else Generators.random_cloud (Rng.create seed) ~n:(12 + size) ~dim:(1 + (seed mod 2))
        in
        Triangulation.build (Indexed.create m) ~delta:(if d = 0 then 0.25 else 0.125))
      (triple bool (int_range 0 28) (pair (int_range 1 1000) (int_range 0 1))))

let row_of (off : Dls.ints) (col : (_, _, _) Bigarray.Array1.t) u =
  Array.init (off.{u + 1} - off.{u}) (fun k -> col.{off.{u} + k})

let prop_dls_columns_match_oracle =
  QCheck.Test.make ~name:"flat columns = hash-join oracle, segment by segment" ~count:6
    gen_instance (fun tri ->
      let dls = Dls.build tri in
      let oracle = Dls_oracle.build tri dls in
      let c = Dls.export dls in
      let n = Indexed.size (Triangulation.idx tri) in
      Dls_oracle.of_rows c = Dls_oracle.segments oracle
      && List.for_all
           (fun u ->
             let l = oracle.Dls_oracle.labels.(u) in
             Dls.host_beacons dls u = oracle.Dls_oracle.hosts.(u)
             && row_of c.d_off c.d_val u = l.Dls_oracle.dists
             && c.zoom_first.{u} = l.Dls_oracle.zoom_first
             && Array.init c.levels (fun i -> c.zoom_rest.{(u * c.levels) + i})
                = l.Dls_oracle.zoom_rest)
           (List.init n Fun.id))

let prop_dls_estimate_matches_oracle =
  QCheck.Test.make ~name:"estimate = oracle decoder, built and wire labels" ~count:6
    QCheck.(pair gen_instance (int_range 1 1000))
    (fun (tri, seed) ->
      let dls = Dls.build tri in
      let oracle = Dls_oracle.build tri dls in
      let c = Dls.export dls in
      let wc = Dls.wire_codec dls in
      let wire u = Dls.deserialize wc (fst (Dls.serialize wc (Dls.label dls u))) in
      let n = Indexed.size (Triangulation.idx tri) in
      let rng = Rng.create seed in
      List.for_all
        (fun _ ->
          let u = Rng.int rng n and v = Rng.int rng n in
          let d = Dls_oracle.estimate oracle u v in
          Float.equal (Dls.estimate (Dls.label dls u) (Dls.label dls v)) d
          && (u = v || Float.equal (Dls_oracle.scan_rows c u v) d)
          && Float.equal (Dls.estimate (wire u) (Dls.label dls v)) d
          && Float.equal (Dls.estimate (Dls.label dls u) (wire v)) d)
        (List.init 40 Fun.id))

let prop_dls_columns_jobs_invariant =
  QCheck.Test.make ~name:"columns identical at 1 and 2 domains" ~count:4 gen_instance
    (fun tri -> Dls.export (dls_at ~jobs:1 tri) = Dls.export (dls_at ~jobs:2 tri))

let () =
  Alcotest.run "ron_labeling"
    [
      ( "triangulation",
        [
          Alcotest.test_case "(0,delta) guarantee on grid" `Quick test_tri_zero_delta_guarantee_grid;
          Alcotest.test_case "(0,delta) guarantee on exponential line" `Quick
            test_tri_zero_delta_guarantee_expline;
          Alcotest.test_case "(0,delta) guarantee on cloud" `Quick test_tri_zero_delta_guarantee_cloud;
          Alcotest.test_case "self estimate" `Quick test_tri_self_estimate;
          Alcotest.test_case "witness" `Quick test_tri_witness;
          Alcotest.test_case "order sane" `Quick test_tri_order_positive_and_bounded;
          Alcotest.test_case "beacons contain X and Y" `Quick test_tri_beacons_contain_xy;
          Alcotest.test_case "scale-0 canonical" `Quick test_tri_scale0_canonical;
          Alcotest.test_case "Y sets sane" `Quick test_tri_y_members_in_net;
          Alcotest.test_case "delta validation" `Quick test_tri_rejects_bad_delta;
          Alcotest.test_case "label bits" `Quick test_tri_label_bits_positive;
          Alcotest.test_case "constant ablation shrinks order" `Quick
            test_tri_tight_constants_shrink_order;
        ] );
      ( "beacon-baseline",
        [
          Alcotest.test_case "bounds valid" `Quick test_beacon_bounds_valid;
          Alcotest.test_case "bad pairs exist" `Quick test_beacon_has_bad_pairs;
          Alcotest.test_case "more beacons help" `Quick test_beacon_more_beacons_help;
          Alcotest.test_case "order" `Quick test_beacon_order;
          Alcotest.test_case "k validation" `Quick test_beacon_k_validation;
        ] );
      ( "trivial-dls",
        [
          Alcotest.test_case "exact" `Quick test_trivial_exact;
          Alcotest.test_case "linear bits" `Quick test_trivial_bits_linear;
        ] );
      ( "dls",
        [
          Alcotest.test_case "guarantee on grid" `Slow test_dls_guarantee_grid;
          Alcotest.test_case "guarantee on exponential line" `Quick test_dls_guarantee_expline;
          Alcotest.test_case "guarantee on cloud" `Slow test_dls_guarantee_cloud;
          Alcotest.test_case "self" `Quick test_dls_self;
          Alcotest.test_case "symmetric" `Quick test_dls_symmetric;
          Alcotest.test_case "zooming sequence shape" `Quick test_dls_zooming_sequence_shape;
          Alcotest.test_case "claim 3.5c" `Quick test_dls_virtual_neighbors_contain_zoom_successors;
          Alcotest.test_case "label bits" `Quick test_dls_label_bits_positive;
          Alcotest.test_case "cross-scheme failure injection" `Quick test_dls_cross_scheme_rejected;
          Alcotest.test_case "log log Delta scaling" `Slow test_dls_aspect_ratio_scaling;
        ] );
      ("enumeration", [ Alcotest.test_case "with prefix" `Quick test_host_enumeration_prefix ]);
      ( "tri-oracle",
        List.map QCheck_alcotest.to_alcotest
          [ prop_tri_rows_match_oracle; prop_baseline_matches_oracle ] );
      ( "dls-oracle",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dls_columns_match_oracle;
            prop_dls_estimate_matches_oracle;
            prop_dls_columns_jobs_invariant;
          ] );
    ]
