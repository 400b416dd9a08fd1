(* Cross-module integration tests: full pipelines over one metric, cross-
   checks between independently computed quantities, determinism, and
   metamorphic properties (scale invariance, submetric restriction). *)

module Rng = Ron_util.Rng
module Metric = Ron_metric.Metric
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Net = Ron_metric.Net
module Measure = Ron_metric.Measure
module Packing = Ron_metric.Packing
module Triangulation = Ron_labeling.Triangulation
module Dls = Ron_labeling.Dls
module On_metric = Ron_routing.On_metric
module Two_mode = Ron_routing.Two_mode
module Scheme = Ron_routing.Scheme
module Doubling_a = Ron_smallworld.Doubling_a
module Sw_model = Ron_smallworld.Sw_model

let check_bool msg b = Alcotest.(check bool) msg true b

(* One shared pipeline fixture. *)
let fixture =
  lazy
    (let idx = Indexed.create (Generators.random_cloud (Rng.create 20) ~n:70 ~dim:2) in
     let tri = Triangulation.build idx ~delta:0.25 in
     let dls = Dls.build tri in
     (idx, tri, dls))

(* ------------------------------------------------------- cross-checking *)

let test_tri_vs_dls_consistency () =
  (* The label-only D+ can only use beacons the triangulation also has, so
     it can never beat the triangulation's D+ by more than quantization,
     and both must upper-bound the true distance. *)
  let (idx, tri, dls) = Lazy.force fixture in
  let n = Indexed.size idx in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Indexed.dist idx u v in
      let (_, tri_hi) = Triangulation.estimate tri u v in
      let dls_hi = Dls.estimate (Dls.label dls u) (Dls.label dls v) in
      check_bool "tri upper bounds d" (tri_hi >= d -. 1e-9);
      check_bool "dls upper bounds d" (dls_hi >= d -. 1e-9);
      check_bool "dls within quantization of tri" (dls_hi >= tri_hi -. 1e-9)
    done
  done

let test_routing_length_vs_dls_estimate () =
  (* A (1+delta)-stretch route can never be shorter than the true distance,
     and the label estimate upper-bounds the route's lower bound. *)
  let (idx, _, dls) = Lazy.force fixture in
  let scheme = On_metric.build idx ~delta:0.25 in
  let n = Indexed.size idx in
  let rng = Rng.create 21 in
  for _ = 1 to 300 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let r = On_metric.route scheme ~src:u ~dst:v in
      let d = Indexed.dist idx u v in
      let est = Dls.estimate (Dls.label dls u) (Dls.label dls v) in
      check_bool "route >= distance" (r.Scheme.length >= d -. 1e-9);
      check_bool "route within stretch of estimate"
        (r.Scheme.length <= ((1.25 /. 0.75) *. est) +. 1e-9)
    end
  done

let test_witness_is_shared_beacon () =
  let (idx, tri, _) = Lazy.force fixture in
  let oracle = Triangulation_oracle.build tri in
  let n = Indexed.size idx in
  for u = 0 to n - 1 do
    let v = (u + 13) mod n in
    if u <> v then begin
      let w = Triangulation_oracle.witness oracle u v in
      let mem arr x = Array.exists (( = ) x) arr in
      check_bool "witness in u's beacons" (mem (Triangulation.beacons tri u) w);
      check_bool "witness in v's beacons" (mem (Triangulation.beacons tri v) w);
      ignore idx
    end
  done

let test_packing_balls_are_hierarchy_consistent () =
  (* Packing members must honor the index's ball queries. *)
  let (idx, tri, _) = Lazy.force fixture in
  for i = 0 to Triangulation.levels tri - 1 do
    let p = Triangulation.packing tri i in
    Array.iter
      (fun b ->
        Array.iter
          (fun m ->
            check_bool "member within radius"
              (Indexed.dist idx b.Packing.center m <= b.Packing.radius +. 1e-9))
          b.Packing.members)
      (Packing.balls p)
  done

(* ---------------------------------------------------------- determinism *)

let test_deterministic_construction () =
  (* Same seed, same metric: every derived artifact must be identical. *)
  let build seed =
    let idx = Indexed.create (Generators.random_cloud (Rng.create seed) ~n:50 ~dim:2) in
    let tri = Triangulation.build idx ~delta:0.25 in
    let dls = Dls.build tri in
    let wc = Dls.wire_codec dls in
    let bytes = Array.init 50 (fun u -> fst (Dls.serialize wc (Dls.label dls u))) in
    (Triangulation.order tri, bytes)
  in
  let (o1, b1) = build 77 and (o2, b2) = build 77 in
  check_bool "order deterministic" (o1 = o2);
  check_bool "labels byte-identical" (b1 = b2)

let test_seed_changes_smallworld () =
  let idx = Indexed.create (Generators.random_cloud (Rng.create 30) ~n:60 ~dim:2) in
  let mu = Measure.create idx (Net.Hierarchy.create idx) in
  let a1 = Doubling_a.build idx mu (Rng.create 1) in
  let a2 = Doubling_a.build idx mu (Rng.create 1) in
  let a3 = Doubling_a.build idx mu (Rng.create 2) in
  check_bool "same seed, same contacts" (Doubling_a.contacts a1 = Doubling_a.contacts a2);
  check_bool "different seed, different contacts"
    (Doubling_a.contacts a1 <> Doubling_a.contacts a3)

(* ----------------------------------------------------------- metamorphic *)

let prop_triangulation_scale_invariant =
  QCheck.Test.make ~name:"triangulation D+/d is invariant under metric scaling" ~count:8
    QCheck.(int_range 12 40)
    (fun n ->
      let m = Generators.random_cloud (Rng.create (n * 3)) ~n ~dim:2 in
      let m2 = Metric.scale m 8.0 in
      let t1 = Triangulation.build (Indexed.create m) ~delta:0.25 in
      let t2 = Triangulation.build (Indexed.create m2) ~delta:0.25 in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let (_, h1) = Triangulation.estimate t1 u v in
          let (_, h2) = Triangulation.estimate t2 u v in
          if Float.abs ((8.0 *. h1) -. h2) > 1e-6 *. h2 then ok := false
        done
      done;
      !ok)

let prop_routing_scale_invariant =
  QCheck.Test.make ~name:"metric routing stretch is invariant under scaling" ~count:6
    QCheck.(int_range 12 36)
    (fun n ->
      let m = Generators.random_cloud (Rng.create (n * 5)) ~n ~dim:2 in
      let s1 = On_metric.build (Indexed.create m) ~delta:0.25 in
      let s2 = On_metric.build (Indexed.create (Metric.scale m 4.0)) ~delta:0.25 in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then begin
            let r1 = On_metric.route s1 ~src:u ~dst:v in
            let r2 = On_metric.route s2 ~src:u ~dst:v in
            if r1.Scheme.path <> r2.Scheme.path then ok := false
          end
        done
      done;
      !ok)

let prop_dls_never_contracts_on_random_metrics =
  QCheck.Test.make ~name:"labels never contract across random metrics and deltas" ~count:6
    QCheck.(pair (int_range 12 36) (int_range 1 4))
    (fun (n, di) ->
      let delta = 0.08 *. float_of_int di in
      let idx = Indexed.create (Generators.random_cloud (Rng.create (n * 7 + di)) ~n ~dim:2) in
      let dls = Dls.build (Triangulation.build idx ~delta) in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if
            u <> v
            && Dls.estimate (Dls.label dls u) (Dls.label dls v) < Indexed.dist idx u v -. 1e-9
          then ok := false
        done
      done;
      !ok)

let prop_two_mode_delivers_on_random_metrics =
  QCheck.Test.make ~name:"two-mode scheme delivers on random metrics" ~count:5
    QCheck.(int_range 12 36)
    (fun n ->
      let idx = Indexed.create (Generators.random_cloud (Rng.create (n * 11)) ~n ~dim:2) in
      let tm = Two_mode.build idx ~delta:0.125 in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && not (Two_mode.route tm ~src:u ~dst:v).Scheme.delivered then ok := false
        done
      done;
      !ok)

let prop_smallworld_delivers_on_latency_metrics =
  QCheck.Test.make ~name:"Thm 5.2a delivers on latency metrics" ~count:5
    QCheck.(int_range 2 5)
    (fun clusters ->
      let idx =
        Indexed.create
          (Generators.clustered_latency (Rng.create (clusters * 3)) ~clusters ~per_cluster:20
             ~spread:25.0 ~access:5.0)
      in
      let mu = Measure.create idx (Net.Hierarchy.create idx) in
      let a = Doubling_a.build idx mu (Rng.create clusters) in
      let n = Indexed.size idx in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && not (Doubling_a.route a ~src:u ~dst:v ~max_hops:100).Sw_model.delivered
          then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------ failure injection *)

let test_scheme_mismatch_detected () =
  (* Labels from schemes with different prefix lengths must be rejected. *)
  let (_, _, dls_a) = Lazy.force fixture in
  let idx_b = Indexed.create (Generators.exponential_line 16) in
  let dls_b = Dls.build (Triangulation.build idx_b ~delta:0.25) in
  let la = Dls.label dls_a 3 and lb = Dls.label dls_b 4 in
  let outcome =
    try
      ignore (Dls.estimate la lb);
      `Finite
    with
    | Failure _ -> `Raised
    | Invalid_argument _ -> `Raised
  in
  check_bool "mismatch detected or harmless" (outcome = `Raised || outcome = `Finite)

let test_garbage_label_bytes () =
  (* Random bytes fed to the deserializer: must raise, never hang or return
     out-of-range indices that later crash estimation unpredictably. *)
  let (_, _, dls) = Lazy.force fixture in
  let wc = Dls.wire_codec dls in
  let rng = Rng.create 99 in
  for _ = 1 to 50 do
    let len = 1 + Rng.int rng 40 in
    let garbage = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    match Dls.deserialize wc garbage with
    | exception Invalid_argument _ -> ()
    | label -> (
      (* If it parses, estimation against a real label must either raise or
         produce a float; it must not loop. *)
      match Dls.estimate label (Dls.label dls 0) with
      | (_ : float) -> ()
      | exception Failure _ -> ()
      | exception Invalid_argument _ -> ())
  done;
  check_bool "garbage handled" true

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ron_integration"
    [
      ( "cross-checks",
        [
          Alcotest.test_case "triangulation vs labels" `Quick test_tri_vs_dls_consistency;
          Alcotest.test_case "routing vs labels" `Quick test_routing_length_vs_dls_estimate;
          Alcotest.test_case "witness is shared" `Quick test_witness_is_shared_beacon;
          Alcotest.test_case "packing consistency" `Quick test_packing_balls_are_hierarchy_consistent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "construction is deterministic" `Quick test_deterministic_construction;
          Alcotest.test_case "seeds matter" `Quick test_seed_changes_smallworld;
        ] );
      ( "metamorphic",
        [
          qt prop_triangulation_scale_invariant;
          qt prop_routing_scale_invariant;
          qt prop_dls_never_contracts_on_random_metrics;
          qt prop_two_mode_delivers_on_random_metrics;
          qt prop_smallworld_delivers_on_latency_metrics;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "scheme mismatch" `Quick test_scheme_mismatch_detected;
          Alcotest.test_case "garbage label bytes" `Quick test_garbage_label_bytes;
        ] );
    ]
