(* Tests for Meridian-style closest-node discovery (Section 6 / [57]) and
   its ring maintenance under churn, plus the Labelled_m metric routing
   scheme (Table 2 row 3). *)

module Rng = Ron_util.Rng
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Metric = Ron_metric.Metric
module Meridian = Ron_smallworld.Meridian
module Labelled_m = Ron_routing.Labelled_m
module Scheme = Ron_routing.Scheme

let check_bool msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)

let overlay_fixture =
  lazy
    (let idx = Indexed.create (Generators.random_cloud (Rng.create 4) ~n:200 ~dim:2) in
     let members = Array.init 160 Fun.id in
     let t = Meridian.build idx (Rng.create 5) ~ring_size:8 ~members in
     (idx, t))

(* ------------------------------------------------------------- queries *)

let test_members () =
  let (_, t) = Lazy.force overlay_fixture in
  check_int "member count" 160 (Array.length (Meridian.members t));
  check_bool "member" (Meridian.is_member t 0);
  check_bool "non-member" (not (Meridian.is_member t 180))

let test_ring_structure () =
  let (idx, t) = Lazy.force overlay_fixture in
  (* Every ring member of u at scale i sits in the annulus (2^(i-1), 2^i]
     (scale 0: distance <= 1... <= 2^0). *)
  Array.iter
    (fun u ->
      for i = 0 to Indexed.log2_aspect_ratio idx do
        Array.iter
          (fun v ->
            let d = Indexed.dist idx u v in
            check_bool "annulus upper" (d <= Ron_util.Bits.pow2 i +. 1e-9);
            if i > 0 then check_bool "annulus lower" (d > Ron_util.Bits.pow2 (i - 1) -. 1e-9))
          (Meridian.ring t u i)
      done)
    (Meridian.members t)

let test_ring_size_cap () =
  let (_, t) = Lazy.force overlay_fixture in
  Array.iter
    (fun u ->
      for i = 0 to 20 do
        check_bool "ring size cap" (Array.length (Meridian.ring t u i) <= 8)
      done)
    (Meridian.members t)

let test_closest_finds_near_member () =
  let (idx, t) = Lazy.force overlay_fixture in
  let rng = Rng.create 6 in
  let exact = ref 0 and total = ref 0 in
  for target = 160 to 199 do
    let start = Rng.int rng 160 in
    let r = Meridian.closest t ~start ~target in
    let truth = Meridian.exact_closest t target in
    incr total;
    if r.Meridian.found = truth then incr exact
    else begin
      (* Even on a miss the result must be a member within a small factor. *)
      check_bool "found is a member" (Meridian.is_member t r.Meridian.found);
      let a = Indexed.dist idx r.Meridian.found target in
      let b = Indexed.dist idx truth target in
      check_bool "miss within 4x" (a <= (4.0 *. b) +. 1e-9)
    end
  done;
  check_bool
    (Printf.sprintf "mostly exact (%d/%d)" !exact !total)
    (float_of_int !exact >= 0.8 *. float_of_int !total)

let test_closest_on_member_target () =
  (* Searching for a target that IS a member must find it exactly (distance
     0 beats everything). *)
  let (_, t) = Lazy.force overlay_fixture in
  let r = Meridian.closest t ~start:0 ~target:42 in
  check_int "finds the member itself" 42 r.Meridian.found

let test_closest_rejects_non_member_start () =
  let (_, t) = Lazy.force overlay_fixture in
  Alcotest.check_raises "start must be a member"
    (Invalid_argument "Meridian.closest: start is not a member") (fun () ->
      ignore (Meridian.closest t ~start:180 ~target:0))

let test_closest_hops_logarithmic () =
  let (idx, t) = Lazy.force overlay_fixture in
  let cap = 2 * Indexed.log2_aspect_ratio idx in
  for target = 160 to 199 do
    let r = Meridian.closest t ~start:0 ~target in
    check_bool "hops O(log Delta)" (r.Meridian.hops <= cap)
  done

(* --------------------------------------------------------- multi-range *)

let test_within_precision () =
  (* Every returned member must genuinely lie within the radius. *)
  let (idx, t) = Lazy.force overlay_fixture in
  let rng = Rng.create 12 in
  for target = 160 to 199 do
    let radius = 2.0 +. Rng.float rng 40.0 in
    let r = Meridian.within t ~start:0 ~target ~radius in
    Array.iter
      (fun v ->
        check_bool "precision" (Indexed.dist idx v target <= radius +. 1e-9);
        check_bool "member" (Meridian.is_member t v))
      r.Meridian.matches
  done

let test_within_recall () =
  (* Best-effort recall, like Meridian: on this fixture with ring size 8 the
     overwhelming majority of true matches must be found. *)
  let (_, t) = Lazy.force overlay_fixture in
  let rng = Rng.create 13 in
  let found = ref 0 and truth_total = ref 0 in
  for target = 160 to 199 do
    let radius = 5.0 +. Rng.float rng 40.0 in
    let r = Meridian.within t ~start:0 ~target ~radius in
    let truth = Meridian.exact_within t target radius in
    found := !found + Array.length r.Meridian.matches;
    truth_total := !truth_total + Array.length truth;
    (* Matches are a subset of the truth (precision is exact). *)
    Array.iter
      (fun v -> check_bool "subset of truth" (Array.exists (( = ) v) truth))
      r.Meridian.matches
  done;
  check_bool
    (Printf.sprintf "recall >= 90%% (%d/%d)" !found !truth_total)
    (float_of_int !found >= 0.9 *. float_of_int !truth_total)

let test_within_empty_ball () =
  let (_, t) = Lazy.force overlay_fixture in
  (* Radius so small only an exact member would match a non-member target:
     typically empty, never an error. *)
  let r = Meridian.within t ~start:0 ~target:170 ~radius:0.0001 in
  check_bool "no false positives" (Array.length r.Meridian.matches <= 1)

let test_within_rejects_negative_radius () =
  let (_, t) = Lazy.force overlay_fixture in
  Alcotest.check_raises "negative radius" (Invalid_argument "Meridian.within: negative radius")
    (fun () -> ignore (Meridian.within t ~start:0 ~target:170 ~radius:(-1.0)))

(* --------------------------------------------------------------- churn *)

let test_join_leave () =
  let idx = Indexed.create (Generators.random_cloud (Rng.create 7) ~n:120 ~dim:2) in
  let t = Meridian.build idx (Rng.create 8) ~ring_size:6 ~members:(Array.init 100 Fun.id) in
  (* Join the held-out nodes. *)
  for u = 100 to 119 do
    Meridian.join t (Rng.create u) u
  done;
  check_int "grown" 120 (Array.length (Meridian.members t));
  (* A fresh member is findable. *)
  let r = Meridian.closest t ~start:0 ~target:110 in
  check_int "joined node found" 110 r.Meridian.found;
  (* Leave: no ring may retain the departed node. *)
  for u = 0 to 49 do
    Meridian.leave t u
  done;
  check_int "shrunk" 70 (Array.length (Meridian.members t));
  Array.iter
    (fun u ->
      for i = 0 to 12 do
        Array.iter (fun v -> check_bool "no stale entries" (v >= 50)) (Meridian.ring t u i)
      done)
    (Meridian.members t);
  (* Queries still work against the shrunken overlay. *)
  let r = Meridian.closest t ~start:60 ~target:10 in
  check_bool "post-churn query settles on a member" (Meridian.is_member t r.Meridian.found)

let test_join_duplicate_rejected () =
  let (_, t) = Lazy.force overlay_fixture in
  Alcotest.check_raises "duplicate join" (Invalid_argument "Meridian.join: already a member")
    (fun () -> Meridian.join t (Rng.create 1) 0)

let test_leave_validation () =
  let idx = Indexed.create (Generators.random_cloud (Rng.create 9) ~n:10 ~dim:2) in
  let t = Meridian.build idx (Rng.create 10) ~ring_size:4 ~members:[| 0 |] in
  Alcotest.check_raises "cannot empty" (Invalid_argument "Meridian.leave: cannot empty the overlay")
    (fun () -> Meridian.leave t 0);
  Alcotest.check_raises "not a member" (Invalid_argument "Meridian.leave: not a member")
    (fun () -> Meridian.leave t 5)

(* -------------------------------------------------------------- oracle *)

(* The rows, the walk and the repairs against the list-based Meridian the
   library first wrote ([Meridian_oracle]): same rings in the same order
   after the build and after every join and leave, and the same answers
   and charged counts from [closest] (fault-free and under faults) and
   [within]. *)

module Oracle = Meridian_oracle
module Fault = Ron_fault.Fault
module Counter = Ron_obs.Counter
module Probe = Ron_obs.Probe
module Ledger = Ron_obs.Ledger

(* A random cloud or the clustered-latency metric, 16 to 70 points. *)
let oracle_metric ~clustered ~size ~seed =
  let rng = Rng.create seed in
  Indexed.create
    (if clustered then
       Generators.clustered_latency rng ~clusters:(2 + (size mod 4)) ~per_cluster:(4 + (size / 6))
         ~spread:30.0 ~access:6.0
     else Generators.random_cloud rng ~n:size ~dim:2)

let walk_counters =
  [
    Probe.meridian_probes; Probe.dist_evals; Probe.ring_probes; Probe.ring_members_scanned;
    Probe.meridian_hops; Probe.fault_drops; Probe.fault_crashed_hits; Probe.fault_dead_links;
  ]

(* [f ()] with the probes on, charged to a fresh ledger entry: its result,
   then the counters' deltas and the entry's counts. *)
let charged f =
  let before = List.map Counter.value walk_counters in
  let was_on = !Probe.on in
  Probe.on := true;
  let r, (e : Ledger.entry) =
    Fun.protect
      ~finally:(fun () -> Probe.on := was_on)
      (fun () -> Ledger.with_query ~kind:"meridian.oracle" ~id:0 f)
  in
  let deltas = List.map2 (fun c b -> Counter.value c - b) walk_counters before in
  (r, deltas @ [ e.dist_evals; e.ball_queries; e.ring_lookups; e.ring_members; e.hops ])

(* The first ring, or membership, that differs. *)
let rows_differ idx t o =
  let n = Indexed.size idx and scales = Indexed.log2_aspect_ratio idx + 1 in
  let rec go u i =
    if u >= n then None
    else if i >= scales then go (u + 1) 0
    else if Meridian.is_member t u <> o.Oracle.member.(u) then
      Some (Printf.sprintf "membership of %d" u)
    else if Meridian.ring t u i <> Oracle.ring o u i then Some (Printf.sprintf "ring (%d, %d)" u i)
    else go u (i + 1)
  in
  go 0 0

(* Seeded closest (fault-free, then under crash, drop and dead-link rates
   up to 0.1) and within queries: the first that differs. *)
let queries_differ rs idx t o =
  let n = Indexed.size idx and members = Meridian.members t in
  let pick () = members.(Random.State.int rs (Array.length members)) in
  let rate () = Random.State.float rs 0.1 in
  let rec go q =
    if q >= 24 then None
    else begin
      let start = pick () and target = Random.State.int rs n in
      let fault =
        if q < 8 then None
        else
          Some
            ( Fault.make ~seed:(Random.State.bits rs) ~crash_fraction:(rate ()) ~drop_rate:(rate ())
                ~dead_link_fraction:(rate ()) ~n (),
              q )
      in
      let radius = Indexed.dist idx (pick ()) target *. Random.State.float rs 1.5 in
      let same_closest =
        match fault with
        | Some (f, _) when Fault.crashed f start -> true
        | _ ->
          let a, ca = charged (fun () -> Meridian.closest ?fault t ~start ~target) in
          let b, cb = charged (fun () -> Oracle.closest ?fault o ~start ~target) in
          (a.Meridian.found, a.hops, a.measurements, ca)
          = (b.Oracle.found, b.hops, b.measurements, cb)
      in
      let a, ca = charged (fun () -> Meridian.within t ~start ~target ~radius) in
      let b, cb = charged (fun () -> Oracle.within o ~start ~target ~radius) in
      if not same_closest then Some (Printf.sprintf "closest %d -> %d (query %d)" start target q)
      else if
        (a.Meridian.matches, a.range_hops, a.range_measurements, ca)
        <> (b.Oracle.matches, b.range_hops, b.range_measurements, cb)
      then Some (Printf.sprintf "within %g of %d from %d" radius target start)
      else go (q + 1)
    end
  in
  go 0

(* Seeded joins, leaves and counted leaves on both, the joins drawing from
   one RNG stream each: the first step whose counts or rows differ. *)
let repairs_differ rs ~seed idx t o =
  let n = Indexed.size idx in
  let rt = Rng.create seed and ro = Rng.create seed in
  let rec go step =
    if step >= 16 then None
    else begin
      let u = Random.State.int rs n in
      let what, same =
        if not (Meridian.is_member t u) then
          if step mod 2 = 0 then begin
            Meridian.join t rt u;
            Oracle.join o ro u;
            ("join", true)
          end
          else ("join_counted", Meridian.join_counted t rt u = Oracle.join_counted o ro u)
        else if Array.length (Meridian.members t) <= 2 then ("none", true)
        else if step mod 2 = 0 then begin
          Meridian.leave t u;
          Oracle.leave o u;
          ("leave", true)
        end
        else ("leave_counted", Meridian.leave_counted t u = Oracle.leave_counted o u)
      in
      match (same, rows_differ idx t o) with
      | false, _ -> Some (Printf.sprintf "step %d: %s %d counts" step what u)
      | true, Some d -> Some (Printf.sprintf "step %d: %s %d, then %s" step what u d)
      | true, None -> go (step + 1)
    end
  in
  go 0

(* With the probes on, each [closest] adds one sample to
   meridian.probes_per_query: the walk's measurement count. The histogram
   keeps min and max exactly, so after a reset before each walk it holds
   that one sample: count 1 and min = max = the measurements. *)
let test_closest_probes_per_query () =
  let (_, t) = Lazy.force overlay_fixture in
  let module H = Ron_obs.Histogram in
  let h = Probe.meridian_probes_hist in
  let rng = Rng.create 8 in
  List.iter
    (fun target ->
      H.reset h;
      let r, _ = charged (fun () -> Meridian.closest t ~start:(Rng.int rng 160) ~target) in
      let s = H.summary h in
      check_int "one sample per closest" 1 s.H.count;
      check_bool "the sample is the measurement count"
        (s.H.min = float_of_int r.Meridian.measurements && s.H.max = s.H.min))
    (List.init 40 (fun i -> 160 + i));
  H.reset h;
  ignore (Meridian.closest t ~start:0 ~target:170);
  check_int "no sample with the probes off" 0 (H.count h)

let prop_matches_oracle =
  let print (clustered, ring_size, size, seed) =
    Printf.sprintf "%s, ring size %d, size %d, seed %d"
      (if clustered then "clustered" else "cloud")
      ring_size size seed
  in
  QCheck.Test.make ~name:"rows, walks and repairs equal the list oracle" ~count:40
    (QCheck.make ~print
       QCheck.Gen.(quad bool (int_range 2 16) (int_range 16 70) (int_range 1 1_000_000)))
    (fun (clustered, ring_size, size, seed) ->
      let idx = oracle_metric ~clustered ~size ~seed in
      let n = Indexed.size idx in
      let perm = Array.init n Fun.id in
      Rng.shuffle (Rng.create seed) perm;
      let members = Array.sub perm 0 (max 2 (3 * n / 4)) in
      let t = Meridian.build idx (Rng.create (seed + 1)) ~ring_size ~members in
      let o = Oracle.build idx (Rng.create (seed + 1)) ~ring_size ~members in
      let pristine = Meridian.copy t in
      let rs = Random.State.make [| seed |] in
      let fail what = function
        | None -> true
        | Some d -> QCheck.Test.fail_reportf "%s: %s differs" what d
      in
      fail "build" (rows_differ idx t o)
      && fail "queries after build" (queries_differ rs idx t o)
      && fail "repairs" (repairs_differ rs ~seed idx t o)
      && fail "queries after repairs" (queries_differ rs idx t o)
      && fail "the copy taken before the repairs"
           (rows_differ idx pristine
              (Oracle.build idx (Rng.create (seed + 1)) ~ring_size ~members)))

(* ------------------------------------------------------------ Labelled_m *)

let test_labelled_m_all_pairs () =
  let idx = Indexed.create (Generators.random_cloud (Rng.create 11) ~n:60 ~dim:2) in
  let s = Labelled_m.build idx ~delta:0.25 in
  let n = Indexed.size idx in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        let r = Labelled_m.route s ~src:u ~dst:v in
        check_bool "delivered" r.Scheme.delivered;
        check_bool "stretch" (Scheme.stretch r (Indexed.dist idx u v) <= 2.0)
      end
    done
  done

let test_labelled_m_expline () =
  let idx = Indexed.create (Generators.exponential_line 20) in
  let s = Labelled_m.build idx ~delta:0.25 in
  for u = 0 to 19 do
    for v = 0 to 19 do
      if u <> v then check_bool "delivered" (Labelled_m.route s ~src:u ~dst:v).Scheme.delivered
    done
  done;
  check_bool "degree <= n" (Labelled_m.out_degree s <= 20);
  Array.iter (fun b -> check_bool "table bits" (b > 0)) (Labelled_m.table_bits s);
  check_bool "header bits" (Labelled_m.header_bits s > 0)

let test_labelled_m_validation () =
  let idx = Indexed.create (Generators.grid2d 4 4) in
  Alcotest.check_raises "delta" (Invalid_argument "Labelled_m.build: delta must be in (0, 2/3)")
    (fun () -> ignore (Labelled_m.build idx ~delta:0.8))

let () =
  Alcotest.run "ron_meridian"
    [
      ( "overlay",
        [
          Alcotest.test_case "members" `Quick test_members;
          Alcotest.test_case "ring annuli" `Quick test_ring_structure;
          Alcotest.test_case "ring size cap" `Quick test_ring_size_cap;
        ] );
      ( "queries",
        [
          Alcotest.test_case "finds near member" `Quick test_closest_finds_near_member;
          Alcotest.test_case "member target" `Quick test_closest_on_member_target;
          Alcotest.test_case "start validation" `Quick test_closest_rejects_non_member_start;
          Alcotest.test_case "hop bound" `Quick test_closest_hops_logarithmic;
          Alcotest.test_case "probes per query" `Quick test_closest_probes_per_query;
        ] );
      ( "multi-range",
        [
          Alcotest.test_case "precision" `Quick test_within_precision;
          Alcotest.test_case "recall" `Quick test_within_recall;
          Alcotest.test_case "empty ball" `Quick test_within_empty_ball;
          Alcotest.test_case "negative radius" `Quick test_within_rejects_negative_radius;
        ] );
      ( "churn",
        [
          Alcotest.test_case "join/leave" `Quick test_join_leave;
          Alcotest.test_case "duplicate join" `Quick test_join_duplicate_rejected;
          Alcotest.test_case "leave validation" `Quick test_leave_validation;
        ] );
      ("oracle", [ QCheck_alcotest.to_alcotest prop_matches_oracle ]);
      ( "labelled-m",
        [
          Alcotest.test_case "all pairs cloud" `Slow test_labelled_m_all_pairs;
          Alcotest.test_case "exponential line" `Quick test_labelled_m_expline;
          Alcotest.test_case "validation" `Quick test_labelled_m_validation;
        ] );
    ]
