(* Machine-readable performance report: construction/query timings for the
   metric-index hot path (seed baseline vs optimized, sequential vs
   parallel) plus the headline Table 1-3 quantities, emitted as JSON so
   successive PRs accumulate a perf trajectory (see EXPERIMENTS.md,
   "Performance"). The encoder is Ron_obs.Json, shared with the CLI's
   --metrics-out; no external JSON dependency. *)

module Rng = Ron_util.Rng
module Pool = Ron_util.Pool
module Exp_common = Ron_experiments.Exp_common
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Net = Ron_metric.Net
module Measure = Ron_metric.Measure
open Ron_obs.Json

let to_string = Ron_obs.Json.to_string

(* ---------------------------------------------------------------- timing *)

let time f =
  let t0 = Ron_obs.Clock.now_ns () in
  let r = f () in
  (r, Ron_obs.Clock.since_s t0)

let time_unit f = snd (time f)

(* ----------------------------------------------------- index hot path *)

let index_same a b =
  let n = Indexed.size a in
  let ok = ref (n = Indexed.size b) in
  for u = 0 to n - 1 do
    for k = 0 to n - 1 do
      let (va, da) = Indexed.nth_neighbor a u k and (vb, db) = Indexed.nth_neighbor b u k in
      if va <> vb || da <> db then ok := false
    done
  done;
  !ok

let index_section n =
  let m = Generators.random_cloud (Rng.create 7) ~n ~dim:2 in
  let (reference, t_ref) = time (fun () -> Indexed.create_reference m) in
  let (seq, t_seq) = time (fun () -> Indexed.create ~jobs:1 m) in
  let (par, t_par) = time (fun () -> Indexed.create m) in
  let equal = index_same reference seq && index_same seq par in
  (* Query costs over the optimized index. *)
  let qrng = Rng.create 77 in
  let queries = 200_000 in
  let diam = Indexed.diameter par in
  let t_ball_count =
    time_unit (fun () ->
        for _ = 1 to queries do
          ignore (Indexed.ball_count par (Rng.int qrng n) (Rng.float qrng diam))
        done)
  in
  let t_radius =
    time_unit (fun () ->
        for _ = 1 to queries do
          ignore (Indexed.radius_for_count par (Rng.int qrng n) (1 + Rng.int qrng n))
        done)
  in
  let hier, t_hier = time (fun () -> Net.Hierarchy.create par) in
  let t_measure = time_unit (fun () -> ignore (Measure.create par hier)) in
  Obj
    [
      ("n", Int n);
      ("indexed_create_reference_s", Float t_ref);
      ("indexed_create_jobs1_s", Float t_seq);
      ("indexed_create_parallel_s", Float t_par);
      ("speedup_jobs1_vs_reference", Float (t_ref /. t_seq));
      ("speedup_parallel_vs_reference", Float (t_ref /. t_par));
      ("parallel_equals_sequential_equals_reference", Bool equal);
      ("ball_count_ns_per_query", Float (t_ball_count *. 1e9 /. float_of_int queries));
      ("radius_for_count_ns_per_query", Float (t_radius *. 1e9 /. float_of_int queries));
      ("net_hierarchy_create_s", Float t_hier);
      ("measure_create_s", Float t_measure);
    ]

(* ------------------------------------------------- graph-side hot path *)

module Dijkstra = Ron_graph.Dijkstra

(* Flat apsp vs the boxed reference, by exact float equality. *)
let apsp_matches_reference ap ref_ap =
  let n = Dijkstra.size ap in
  let ok = ref (n = Array.length ref_ap) in
  for u = 0 to n - 1 do
    let s = ref_ap.(u) in
    for v = 0 to n - 1 do
      if
        (not (Float.equal (Dijkstra.distance ap u v) s.Dijkstra.dist.(v)))
        || Dijkstra.first_hop ap u v <> s.Dijkstra.first_hop.(v)
      then ok := false
    done
  done;
  !ok

let apsp_same a b =
  let n = Dijkstra.size a in
  let ok = ref (n = Dijkstra.size b) in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if
        (not (Float.equal (Dijkstra.distance a u v) (Dijkstra.distance b u v)))
        || Dijkstra.first_hop a u v <> Dijkstra.first_hop b u v
      then ok := false
    done
  done;
  !ok

(* Peak resident set size in kB: the kernel's VmHWM high-water mark where
   /proc exists, getrusage max-RSS elsewhere — Ron_obs.Rss normalises
   units, so the column survives on non-Linux hosts too. *)
let peak_rss_kb () = Ron_obs.Rss.peak_kb ()

let graph_apsp_section n =
  (* Square grid with about n nodes: the experiments' canonical graph. *)
  let side = max 2 (int_of_float (Float.round (sqrt (float_of_int n)))) in
  let g = Ron_graph.Graph_gen.grid side side in
  (* Compact first: the index sections leave a large, fragmented major heap,
     and multi-domain minor collections pay for it in stop-the-world time —
     which would bill earlier sections' garbage to the jobs=4 rows. *)
  Gc.compact ();
  (* Five timing rounds, the four variants interleaved round-robin within
     each round, minimum per variant kept. One all-pairs allocates tens of
     MB, so single-shot timings are dominated by GC/paging state, and on a
     shared host a contention burst can span several consecutive runs —
     interleaving gives every variant a sample in each burst-free window,
     keeping the per-variant minima comparable. *)
  let rounds = 5 in
  let (ref_ap, t0_ref) = time (fun () -> Dijkstra.all_pairs_reference g) in
  let (a1, t0_j1) = time (fun () -> Dijkstra.all_pairs ~jobs:1 g) in
  let (a4, t0_j4) = time (fun () -> Dijkstra.all_pairs ~jobs:4 g) in
  let (ap, t0_par) = time (fun () -> Dijkstra.all_pairs g) in
  let t_ref = ref t0_ref and t_j1 = ref t0_j1 in
  let t_j4 = ref t0_j4 and t_par = ref t0_par in
  for _ = 2 to rounds do
    t_ref := Float.min !t_ref (time_unit (fun () -> ignore (Dijkstra.all_pairs_reference g)));
    t_j1 := Float.min !t_j1 (time_unit (fun () -> ignore (Dijkstra.all_pairs ~jobs:1 g)));
    t_j4 := Float.min !t_j4 (time_unit (fun () -> ignore (Dijkstra.all_pairs ~jobs:4 g)));
    t_par := Float.min !t_par (time_unit (fun () -> ignore (Dijkstra.all_pairs g)))
  done;
  let t_ref = !t_ref and t_j1 = !t_j1 and t_j4 = !t_j4 and t_par = !t_par in
  let equal = apsp_matches_reference a1 ref_ap && apsp_same a1 a4 && apsp_same a1 ap in
  Obj
    [
      ("nodes", Int (side * side));
      ("all_pairs_reference_s", Float t_ref);
      ("all_pairs_jobs1_s", Float t_j1);
      ("all_pairs_jobs4_s", Float t_j4);
      ("all_pairs_parallel_s", Float t_par);
      ("speedup_jobs1_vs_reference", Float (t_ref /. t_j1));
      ("speedup_jobs4_vs_reference", Float (t_ref /. t_j4));
      ("speedup_parallel_vs_reference", Float (t_ref /. t_par));
      ("jobs_bit_identical_and_matches_reference", Bool equal);
    ]

(* Construction timings for the graph-side schemes at a fixed size: the
   per-node table/label/ring builds this PR moved behind the pool. *)
let graph_construction_section () =
  let g = Ron_graph.Graph_gen.grid 12 12 in
  let (sp, t_sp) = time (fun () -> Ron_graph.Sp_metric.create g) in
  let t_basic = time_unit (fun () -> ignore (Ron_routing.Basic.build sp ~delta:0.25)) in
  let t_labelled = time_unit (fun () -> ignore (Ron_routing.Labelled.build sp ~delta:0.5)) in
  let idx = Indexed.create (Generators.grid2d 12 12) in
  let (tri, t_tri) = time (fun () -> Ron_labeling.Triangulation.build idx ~delta:0.22) in
  let t_dls = time_unit (fun () -> ignore (Ron_labeling.Dls.build tri)) in
  let t_meridian =
    time_unit (fun () ->
        ignore
          (Ron_smallworld.Meridian.build idx (Rng.create 9) ~ring_size:4
             ~members:(Array.init (Indexed.size idx) Fun.id)))
  in
  (* Oracle row-cache behaviour on a deterministic single-domain access
     pattern: capacity 4, three rounds of two hot sources plus one cold
     one, so hits, builds and evictions are all exercised and the counts
     are exact constants (6 builds, 6 hits, 2 evictions). *)
  let oracle =
    let module Probe = Ron_obs.Probe in
    let module Counter = Ron_obs.Counter in
    let o = Dijkstra.Oracle.create ~capacity:4 g in
    let h0 = Counter.value Probe.oracle_hits
    and b0 = Counter.value Probe.oracle_builds
    and e0 = Counter.value Probe.oracle_evicts in
    let was_on = !Probe.on in
    Probe.on := true;
    List.iter
      (fun s -> ignore (Dijkstra.Oracle.distances o s))
      [ 0; 1; 2; 3; 0; 1; 4; 0; 1; 5; 0; 1 ];
    Probe.on := was_on;
    Obj
      [
        ("capacity", Int (Dijkstra.Oracle.capacity o));
        ("row_hits", Int (Counter.value Probe.oracle_hits - h0));
        ("row_builds", Int (Counter.value Probe.oracle_builds - b0));
        ("row_evicts", Int (Counter.value Probe.oracle_evicts - e0));
      ]
  in
  let fields =
    [
      ("nodes", Int (Ron_graph.Graph.size g));
      ("sp_metric_create_s", Float t_sp);
      ("basic_build_s", Float t_basic);
      ("labelled_build_s", Float t_labelled);
      ("triangulation_build_s", Float t_tri);
      ("dls_build_s", Float t_dls);
      ("meridian_build_s", Float t_meridian);
      ("oracle", oracle);
    ]
  in
  Obj
    (match peak_rss_kb () with
    | Some kb -> fields @ [ ("peak_rss_kb", Int kb) ]
    | None -> fields)

let graph_section sizes =
  Obj
    [
      ("apsp", List (Stdlib.List.map graph_apsp_section sizes));
      ("construction", graph_construction_section ());
    ]

(* -------------------------------------------------------- scaling regime *)

(* The near-linear pipeline at sizes the eager path cannot touch: streamed
   torus generation, on-demand oracle metric, landmark + local-ball labels,
   sampled stretch. Parameters mirror Exp_scale so the deterministic
   quantities here cross-check the experiment's table; the timing keys and
   the peak-RSS high-water mark are what this section adds. Entries are
   keyed by "n" (bench_diff matches list entries on it), so a CI smoke at
   one size diffs cleanly against a baseline measured at several. *)
let scale_section n =
  let side = max 2 (int_of_float (Float.round (sqrt (float_of_int n)))) in
  let (g, t_gen) = time (fun () -> Ron_graph.Graph_gen.torus side side) in
  let nn = Ron_graph.Graph.size g in
  let (sp, t_sp) = time (fun () -> Ron_graph.Sp_metric.create g) in
  let k = max 4 (min 32 (1 + Ron_util.Bits.ilog2_floor nn)) in
  let (lm, t_lm) =
    time (fun () -> Ron_labeling.Landmark.build sp (Rng.create 97) ~k ~local_radius:2.0)
  in
  let (truth, t_truth) =
    time (fun () -> Ron_graph.Sp_metric.sample_ground_truth sp ~seed:1009 ~count:500)
  in
  let exact = ref 0 and hi_sum = ref 0.0 and hi_max = ref 1.0 in
  Array.iter
    (fun (u, v, d) ->
      let lo, hi = Ron_labeling.Landmark.estimate lm u v in
      if Float.equal lo hi then incr exact;
      let r = hi /. d in
      hi_sum := !hi_sum +. r;
      hi_max := Float.max !hi_max r)
    truth;
  let bits = Ron_labeling.Landmark.label_bits lm in
  let pairs = Array.length truth in
  let fields =
    [
      ("n", Int nn);
      ("torus_side", Int side);
      ("arcs", Int (2 * Ron_graph.Graph.edge_count g));
      ("sp_mode",
       String (match Ron_graph.Sp_metric.mode sp with
               | Ron_graph.Sp_metric.Eager -> "eager"
               | Ron_graph.Sp_metric.On_demand -> "ondemand"));
      ("beacons", Int k);
      ("graph_gen_s", Float t_gen);
      ("sp_metric_create_s", Float t_sp);
      ("landmark_build_s", Float t_lm);
      ("sample_ground_truth_s", Float t_truth);
      ("label_bits_max", Int (Array.fold_left max 0 bits));
      ("label_bits_mean",
       Float (float_of_int (Array.fold_left ( + ) 0 bits) /. float_of_int nn));
      ("sampled_pairs", Int pairs);
      ("exact_estimates", Int !exact);
      ("stretch_hi_mean", Float (!hi_sum /. float_of_int pairs));
      ("stretch_hi_max", Float !hi_max);
    ]
  in
  Obj
    (match peak_rss_kb () with
    | Some kb -> fields @ [ ("peak_rss_kb", Int kb) ]
    | None -> fields)

(* ----------------------------------------------------- serving hot path *)

(* The mean table bits a route-table scheme accounts per node (Tables 1
   and 3; M1 + M2 for Two_mode), beside which its entry reports the bits
   its snapshot serves. *)
let table_bits_per_node (live : Ron_serve.Fixture.live) =
  let mean a = float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (max 1 (Array.length a)) in
  match live with
  | Ron_serve.Fixture.L_basic s -> Some (mean (Ron_routing.Basic.table_bits s))
  | L_labelled s -> Some (mean (Ron_routing.Labelled.table_bits s))
  | L_two_mode s ->
    let module T = Ron_routing.Two_mode in
    Some (mean (Array.map2 ( + ) (T.table_bits_m1 s) (T.table_bits_m2 s)))
  | L_meridian _ | L_landmark _ -> None

(* The frozen-snapshot serving loop: freeze each scheme, round-trip it
   through a snapshot file, and serve a seeded Zipf-skewed mixed workload.
   Entries are keyed by scheme name (an Obj, not a List — five schemes
   would collide on bench_diff's "n" list matching). qps is the
   higher-is-better throughput key, over warm passes repeated for at least
   0.2 s; the digest and the two booleans are the deterministic
   regression surface (byte-identical across job counts and across the
   snapshot round-trip); minor_words_per_query is machine-noise (bench_diff
   ignores it) but alloc_within_budget pins the zero-allocation claim. *)
let serve_scheme_entry ~scheme ~n ~queries =
  let module Server = Ron_serve.Server in
  let module Loop = Ron_serve.Loop in
  let (live, t_build) = time (fun () -> Ron_serve.Fixture.build_live ~scheme ~n ~seed:5) in
  let table_bits = table_bits_per_node live in
  let (t, t_freeze) = time (fun () -> Ron_serve.Fixture.freeze live) in
  let nodes = Server.size t in
  let file = Filename.temp_file "ron_serve" ".snap" in
  Server.save t file;
  let bytes = Server.byte_size t in
  let (loaded, t_load) =
    time (fun () ->
        match Server.load file with
        | Ok t -> t
        | Error e -> failwith (Printf.sprintf "serve bench: reload of %s failed: %s" scheme e))
  in
  Sys.remove file;
  let work = Loop.prepare t ~seed:5 ~queries ~zipf_s:1.1 ~route_frac:0.6 ~dist_frac:0.3 in
  let res = Loop.results_create queries in
  (* Cold: first batch served straight off the freshly loaded image. *)
  let t_cold = time_unit (fun () -> Loop.run ~jobs:1 loaded work res) in
  let d_loaded = Loop.digest res in
  Loop.run ~jobs:1 t work res;
  let d1 = Loop.digest res in
  Loop.run ~jobs:4 t work res;
  let d4 = Loop.digest res in
  (* Warm throughput, at the ambient job count: passes repeat until 0.2 s
     have passed, so a pass of a few ms is not the whole sample. *)
  let passes = ref 0 and t_warm = ref 0.0 in
  while !t_warm < 0.2 do
    t_warm := !t_warm +. time_unit (fun () -> Loop.run t work res);
    incr passes
  done;
  let qps = float_of_int (!passes * queries) /. Float.max !t_warm 1e-9 in
  let hist =
    Ron_obs.Histogram.make (Printf.sprintf "serve.latency_ns.%s" scheme)
  in
  Loop.measure_latency ~limit:(min queries 5_000) t work res hist;
  let q p = Ron_obs.Histogram.quantile hist p in
  let words = Loop.minor_words_per_query t work res in
  let bytes_per_node = float_of_int bytes /. float_of_int (max 1 nodes) in
  let accounted =
    match table_bits with
    | Some bits ->
      [
        ("table_bits_per_node", Float bits);
        ("served_over_accounted", Float (8.0 *. bytes_per_node /. bits));
      ]
    | None -> []
  in
  ( Server.scheme_name t,
    Obj
      ([
        ("n", Int nodes);
        ("queries", Int queries);
        ("snapshot_bytes", Int bytes);
        ("snapshot_bytes_per_node", Float bytes_per_node);
      ]
      @ accounted
      @ [
        ("freeze_s", Float (t_build +. t_freeze));
        ("snapshot_load_s", Float t_load);
        ("cold_run_s", Float t_cold);
        ("qps", Float qps);
        ("latency_p50_ns", Float (q 0.5));
        ("latency_p99_ns", Float (q 0.99));
        ("latency_p999_ns", Float (q 0.999));
        ("digest", String (Printf.sprintf "%x" d1));
        ("roundtrip_identical", Bool (d_loaded = d1));
        ("jobs_invariant", Bool (d1 = d4));
        ("minor_words_per_query", Float words);
        ("alloc_within_budget", Bool (words < 0.5));
      ]) )

let serve_section () =
  Obj
    (List.map
       (fun scheme ->
         (* The labelled scheme's per-hop neighbor selection re-scores via
            DLS labels, so its per-query cost dwarfs the others'; a smaller
            instance and workload keep the section inside a CI budget. *)
         let (n, queries) = if scheme = "labelled" then (64, 400) else (100, 4_000) in
         serve_scheme_entry ~scheme ~n ~queries)
       Ron_serve.Fixture.names)

(* ----------------------------------------------------- slo / flight path *)

(* Observed serving under the logical clock: the per-query cost is a pure
   function of the result, so the flight dump and the SLO verdict must be
   byte-identical at jobs 1 and 4 — the two *_jobs_invariant booleans pin
   exactly that. burn-rate keys are lower-is-better (Bench_keys classifies
   "burn_rate" as Timing); the remaining numbers are deterministic. *)
let slo_scheme_entry ~scheme ~n ~queries =
  let module Server = Ron_serve.Server in
  let module Loop = Ron_serve.Loop in
  let module Flight = Ron_obs.Flight in
  let module Slo = Ron_obs.Slo in
  let t = Ron_serve.Fixture.build ~scheme ~n ~seed:5 in
  let work = Loop.prepare t ~seed:5 ~queries ~zipf_s:1.1 ~route_frac:0.6 ~dist_frac:0.3 in
  let res = Loop.results_create queries in
  let objectives =
    match Slo.parse "p99<=65536,delivery>=0.9" with
    | Ok o -> o
    | Error e -> failwith ("slo bench: " ^ e)
  in
  let observed jobs =
    let fr = Flight.create ~window:256 ~per_window:4 ~retain:4 ~trace_every:8 () in
    let s =
      Slo.create
        ~window:(max 1 (queries / 8))
        ~name:(Printf.sprintf "slo.bench.%s" scheme)
        objectives
    in
    Loop.run_observed ~jobs ~flight:fr ~slo:s t work res;
    (fr, s, Ron_obs.Json.to_line (Flight.to_json fr), Ron_obs.Json.to_line (Slo.to_json s))
  in
  let (fr, s, f1, v1) = observed 1 in
  let (_, _, f4, v4) = observed 4 in
  let (obs, okd) =
    List.fold_left
      (fun (a, b) (w : Slo.window_summary) -> (a + w.Slo.w_count, b + w.Slo.w_ok))
      (0, 0) (Slo.windows s)
  in
  let traced =
    List.fold_left
      (fun a (_, es) ->
        a + List.length (List.filter (fun x -> x.Flight.x_trace <> None) es))
      0 (Flight.dump fr)
  in
  ( Server.scheme_name t,
    Obj
      [
        ("n", Int (Server.size t));
        ("queries", Int queries);
        ("slo_window", Int (Slo.window s));
        ("windows", Int (Slo.windows_closed s));
        ("violation_windows", Int (Slo.violated_windows s));
        ("max_burn_rate", Float (Slo.max_burn s));
        ("delivery_rate", Float (float_of_int okd /. float_of_int (max 1 obs)));
        ("recorded", Int (Flight.recorded fr));
        ("exemplars", Int (Flight.exemplar_count fr));
        ("traced_exemplars", Int traced);
        ("flight_jobs_invariant", Bool (String.equal f1 f4));
        ("verdict_jobs_invariant", Bool (String.equal v1 v4));
        ("slo_ok", Bool (Slo.ok s));
      ] )

let slo_section () =
  Obj
    (List.map
       (fun scheme ->
         (* Same instance sizing rationale as serve_section. *)
         let (n, queries) = if scheme = "labelled" then (64, 400) else (100, 4_000) in
         slo_scheme_entry ~scheme ~n ~queries)
       Ron_serve.Fixture.names)

(* -------------------------------------------- Table 1-3 headline numbers *)

let max_arr = Array.fold_left max 0

let quality_obj (q : Exp_common.route_quality) =
  [
    ("stretch_max", Float q.Exp_common.stretch_max);
    ("stretch_mean", Float q.Exp_common.stretch_mean);
    ("hops_max", Int q.Exp_common.hops_max);
    ("hops_mean", Float q.Exp_common.hops_mean);
    ("failures", Int q.Exp_common.failures);
    ("truncated", Int q.Exp_common.truncated);
    ("self_forwards", Int q.Exp_common.self_forwards);
    ("cycled", Int q.Exp_common.cycled);
    ("dropped", Int q.Exp_common.dropped);
    ("queries", Int q.Exp_common.queries);
    (* Observed per-query costs, straight from the ledger. *)
    ("ring_lookups_mean", Float q.Exp_common.ring_lookups_mean);
    ("ring_lookups_max", Int q.Exp_common.ring_lookups_max);
    ("dist_evals_mean", Float q.Exp_common.dist_evals_mean);
    ("zoom_steps_mean", Float q.Exp_common.zoom_steps_mean);
  ]

let table1 () =
  let sp = Ron_graph.Sp_metric.create (Ron_graph.Graph_gen.grid 8 8) in
  let b = Ron_routing.Basic.build sp ~delta:0.25 in
  let n = Ron_graph.Graph.size (Ron_graph.Sp_metric.graph sp) in
  let pairs = Exp_common.sample_pairs (Rng.create 101) ~n ~count:800 in
  let q =
    Exp_common.collect_routes
      ~route:(fun u v -> Ron_routing.Basic.route b ~src:u ~dst:v)
      ~dist:(fun u v -> Ron_graph.Sp_metric.dist sp u v)
      pairs
  in
  Obj
    (( "graph", String "grid8x8")
     :: ("scheme", String "thm2.1")
     :: ("table_bits_max", Int (max_arr (Ron_routing.Basic.table_bits b)))
     :: ("header_bits", Int (Ron_routing.Basic.header_bits b))
     :: quality_obj q)

let table2 () =
  let idx = Indexed.create (Generators.random_cloud (Rng.create 202) ~n:200 ~dim:2) in
  let s = Ron_routing.On_metric.build idx ~delta:0.25 in
  let n = Indexed.size idx in
  let pairs = Exp_common.sample_pairs (Rng.create 203) ~n ~count:800 in
  let q =
    Exp_common.collect_routes
      ~route:(fun u v -> Ron_routing.On_metric.route s ~src:u ~dst:v)
      ~dist:(fun u v -> Indexed.dist idx u v)
      pairs
  in
  Obj
    (("metric", String "cloud200")
     :: ("scheme", String "thm2.1-metric")
     :: ("out_degree_max", Int (Ron_routing.On_metric.out_degree s))
     :: ("out_degree_mean", Float (Ron_routing.On_metric.mean_out_degree s))
     :: ("table_bits_max", Int (max_arr (Ron_routing.On_metric.table_bits s)))
     :: ("header_bits", Int (Ron_routing.On_metric.header_bits s))
     :: quality_obj q)

let table3 () =
  let idx = Indexed.create (Generators.grid2d 8 8) in
  let tm = Ron_routing.Two_mode.build idx ~delta:0.125 in
  Ron_routing.Two_mode.reset_counters tm;
  let n = Indexed.size idx in
  let pairs = Exp_common.sample_pairs (Rng.create 303) ~n ~count:600 in
  let q =
    Exp_common.collect_routes
      ~route:(fun u v -> Ron_routing.Two_mode.route tm ~src:u ~dst:v)
      ~dist:(fun u v -> Indexed.dist idx u v)
      pairs
  in
  Obj
    (("metric", String "grid8x8")
     :: ("scheme", String "thm4.2-two-mode")
     :: ("m1_bits_max", Int (max_arr (Ron_routing.Two_mode.table_bits_m1 tm)))
     :: ("m2_bits_max", Int (max_arr (Ron_routing.Two_mode.table_bits_m2 tm)))
     :: ("header_bits", Int (Ron_routing.Two_mode.header_bits tm))
     :: ("mode2_switches", Int (Ron_routing.Two_mode.mode2_switches tm))
     :: quality_obj q)

(* ---------------------------------------------------- fault injection *)

(* A fixed fault model over the Table 1 workload: how the headline scheme
   degrades when 5% of nodes crash and 1% of hops drop. Deterministic (pure
   function of the seeds), so the section doubles as a regression check on
   the fault layer's delivery/detour numbers. *)
let fault_section () =
  let module Fault = Ron_fault.Fault in
  let module Probe = Ron_obs.Probe in
  let module Counter = Ron_obs.Counter in
  let sp = Ron_graph.Sp_metric.create (Ron_graph.Graph_gen.grid 8 8) in
  let b = Ron_routing.Basic.build sp ~delta:0.25 in
  let n = Ron_graph.Graph.size (Ron_graph.Sp_metric.graph sp) in
  let fault =
    Fault.make ~seed:4242 ~crash_fraction:0.05 ~drop_rate:0.01 ~dead_link_fraction:0.01 ~n ()
  in
  let pairs =
    Exp_common.sample_pairs (Rng.create 101) ~n ~count:800
    |> List.filter (fun (u, v) -> not (Fault.crashed fault u || Fault.crashed fault v))
  in
  let d0 = Counter.value Probe.fault_drops
  and c0 = Counter.value Probe.fault_crashed_hits
  and l0 = Counter.value Probe.fault_dead_links
  and r0 = Counter.value Probe.fault_retries
  and v0 = Counter.value Probe.fault_detours in
  let q =
    Exp_common.collect_routes_keyed
      ~route:(fun ~query u v ->
        Ron_routing.Basic.route_wrapped (Fault.wrapper fault ~query) b ~src:u ~dst:v)
      ~dist:(fun u v -> Ron_graph.Sp_metric.dist sp u v)
      pairs
  in
  let delivered = q.Exp_common.queries - q.Exp_common.failures in
  Obj
    (("graph", String "grid8x8")
     :: ("scheme", String "thm2.1")
     :: ("model", String (Fault.describe fault))
     :: ("crashed_nodes", Int (Fault.crash_count fault))
     :: ("delivery_rate",
         Float (float_of_int delivered /. float_of_int (max 1 q.Exp_common.queries)))
     :: ("fault_drops", Int (Counter.value Probe.fault_drops - d0))
     :: ("fault_crashed_hits", Int (Counter.value Probe.fault_crashed_hits - c0))
     :: ("fault_dead_links", Int (Counter.value Probe.fault_dead_links - l0))
     :: ("fault_retries", Int (Counter.value Probe.fault_retries - r0))
     :: ("fault_detours", Int (Counter.value Probe.fault_detours - v0))
     :: quality_obj q)

(* ------------------------------------------------------------------ churn *)

(* Dynamic membership over the Table 1 workload: symmetric join/leave
   churn with incremental ring repair, one object per rate. Deterministic
   (pure function of the schedule seed), so the section regression-checks
   delivery, stretch inflation, query-time staleness, and repair cost per
   event. *)
let churn_section () =
  let module Churn = Ron_churn.Churn in
  let module Probe = Ron_obs.Probe in
  let module Counter = Ron_obs.Counter in
  let sp = Ron_graph.Sp_metric.create (Ron_graph.Graph_gen.grid 8 8) in
  let b = Ron_routing.Basic.build sp ~delta:0.25 in
  let n = Ron_graph.Graph.size (Ron_graph.Sp_metric.graph sp) in
  let pairs = Exp_common.sample_pairs (Rng.create 101) ~n ~count:800 in
  let base_stretch = ref nan in
  let row rate =
    let sched =
      Churn.Schedule.make ~seed:9191 ~n ~slots:120 ~join_rate:rate ~leave_rate:rate ()
    in
    let st = Churn.state_of_schedule sched in
    let rr =
      Churn.Ring_repair.create st (Ron_routing.Basic.substrate b)
        (Ron_routing.Basic.rings_collection b)
    in
    let was_on = !Probe.on in
    Probe.on := true;
    let summary =
      Fun.protect
        ~finally:(fun () -> Probe.on := was_on)
        (fun () ->
          Churn.Driver.apply sched st
            ~on_leave:(fun v -> Churn.Ring_repair.leave rr v)
            ~on_join:(fun v -> Churn.Ring_repair.join rr v)
            ())
    in
    let live_pairs =
      List.filter (fun (u, v) -> Churn.is_live st u && Churn.is_live st v) pairs
    in
    let s0 = Counter.value Probe.churn_stale_hits
    and t0 = Counter.value Probe.churn_detours in
    let cw = Churn.wrapper st in
    let q =
      Exp_common.collect_routes_keyed
        ~route:(fun ~query:_ u v -> Ron_routing.Basic.route_wrapped cw b ~src:u ~dst:v)
        ~dist:(fun u v -> Ron_graph.Sp_metric.dist sp u v)
        live_pairs
    in
    if Float.is_nan !base_stretch then base_stretch := q.Exp_common.stretch_mean;
    let delivered = q.Exp_common.queries - q.Exp_common.failures in
    let events = summary.Churn.Driver.joins + summary.Churn.Driver.leaves in
    Obj
      (("graph", String "grid8x8")
       :: ("scheme", String "thm2.1")
       :: ("model", String (Churn.Schedule.describe sched))
       :: ("rate", Float rate)
       :: ("churn_events", Int events)
       :: ("churn_joins", Int summary.Churn.Driver.joins)
       :: ("churn_leaves", Int summary.Churn.Driver.leaves)
       :: ("live_nodes", Int (Churn.live_count st))
       :: ("delivery_rate",
           Float (float_of_int delivered /. float_of_int (max 1 q.Exp_common.queries)))
       :: ("stretch_inflation", Float (q.Exp_common.stretch_mean /. !base_stretch))
       :: ("churn_stale_hits", Int (Counter.value Probe.churn_stale_hits - s0))
       :: ("churn_detours", Int (Counter.value Probe.churn_detours - t0))
       :: ("churn_repair_updates", Int summary.Churn.Driver.cost.Churn.updates)
       :: ("churn_refills", Int summary.Churn.Driver.cost.Churn.refills)
       :: ("repair_updates_per_event",
           Float
             (float_of_int summary.Churn.Driver.cost.Churn.updates
             /. float_of_int (max 1 events)))
       :: ("stale_after_repair", Int (Churn.Ring_repair.stale_members rr))
       :: quality_obj q)
  in
  List (Stdlib.List.map row [ 0.0; 0.02; 0.05; 0.1 ])

(* ------------------------------------------------------------------ main *)

let timestamp () =
  let tm = Unix.localtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* Every boolean of the report is an invariant of the run: equal index
   builds and all-pairs rows, serve digests equal at every job count and
   across the snapshot round trip, allocation within budget, flight dumps
   and SLO verdicts equal at every job count, SLOs met. The paths of the
   false ones. *)
let rec false_invariants path = function
  | Bool false -> [ path ]
  | Obj fields -> Stdlib.List.concat_map (fun (k, v) -> false_invariants (path ^ "." ^ k) v) fields
  | List items ->
    Stdlib.List.concat
      (Stdlib.List.mapi (fun i v -> false_invariants (Printf.sprintf "%s[%d]" path i) v) items)
  | Null | Bool true | Int _ | Float _ | String _ -> []

let run ?(scale_sizes = [ 10_000 ]) ?(scale_only = false) ?telemetry
    ?(telemetry_interval_ms = 500) ~file ~sizes () =
  (* Open the output first so a bad path fails before minutes of measuring. *)
  let oc =
    try open_out file
    with Sys_error e ->
      Printf.eprintf "cannot write --json output: %s\n" e;
      exit 1
  in
  (* Phase profiling rides along on the whole run with a real clock: the
     report gains a "profile" section breaking construction and query time
     down per phase (bench_diff ignores it — wall-clock phase shapes are
     not regression signals). *)
  Ron_obs.Profile.enable ~clock:Ron_obs.Clock.ns ();
  Ron_obs.Profile.reset ();
  (* The telemetry sampler (if requested) rides along too. It needs the
     probes on — which perturbs the timed sections slightly, so pass
     --telemetry only when the time series is what you are measuring (the
     measured overhead is ~1% on the scale smoke; see EXPERIMENTS.md). *)
  (match telemetry with
  | Some tfile ->
    if telemetry_interval_ms < 1 then begin
      Printf.eprintf "--telemetry-interval must be >= 1\n";
      exit 1
    end;
    Ron_obs.Telemetry.start ~clock:Ron_obs.Clock.ns
      ~interval:(Int64.of_int (telemetry_interval_ms * 1_000_000))
      (Ron_obs.Trace.channel_sink (open_out tfile));
    Ron_obs.enable ()
  | None -> ());
  let env_fields =
    [
      ("schema", String "ron-bench/1");
      ("timestamp", String (timestamp ()));
      ("ocaml_version", String Sys.ocaml_version);
      ("ron_jobs", Int (Pool.jobs ()));
      ("recommended_domains", Int (Domain.recommended_domain_count ()));
      ("word_size", Int Sys.word_size);
    ]
  in
  let sections =
    if scale_only then begin
      (* The scale-smoke path: one near-linear pipeline per size, nothing
         quadratic — fits a CI time budget even at n = 10^5. *)
      Printf.printf "\n[JSON] measuring scaling regime at n in {%s} (RON_JOBS=%d)...\n%!"
        (String.concat ", " (List.map string_of_int scale_sizes))
        (Pool.jobs ());
      [ ("scale", List (Stdlib.List.map scale_section scale_sizes)) ]
    end
    else begin
      Printf.printf "\n[JSON] measuring index hot path at n in {%s} (RON_JOBS=%d)...\n%!"
        (String.concat ", " (List.map string_of_int sizes))
        (Pool.jobs ());
      let index = Stdlib.List.map index_section sizes in
      Printf.printf "[JSON] measuring graph all-pairs + construction at n in {%s}...\n%!"
        (String.concat ", " (List.map string_of_int sizes));
      let graph = graph_section sizes in
      Printf.printf "[JSON] measuring scaling regime at n in {%s}...\n%!"
        (String.concat ", " (List.map string_of_int scale_sizes));
      let scale = List (Stdlib.List.map scale_section scale_sizes) in
      Printf.printf "[JSON] measuring Table 1-3 quantities...\n%!";
      (* The timed sections above ran with observability off; reset so the
         obs section below reflects exactly the Table 1-3 query workloads
         (collect_routes force-enables the probes while routing). *)
      Ron_obs.reset ();
      let t1 = table1 () and t2 = table2 () and t3 = table3 () in
      let fault = fault_section () in
      let churn = churn_section () in
      Printf.printf "[JSON] measuring frozen-snapshot serving hot path...\n%!";
      let serve = serve_section () in
      Printf.printf "[JSON] measuring observed serving (flight recorder + SLO)...\n%!";
      let slo = slo_section () in
      [
        ("index", List index);
        ("graph", graph);
        ("scale", scale);
        ("table1", t1);
        ("table2", t2);
        ("table3", t3);
        ("fault", fault);
        ("churn", churn);
        ("serve", serve);
        ("slo", slo);
        ("obs", Ron_obs.snapshot ());
      ]
    end
  in
  let report = Obj (env_fields @ sections @ [ ("profile", Ron_obs.Profile.to_json ()) ]) in
  Ron_obs.Telemetry.stop ();
  Ron_obs.Profile.disable ();
  output_string oc (to_string report);
  close_out oc;
  Printf.printf "[JSON] wrote %s\n%!" file;
  match false_invariants "report" report with
  | [] -> ()
  | bad ->
    Stdlib.List.iter (Printf.eprintf "[JSON] invariant false: %s\n") bad;
    exit 1
