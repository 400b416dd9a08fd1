(* End-to-end benchmark of the rings-of-neighbors stack: graph, scheme
   construction, export, freeze, save, load, and the served query, timed
   from outside the library on a monotonic nanosecond clock.

     ronbench.exe --workload W --seed S --dir D --seconds T --check 0|1 --trace 0|1

   One process sets the workload up once, with [--check 1] checks every
   answer it can against ground truth, then measures for T seconds in
   rounds, and prints one JSON line: set-up time, the process high-water
   mark at the end of set-up, the checks, and each round's figures.
   perfbench/run.py builds this program, runs it in several fresh
   processes and pools their rounds. With [--trace 1] the process also
   records spans around each library call and reports per-layer figures. *)

module Bk = Benchkit
module A1 = Bigarray.Array1
module Pool = Ron_util.Pool
module Rng = Ron_util.Rng
module Graph = Ron_graph.Graph
module Graph_gen = Ron_graph.Graph_gen
module Sp_metric = Ron_graph.Sp_metric
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Basic = Ron_routing.Basic
module Scheme = Ron_routing.Scheme
module Landmark = Ron_labeling.Landmark
module Meridian = Ron_smallworld.Meridian
module Server = Ron_serve.Server
module Image = Ron_serve.Image
module Loop = Ron_serve.Loop
module Churn = Ron_churn.Churn
module Probe = Ron_obs.Probe
module Profile = Ron_obs.Profile
module Counter = Ron_obs.Counter
module Flight = Ron_obs.Flight
module Slo = Ron_obs.Slo
module Json = Ron_obs.Json

let now = Monotonic_clock.now
let now_ns () = Int64.to_int (now ())
let secs ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------ parameters *)

(* The parallel domain count: at most 2, at most nproc. *)
let max_jobs = min 2 (Domain.recommended_domain_count ())

(* Each workload pins one domain count for build and serve.
   locate-meridian-obs serves on one: its observed pass joins the domains
   after every 14,336 queries (the flight recorder's batch cap), and at two
   domains its throughput moved 29% (interquartile over median) across ten
   seeds on a 2-vCPU host. *)
let jobs_for = function "locate-meridian-obs" -> 1 | _ -> max_jobs

(* The smallest torus above Sp_metric's eager limit (4,096 nodes), so the
   shortest paths stay on the on-demand oracle. Its 1.4 MB snapshot fits a
   core's private L2: a 316x316 torus's 36 MB snapshot sits in the L3 that
   other tenants share, and its p50 flipped between 250 and 530 ns from run
   to run. *)
let torus_side = 65
let landmark_beacons = 13 (* the serving fixture's rule, 1 + floor (log2 n) *)
let landmark_radius = 2.0
let grid_side = 20 (* 400 nodes *)
let delta = 0.25
(* Meridian's snapshot carries the full n x n metric: at 360 points it is
   1 MB and fits L2 like the landmark snapshot; at 2,000 points (32 MB, in
   the shared L3) the locate p50 moved 39% over ten seeds. *)
let cloud_n = 360
let ring_size = 8
let zipf_s = 1.1
let churn_rate = 0.05
let churn_slots = 4000

(* The systems under test do not follow the workload seed: the cloud, the
   members and the beacons come from ron_cli's default --seed, and the
   churn schedule from its default --churn-seed, so the benchmark serves
   the snapshots `ron_cli serve` builds and every run faces the same live
   set. The workload seed draws the traffic and the ground-truth samples. *)
let system_seed = 1
let churn_seed = 9191
let slo_spec = "p99<=50us,delivery>=0.99"
let flight_per_window = 4

(* Queries per workload pass, sized so that one pass at the pinned domain
   count takes a few hundred milliseconds. *)
let landmark_queries = 1 lsl 19
let route_queries = 1 lsl 15
let locate_queries = 1 lsl 18
let churn_pairs = 4096

(* Ground-truth samples. *)
let landmark_truth_sources = 1024
let landmark_truth_targets = 64
let locate_truth_queries = 4096
let churn_truth_pairs = 16384 (* the timed routes are the first [churn_pairs] *)

let min_rounds = 5

(* Queries timed one by one in each round's sequential latency pass: the
   head of the workload, served once untimed first so the pass runs warm. *)
let latency_sample = 1 lsl 13

(* ---------------------------------------------------------------- context *)

type ctx = {
  workload : string;
  seed : int;
  jobs : int;  (** the pinned domain count *)
  checking : bool;  (** run the correctness checks and score the ground truth *)
  traced : bool;
  spans : Bk.recorder;
  dir : string;
  mutable setup_ns : int;
  mutable checks : (string * bool) list;
  mutable attempted : int;
  mutable failed : int;
  mutable stretch_sum : float;
  mutable stretch_n : int;
  metrics : (string, float) Hashtbl.t;
  layers : (string, float) Hashtbl.t;
  mutable rounds : (string * float list) list;
}

let check ctx name ok =
  ctx.checks <- (name, ok) :: ctx.checks;
  if not ok then Printf.eprintf "ronbench: check failed: %s\n%!" name

let layer ctx name v = Hashtbl.replace ctx.layers name v
let metric ctx name v = Hashtbl.replace ctx.metrics name v

(* One answer checked against ground truth. *)
let answer ctx ~ok ?stretch () =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then ctx.failed <- ctx.failed + 1;
  match stretch with
  | Some s ->
    ctx.stretch_sum <- ctx.stretch_sum +. s;
    ctx.stretch_n <- ctx.stretch_n + 1
  | None -> ()

(* A set-up stage: timed into setup_s, and a span when traced. *)
let stage ctx name f =
  let t0 = now_ns () in
  let x = Bk.with_span ctx.spans name f in
  ctx.setup_ns <- ctx.setup_ns + (now_ns () - t0);
  x

let span ctx name f = Bk.with_span ctx.spans name f

let ok_or_fail what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

let sub_seed ctx k = Rng.mix ctx.seed k

(* --------------------------------------------------------- frozen set-up *)

(* What the serving workloads measure: the server reloaded from its
   snapshot and the seeded workload. Each set-up also returns a [truth]
   function which, in a checking run, computes the ground truth from the
   build-time structures and returns the verifier of the served answers;
   only the verifier outlives the build heap. *)
type frozen = {
  server : Server.t;
  work : Loop.workload;
  res : Loop.results;
  digest : int;  (** one-domain digest on the in-memory server, before save *)
  bytes_per_node : float;
  observed : bool;
}

(* Freeze has produced [mem]; prepare the workload on it, take the
   one-domain digest, then save, load and view the snapshot. *)
let save_and_load ctx mem ~queries ~route_frac ~dist_frac =
  let work =
    span ctx "workload.prepare" (fun () ->
        Loop.prepare mem ~seed:(sub_seed ctx 5) ~queries ~zipf_s ~route_frac ~dist_frac)
  in
  let res = Loop.results_create queries in
  (* Taken in every process, checking or not, so that all of them reach the
     end of set-up with the same heap. *)
  let digest =
    span ctx "check.digest_before_save" (fun () ->
        Loop.run ~jobs:1 mem work res;
        Loop.digest res)
  in
  let file =
    Filename.concat ctx.dir (Printf.sprintf "%s-%d.snap" ctx.workload (Unix.getpid ()))
  in
  stage ctx "serve.save" (fun () -> Server.save mem file);
  let bytes_per_node = float_of_int (Server.byte_size mem) /. float_of_int (Server.size mem) in
  let img = stage ctx "serve.load" (fun () -> ok_or_fail "Image.load" (Image.load file)) in
  let server =
    stage ctx "serve.view" (fun () -> ok_or_fail "Server.of_image" (Server.of_image img))
  in
  Sys.remove file;
  (server, work, res, digest, bytes_per_node)

let setup_landmark ctx =
  let sp =
    stage ctx "graph.sp_metric" (fun () ->
        Sp_metric.create (Graph_gen.torus torus_side torus_side))
  in
  let lm =
    stage ctx "labeling.build" (fun () ->
        Landmark.build sp (Rng.create (system_seed + 97)) ~k:landmark_beacons
          ~local_radius:landmark_radius)
  in
  let x = stage ctx "labeling.export" (fun () -> Landmark.export lm) in
  let mem = stage ctx "serve.freeze" (fun () -> Server.freeze_landmark_t x) in
  (* The CLI's default route/dist/locate mix, which landmark serves as dist. *)
  let server, work, res, digest, bytes_per_node =
    save_and_load ctx mem ~queries:landmark_queries ~route_frac:0.6 ~dist_frac:0.3
  in
  (* Ground truth: exact rows from seeded sources, each paired with seeded
     uniform targets. *)
  let truth () =
    let pairs =
      span ctx "truth.rows" (fun () ->
          let n = Graph.size (Sp_metric.graph sp) in
          Array.init landmark_truth_sources (fun i ->
              let s = Rng.mix (sub_seed ctx 2) i mod n in
              let row = Sp_metric.distances_from sp s in
              Array.init landmark_truth_targets (fun j ->
                  let v = Rng.mix (sub_seed ctx 3) ((i * landmark_truth_targets) + j) mod n in
                  (s, v, row.(v)))))
    in
    fun _res ->
      let sc = Server.scratch_for server in
      Array.iter
        (Array.iter (fun (s, v, d) ->
             Server.query server sc ~kind:1 ~src:s ~dst:v;
             let lo = sc.Server.fbuf.(3) and hi = sc.Server.fbuf.(4) in
             let ok = lo <= d && d <= hi in
             if d > 0.0 then answer ctx ~ok ~stretch:(hi /. d) () else answer ctx ~ok ()))
        pairs;
      check ctx "landmark lo <= d <= hi on every ground-truth pair" (ctx.failed = 0)
  in
  ({ server; work; res; digest; bytes_per_node; observed = false }, truth)

let build_basic ctx =
  let sp =
    stage ctx "graph.sp_metric" (fun () -> Sp_metric.create (Graph_gen.grid grid_side grid_side))
  in
  let b = stage ctx "routing.build" (fun () -> Basic.build sp ~delta) in
  (sp, b)

let setup_route ctx =
  let sp, b = build_basic ctx in
  let x = stage ctx "routing.export" (fun () -> Basic.export b) in
  let mem = stage ctx "serve.freeze" (fun () -> Server.freeze_basic_t x) in
  let server, work, res, digest, bytes_per_node =
    save_and_load ctx mem ~queries:route_queries ~route_frac:1.0 ~dist_frac:0.0
  in
  let truth () =
    let dist =
      span ctx "truth.rows" (fun () ->
          Array.init (Loop.queries work) (fun i ->
              Sp_metric.dist sp (Loop.src_of work i) (Loop.dst_of work i)))
    in
    fun (res : Loop.results) ->
      Array.iteri
        (fun i d ->
          let ok = A1.get res.Loop.ra i = 0 in
          let len = A1.get res.Loop.rx i in
          if ok && d > 0.0 then answer ctx ~ok ~stretch:(len /. d) () else answer ctx ~ok ())
        dist;
      check ctx "every frozen route delivered" (ctx.failed = 0)
  in
  ({ server; work; res; digest; bytes_per_node; observed = false }, truth)

let setup_locate ctx =
  let rng = Rng.create system_seed in
  let idx =
    stage ctx "metric.indexed" (fun () ->
        Indexed.create (Generators.random_cloud (Rng.split rng) ~n:cloud_n ~dim:2))
  in
  (* A fifth of the points are held out as non-member targets, as in the
     serving fixture. *)
  let perm = Array.init cloud_n Fun.id in
  Rng.shuffle rng perm;
  let members = Array.sub perm (cloud_n / 5) (cloud_n - (cloud_n / 5)) in
  let m =
    stage ctx "smallworld.build" (fun () ->
        Meridian.build idx (Rng.split rng) ~ring_size ~members)
  in
  let x = stage ctx "smallworld.export" (fun () -> Meridian.export m) in
  let mem = stage ctx "serve.freeze" (fun () -> Server.freeze_meridian_t x) in
  let server, work, res, digest, bytes_per_node =
    save_and_load ctx mem ~queries:locate_queries ~route_frac:0.0 ~dist_frac:0.0
  in
  (* Ground truth: seeded locates from uniform members toward uniform
     non-members (a member target's closest member is itself), each with
     the exact closest member's distance and the target's distance row to
     score whichever member the server finds. *)
  let truth () =
    let is_member = Array.init cloud_n (Meridian.is_member m) in
    let member u = u >= 0 && u < cloud_n && is_member.(u) in
    let outsiders = Array.sub perm 0 (cloud_n / 5) in
    let rows = Hashtbl.create 512 in
    let locates =
      span ctx "truth.rows" (fun () ->
          Array.init locate_truth_queries (fun i ->
              let ts = sub_seed ctx 3 in
              let t = outsiders.(Rng.mix ts (2 * i) mod Array.length outsiders) in
              let src = members.(Rng.mix ts ((2 * i) + 1) mod Array.length members) in
              if not (Hashtbl.mem rows t) then
                Hashtbl.replace rows t (Array.init cloud_n (fun u -> Indexed.dist idx u t));
              (src, t, Indexed.dist idx (Meridian.exact_closest m t) t)))
    in
    fun (res : Loop.results) ->
      for i = 0 to Loop.queries work - 1 do
        answer ctx ~ok:(member (A1.get res.Loop.ra i)) ()
      done;
      let sc = Server.scratch_for server in
      Array.iter
        (fun (src, t, d_exact) ->
          Server.query server sc ~kind:2 ~src ~dst:t;
          let found = sc.Server.r_next in
          if member found then
            answer ctx ~ok:true ~stretch:((Hashtbl.find rows t).(found) /. d_exact) ()
          else answer ctx ~ok:false ())
        locates;
      check ctx "every locate returns a member" (ctx.failed = 0)
  in
  ({ server; work; res; digest; bytes_per_node; observed = true }, truth)

(* ----------------------------------------------------- frozen measurement *)

let observers () =
  let objs = ok_or_fail "Slo.parse" (Slo.parse slo_spec) in
  (Flight.create ~per_window:flight_per_window (), Slo.create objs)

let serve_pass ~observed ~jobs t work res =
  if observed then begin
    let flight, slo = observers () in
    Loop.run_observed ~jobs ~wall:true ~flight ~slo t work res
  end
  else Loop.run ~jobs t work res

(* Wall time of [f ()], in ns. *)
let timed f =
  let t0 = now_ns () in
  f ();
  now_ns () - t0

(* Per-query service time on one domain, into [lat]. *)
let latency_pass t sc work res lat =
  for i = 0 to Array.length lat - 1 do
    let t0 = now_ns () in
    Loop.run_query t sc work res i;
    lat.(i) <- now_ns () - t0
  done

let direct_pass t sc work =
  for i = 0 to Loop.queries work - 1 do
    Server.query t sc ~kind:(Loop.kind_of work i) ~src:(Loop.src_of work i)
      ~dst:(Loop.dst_of work i)
  done

type rounds = {
  mutable qps : float list;
  mutable p50 : float list;
  mutable p99 : float list;
  mutable samples : int;
  mutable beyond : int;
  mutable count : int;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  extra : (string, float list) Hashtbl.t;
}

let new_rounds () =
  {
    qps = []; p50 = []; p99 = []; samples = 0; beyond = 0; count = 0; minor_gcs = 0;
    major_gcs = 0; extra = Hashtbl.create 8;
  }

let add_extra r k v =
  Hashtbl.replace r.extra k (v :: Option.value ~default:[] (Hashtbl.find_opt r.extra k))

let median_of l = Ron_util.Stats.median (Array.of_list l)
let extra_median r k = median_of (Hashtbl.find r.extra k)

(* Record one round's latency sample: sort it and keep p50/p99 with the
   counts behind them. GC counts cover the sequential pass only. *)
let record_latency r lat ~gc0 ~gc1 =
  Array.sort Int.compare lat;
  let p50 = Bk.percentile lat ~per_mille:500 and p99 = Bk.percentile lat ~per_mille:990 in
  r.p50 <- float_of_int p50.Bk.value :: r.p50;
  r.p99 <- float_of_int p99.Bk.value :: r.p99;
  r.samples <- p99.Bk.samples;
  r.beyond <- p99.Bk.beyond;
  r.minor_gcs <- r.minor_gcs + (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
  r.major_gcs <- r.major_gcs + (gc1.Gc.major_collections - gc0.Gc.major_collections)

let finish_rounds ctx r =
  metric ctx "latency_p50_ns" (median_of r.p50);
  layer ctx "bench.qps" (median_of r.qps);
  layer ctx "bench.latency_p99_ns" (median_of r.p99);
  ctx.rounds <- [ ("latency_p50_ns", r.p50) ];
  layer ctx "gc.minor_collections" (float_of_int r.minor_gcs /. float_of_int r.count);
  layer ctx "gc.major_collections" (float_of_int r.major_gcs /. float_of_int r.count);
  Printf.printf
    "  %d rounds; latency percentiles per round from %d samples (%d beyond p99), \
     median over rounds\n"
    r.count r.samples r.beyond

let until_deadline ~seconds f =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let k = ref 0 in
  while !k < min_rounds || now_ns () < deadline do
    f ();
    incr k
  done

let check_frozen ctx (f : frozen) ~verify =
  let t = f.server and work = f.work and res = f.res in
  let q = Loop.queries work in
  span ctx "check.answers" (fun () ->
      Loop.run ~jobs:1 t work res;
      let d1 = Loop.digest res in
      check ctx "digest after load = digest before save" (d1 = f.digest);
      verify res;
      Loop.run ~jobs:max_jobs t work res;
      check ctx
        (Printf.sprintf "digest at %d domains = digest at 1" max_jobs)
        (Loop.digest res = d1);
      let flight, slo = observers () in
      Loop.run_observed ~jobs:max_jobs ~wall:true ~flight ~slo t work res;
      check ctx "observed-run digest = plain-run digest" (Loop.digest res = d1);
      let hops = ref 0 in
      for i = 0 to q - 1 do
        if Loop.kind_of work i <> 1 then hops := !hops + A1.get res.Loop.rb i
      done;
      layer ctx "serve.hops_mean" (float_of_int !hops /. float_of_int q));
  let words = span ctx "check.minor_words" (fun () -> Loop.minor_words_per_query t work res) in
  check ctx "Loop.minor_words_per_query is 0" (Float.round words = 0.0);
  layer ctx "serve.minor_words_per_query" words

let measure_frozen ctx (f : frozen) ~seconds =
  let t = f.server and work = f.work and res = f.res in
  let q = Loop.queries work in
  layer ctx "serve.snapshot_bytes_per_node" f.bytes_per_node;
  if ctx.traced then begin
    let b0 = Counter.value Probe.serve_batches in
    Probe.on := true;
    serve_pass ~observed:f.observed ~jobs:ctx.jobs t work res;
    Probe.on := false;
    layer ctx "serve.batches" (float_of_int (Counter.value Probe.serve_batches - b0))
  end;
  Gc.compact ();
  let sc = Server.scratch_for t in
  let lat = Array.make (min q latency_sample) 0 in
  let r = new_rounds () in
  let pass () = serve_pass ~observed:f.observed ~jobs:ctx.jobs t work res in
  span ctx "measure" (fun () ->
      pass ();
      until_deadline ~seconds (fun () ->
          let dt = span ctx "measure.serve_pass" (fun () -> timed pass) in
          r.qps <- (float_of_int q /. secs dt) :: r.qps;
          latency_pass t sc work res lat;
          let gc0 = Gc.quick_stat () in
          span ctx "measure.latency_pass" (fun () -> latency_pass t sc work res lat);
          let gc1 = Gc.quick_stat () in
          record_latency r lat ~gc0 ~gc1;
          if ctx.traced then begin
            let pass_ns name f = float_of_int (span ctx name (fun () -> timed f)) in
            let direct = pass_ns "measure.direct_pass" (fun () -> direct_pass t sc work) in
            let one = pass_ns "measure.plain_pass" (fun () -> Loop.run ~jobs:1 t work res) in
            let par = pass_ns "measure.plain_pass" (fun () -> Loop.run ~jobs:max_jobs t work res) in
            let observed =
              pass_ns "measure.observed_pass" (fun () ->
                  serve_pass ~observed:true ~jobs:ctx.jobs t work res)
            in
            let plain = if ctx.jobs = 1 then one else par in
            add_extra r "serve.query_ns" (direct /. float_of_int q);
            add_extra r "serve.loop_overhead_frac" ((one /. direct) -. 1.0);
            add_extra r "util.pool_scaling" (one /. (float_of_int max_jobs *. par));
            add_extra r "obs.overhead_frac" ((observed /. plain) -. 1.0)
          end;
          r.count <- r.count + 1));
  finish_rounds ctx r;
  if ctx.traced then
    List.iter
      (fun k -> layer ctx k (extra_median r k))
      [ "serve.query_ns"; "serve.loop_overhead_frac"; "util.pool_scaling"; "obs.overhead_frac" ]

(* ------------------------------------------------------------------ churn *)

type churn = {
  sp : Sp_metric.t;
  basic : Basic.t;
  sched : Churn.Schedule.t;
  state : Churn.state;
  repair : Churn.Ring_repair.t;
}

let setup_churn ctx =
  let sp, basic = build_basic ctx in
  let n = Graph.size (Sp_metric.graph sp) in
  let sched =
    span ctx "workload.schedule" (fun () ->
        Churn.Schedule.make ~seed:churn_seed ~n ~slots:churn_slots ~join_rate:churn_rate
          ~leave_rate:churn_rate ())
  in
  let state = Churn.state_of_schedule sched in
  let repair =
    stage ctx "churn.repair_create" (fun () ->
        Churn.Ring_repair.create state (Basic.substrate basic) (Basic.rings_collection basic))
  in
  { sp; basic; sched; state; repair }

(* Seeded pairs of distinct live nodes. *)
let live_pairs ctx c =
  let n = Graph.size (Sp_metric.graph c.sp) in
  let live = Array.of_list (List.filter (Churn.is_live c.state) (List.init n Fun.id)) in
  let m = Array.length live in
  let seed = sub_seed ctx 8 in
  Array.init churn_truth_pairs (fun i ->
      let u = live.(Rng.mix seed (2 * i) mod m) in
      let k = Rng.mix seed ((2 * i) + 1) mod (m - 1) in
      let v = live.(if live.(k) = u then m - 1 else k) in
      (u, v))

let measure_churn ctx c ~seconds =
  let rr = c.repair in
  let leave_ns = ref 0 and join_ns = ref 0 in
  let timed_cb acc f v =
    if ctx.traced then begin
      let t0 = now_ns () in
      let cost = f v in
      acc := !acc + (now_ns () - t0);
      cost
    end
    else f v
  in
  let summary, apply_ns =
    span ctx "churn.apply" (fun () ->
        let t0 = now_ns () in
        let s =
          Churn.Driver.apply c.sched c.state
            ~on_leave:(timed_cb leave_ns (Churn.Ring_repair.leave rr))
            ~on_join:(timed_cb join_ns (Churn.Ring_repair.join rr))
            ()
        in
        (s, now_ns () - t0))
  in
  let joins = summary.Churn.Driver.joins and leaves = summary.Churn.Driver.leaves in
  let events = joins + leaves in
  check ctx "Ring_repair.stale_members is 0 after the schedule"
    (Churn.Ring_repair.stale_members rr = 0);
  check ctx "the schedule applied events" (events > 0);
  let per_event x = float_of_int x /. float_of_int (max 1 events) in
  layer ctx "churn.repair_events_per_s" (float_of_int events /. secs apply_ns);
  layer ctx "churn.leave_ns" (float_of_int !leave_ns /. float_of_int (max 1 leaves));
  layer ctx "churn.join_ns" (float_of_int !join_ns /. float_of_int (max 1 joins));
  layer ctx "churn.updates_per_event" (per_event summary.Churn.Driver.cost.Churn.updates);
  layer ctx "churn.refills_per_event" (per_event summary.Churn.Driver.cost.Churn.refills);
  Printf.printf "  churn: %d events (%d joins, %d leaves), %d nodes down\n" events joins leaves
    (Churn.down_count c.state);
  let checked = live_pairs ctx c in
  let pairs = Array.sub checked 0 churn_pairs in
  let p = Array.length pairs in
  let cw = Churn.wrapper c.state in
  let route (u, v) = Basic.route_wrapped cw c.basic ~src:u ~dst:v in
  let delivered = Array.make (Array.length checked) false in
  if ctx.checking then
    span ctx "check.answers" (fun () ->
        Array.iteri
          (fun i (u, v) ->
            let r = route (u, v) in
            delivered.(i) <- r.Scheme.delivered;
            if r.Scheme.delivered then
              answer ctx ~ok:true ~stretch:(Scheme.stretch r (Sp_metric.dist c.sp u v)) ()
            else answer ctx ~ok:false ())
          checked);
  if ctx.traced then begin
    let s0 = Counter.value Probe.churn_stale_hits and d0 = Counter.value Probe.churn_detours in
    Probe.on := true;
    Array.iter (fun pr -> ignore (route pr)) pairs;
    Probe.on := false;
    layer ctx "churn.stale_hits_per_route"
      (float_of_int (Counter.value Probe.churn_stale_hits - s0) /. float_of_int p);
    layer ctx "churn.detours_per_route"
      (float_of_int (Counter.value Probe.churn_detours - d0) /. float_of_int p)
  end;
  Gc.compact ();
  let parallel_pass () =
    let same = Atomic.make true in
    Pool.parallel_for ~jobs:ctx.jobs p (fun i ->
        if (route pairs.(i)).Scheme.delivered <> delivered.(i) then Atomic.set same false);
    Atomic.get same
  in
  let lat = Array.make p 0 in
  let r = new_rounds () in
  let consistent = ref true in
  span ctx "measure" (fun () ->
      ignore (parallel_pass ());
      until_deadline ~seconds (fun () ->
          let same = ref true in
          let dt =
            span ctx "measure.route_pass" (fun () -> timed (fun () -> same := parallel_pass ()))
          in
          consistent := !consistent && !same;
          r.qps <- (float_of_int p /. secs dt) :: r.qps;
          let gc0 = Gc.quick_stat () in
          span ctx "measure.latency_pass" (fun () ->
              Array.iteri
                (fun i pr ->
                  let t0 = now_ns () in
                  ignore (route pr);
                  lat.(i) <- now_ns () - t0)
                pairs);
          let gc1 = Gc.quick_stat () in
          add_extra r "routing.live_route_ns"
            (float_of_int (Array.fold_left ( + ) 0 lat) /. float_of_int p);
          add_extra r "routing.live_minor_words_per_route"
            ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int p);
          record_latency r lat ~gc0 ~gc1;
          r.count <- r.count + 1));
  if ctx.checking then
    check ctx
      (Printf.sprintf "live routes at %d domains match the sequential check pass" ctx.jobs)
      !consistent;
  finish_rounds ctx r;
  List.iter
    (fun k -> layer ctx k (extra_median r k))
    [ "routing.live_route_ns"; "routing.live_minor_words_per_route" ]

(* -------------------------------------------------------------- reporting *)

let profile_total_s path =
  List.fold_left
    (fun acc (s : Profile.stat) ->
      if s.Profile.path = path then acc +. secs (Int64.to_int s.Profile.total_ns) else acc)
    0.0 (Profile.stats ())

(* Per-layer set-up figures from the span tree: each stage's self time.
   [Basic.build] is split by the library's own profiler phase for
   [Structure.build]. *)
let setup_layers ctx =
  let spans = Bk.spans ctx.spans in
  let self name = secs (Bk.self_ns_named spans name) in
  let structure = profile_total_s "construct.basic/construct.structure" in
  layer ctx "routing.structure_s" structure;
  layer ctx "routing.build_s" (self "routing.build" -. structure);
  List.iter
    (fun name -> layer ctx (name ^ "_s") (self name))
    [
      "graph.sp_metric"; "metric.indexed"; "labeling.build"; "smallworld.build";
      "routing.export"; "labeling.export"; "smallworld.export"; "serve.freeze"; "serve.save";
      "serve.load"; "serve.view"; "churn.repair_create";
    ]

let write_spans ctx =
  let file =
    Filename.concat ctx.dir (Printf.sprintf "spans-%s-%d.jsonl" ctx.workload ctx.seed)
  in
  let oc = open_out file in
  List.iter
    (fun (s : Bk.span) ->
      output_string oc
        (Json.to_line
           (Json.Obj
              [
                ("run", Json.String s.Bk.run); ("id", Json.Int s.Bk.id);
                ("parent", Json.Int s.Bk.parent); ("name", Json.String s.Bk.name);
                ("start_ns", Json.Int (Int64.to_int s.Bk.start_ns));
                ("end_ns", Json.Int (Int64.to_int s.Bk.stop_ns));
              ]));
      output_char oc '\n')
    (Bk.spans ctx.spans);
  close_out oc;
  file

let peak_rss_mb () =
  match Ron_obs.Rss.peak_kb () with Some kb -> float_of_int kb /. 1024.0 | None -> nan

let floats tbl names =
  Json.Obj
    (List.map
       (fun (k, _) -> (k, Json.Float (Option.value ~default:0.0 (Hashtbl.find_opt tbl k))))
       names)

(* ------------------------------------------------------------------- main *)

let workloads = [ "dist-landmark"; "route-basic"; "locate-meridian-obs"; "churn-basic" ]

let usage () =
  prerr_endline
    "usage: ronbench.exe --workload W --seed S --dir D --seconds T --check 0|1 --trace 0|1";
  exit 2

let () =
  let rec parse acc = function
    | k :: v :: r when String.length k > 2 && String.sub k 0 2 = "--" -> parse ((k, v) :: acc) r
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let flag k = match get k with "0" -> false | "1" -> true | _ -> usage () in
  let workload = get "--workload" and seed = int_arg "--seed" and dir = get "--dir" in
  if not (List.mem workload workloads) then usage ();
  let seconds = match float_of_string_opt (get "--seconds") with Some s -> s | None -> usage () in
  let traced = flag "--trace" and checking = flag "--check" in
  let jobs = jobs_for workload in
  Pool.set_default_jobs (Some jobs);
  let run_id = Printf.sprintf "%s/%d/%d" workload seed (Unix.getpid ()) in
  let ctx =
    {
      workload; seed; jobs; checking; traced;
      spans = Bk.recorder ~enabled:traced ~run_id ~clock:now; dir;
      setup_ns = 0; checks = []; attempted = 0; failed = 0; stretch_sum = 0.0; stretch_n = 0;
      metrics = Hashtbl.create 8; layers = Hashtbl.create 64; rounds = [];
    }
  in
  if traced then Profile.enable ~clock:now ();
  Printf.printf "%s seed=%d domains=%d%s\n%!" workload seed jobs (if traced then " traced" else "");
  let setup =
    match workload with
    | "dist-landmark" -> `Frozen (setup_landmark ctx)
    | "route-basic" -> `Frozen (setup_route ctx)
    | "locate-meridian-obs" -> `Frozen (setup_locate ctx)
    | _ -> `Churn (setup_churn ctx)
  in
  let setup_s = secs ctx.setup_ns in
  let peak = peak_rss_mb () in
  if traced then begin
    Profile.disable ();
    setup_layers ctx
  end;
  (match setup with
  | `Frozen (f, truth) ->
    if checking then check_frozen ctx f ~verify:(truth ());
    measure_frozen ctx f ~seconds
  | `Churn c -> measure_churn ctx c ~seconds);
  metric ctx "delivered_frac"
    (float_of_int (ctx.attempted - ctx.failed) /. float_of_int (max 1 ctx.attempted));
  metric ctx "stretch_mean" (ctx.stretch_sum /. float_of_int (max 1 ctx.stretch_n));
  metric ctx "setup_s" setup_s;
  metric ctx "peak_rss_mb" peak;
  let correct = List.for_all snd ctx.checks in
  let names l = List.filter (fun (k, _) -> not (String.starts_with ~prefix:"trace." k)) l in
  let fields =
    [
      ("workload", Json.String workload); ("seed", Json.Int seed); ("domains", Json.Int jobs);
      ("correct", Json.Bool correct); ("attempted", Json.Int ctx.attempted);
      ("failed", Json.Int ctx.failed);
      ( "checks",
        Json.List
          (List.rev_map
             (fun (n, ok) -> Json.Obj [ ("name", Json.String n); ("ok", Json.Bool ok) ])
             ctx.checks) );
      ("metrics", floats ctx.metrics Bk.end_to_end);
      ( "rounds",
        Json.Obj
          (List.map
             (fun (k, l) -> (k, Json.List (List.rev_map (fun v -> Json.Float v) l)))
             ctx.rounds) );
    ]
    @
    if traced then
      [
        ("layers", floats ctx.layers (names Bk.per_layer));
        ("spans", Json.String (write_spans ctx));
      ]
    else []
  in
  print_endline (Json.to_line (Json.Obj fields));
  exit (if correct then 0 else 1)
