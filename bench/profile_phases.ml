(* Source of the EXPERIMENTS.md per-phase construction table: build the
   four schemes at n ~ 1000 with the phase profiler on a real clock and
   print the aggregate table (count, total/self ms, allocation, GC counts
   per phase).

   Run:  dune exec bench/profile_phases.exe

   The Thm 2.1 scheme builds on a 31x31 grid (961 nodes) and Meridian
   populates rings over a 1000-point random cloud with every node a
   member. The Thm 4.1 and two-mode schemes run on a 14x14 grid (n=196):
   both are super-quadratic builds (labelled ~10 s at n=100 vs ~66 s at
   n=196; two-mode ~6.5 s vs ~80 s — each would take an hour or more at
   n~1000), which is why the reproduction tables run them on small
   instances and why they get one here. The table this prints is the
   point: it shows the time is not where the scheme-specific code is —
   both are dominated by the nested construct.dls label build, and
   Thm 2.1 by construct.structure. Wall times are machine-dependent; the
   phase *structure* (paths, counts, allocation) is the reproducible
   part. *)

let () =
  let module Profile = Ron_obs.Profile in
  let module Indexed = Ron_metric.Indexed in
  Profile.enable ~clock:Ron_obs.Clock.ns ();
  let sp_big = Ron_graph.Sp_metric.create (Ron_graph.Graph_gen.grid 31 31) in
  ignore (Ron_routing.Basic.build sp_big ~delta:0.25);
  let sp_small = Ron_graph.Sp_metric.create (Ron_graph.Graph_gen.grid 14 14) in
  ignore (Ron_routing.Labelled.build sp_small ~delta:0.5);
  let idx = Indexed.create (Ron_metric.Generators.grid2d 14 14) in
  ignore (Ron_routing.Two_mode.build idx ~delta:0.125);
  let cloud =
    Indexed.create
      (Ron_metric.Generators.random_cloud (Ron_util.Rng.create 7) ~n:1000 ~dim:2)
  in
  ignore
    (Ron_smallworld.Meridian.build cloud (Ron_util.Rng.create 9) ~ring_size:8
       ~members:(Array.init (Indexed.size cloud) Fun.id));
  Profile.disable ();
  Printf.printf
    "phase profile: Thm 2.1 on grid 31x31 (961 nodes), Thm 4.1 / two-mode on grid 14x14 \
     (196), Meridian cloud n=1000 (RON_JOBS=%d)\n\n"
    (Ron_util.Pool.jobs ());
  Profile.pp stdout
