module C = Exp_common
module Rng = Ron_util.Rng
module Graph_gen = Ron_graph.Graph_gen
module Sp_metric = Ron_graph.Sp_metric
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Basic = Ron_routing.Basic
module Labelled = Ron_routing.Labelled
module Two_mode = Ron_routing.Two_mode
module Fault = Ron_fault.Fault
module Meridian = Ron_smallworld.Meridian
module Counter = Ron_obs.Counter
module Probe = Ron_obs.Probe

(* One shared fault axis: at rate r, a fraction r of nodes crash, and both
   the per-hop drop coin and the dead-link coin fire at r/4. The model seed
   is fixed, so the whole sweep is a pure function of the code. *)
let rates = [ 0.0; 0.01; 0.02; 0.05; 0.1 ]

let fault_seed = 4242

let fault_for ~n rate =
  Fault.make ~seed:fault_seed ~crash_fraction:rate ~drop_rate:(rate /. 4.0)
    ~dead_link_fraction:(rate /. 4.0) ~n ()

type fault_counts = { detours : int; retries : int; injected : int }

let with_fault_counts f =
  let d0 = Counter.value Probe.fault_detours in
  let r0 = Counter.value Probe.fault_retries in
  let i0 =
    Counter.value Probe.fault_drops
    + Counter.value Probe.fault_crashed_hits
    + Counter.value Probe.fault_dead_links
  in
  let x = f () in
  let counts =
    {
      detours = Counter.value Probe.fault_detours - d0;
      retries = Counter.value Probe.fault_retries - r0;
      injected =
        Counter.value Probe.fault_drops
        + Counter.value Probe.fault_crashed_hits
        + Counter.value Probe.fault_dead_links
        - i0;
    }
  in
  (x, counts)

let live_pairs f pairs = List.filter (fun (u, v) -> not (Fault.crashed f u || Fault.crashed f v)) pairs

let sweep_header () =
  C.header
    [
      C.cell ~w:6 "rate"; C.cell ~w:7 "pairs"; C.cell ~w:10 "delivered"; C.cell ~w:9 "del.rate";
      C.cell ~w:11 "stretch mn"; C.cell ~w:9 "inflate"; C.cell ~w:9 "detour/q";
      C.cell ~w:9 "retry/q"; C.cell ~w:9 "faults";
    ]

let sweep_rows ~n ~route_wrapped ~dist pairs =
  let base_stretch = ref nan in
  List.iter
    (fun rate ->
      let f = fault_for ~n rate in
      let pairs = live_pairs f pairs in
      let route ~query u v = route_wrapped (Fault.wrapper f ~query) ~src:u ~dst:v in
      let (q, fc) = with_fault_counts (fun () -> C.collect_routes_keyed ~route ~dist pairs) in
      if Float.is_nan !base_stretch then base_stretch := q.C.stretch_mean;
      let nq = max 1 q.C.queries in
      let delivered = q.C.queries - q.C.failures in
      C.row
        [
          C.cell_float ~w:6 ~prec:2 rate;
          C.cell_int ~w:7 q.C.queries;
          C.cell_int ~w:10 delivered;
          C.cell_float ~w:9 (float_of_int delivered /. float_of_int nq);
          C.cell_float ~w:11 q.C.stretch_mean;
          C.cell_float ~w:9 (q.C.stretch_mean /. !base_stretch);
          C.cell_float ~w:9 (float_of_int fc.detours /. float_of_int nq);
          C.cell_float ~w:9 (float_of_int fc.retries /. float_of_int nq);
          C.cell_int ~w:9 fc.injected;
        ];
      if q.C.failures > 0 then C.note (C.pp_observed q);
      if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ())
    rates

let run () =
  C.section "FAULT"
    "Graceful degradation: routing and object location under injected faults";
  let rng = Rng.create 77 in

  let sp = Sp_metric.create (Graph_gen.grid 10 10) in
  let n = Ron_graph.Graph.size (Sp_metric.graph sp) in
  let pairs = C.sample_pairs (Rng.split rng) ~n ~count:500 in
  let dist u v = Sp_metric.dist sp u v in

  C.subsection "Thm 2.1 (Basic) on grid10x10: crashed nodes + message drop + dead links";
  let b = Basic.build sp ~delta:0.25 in
  sweep_header ();
  sweep_rows ~n
    ~route_wrapped:(fun w ~src ~dst -> Basic.route_wrapped w b ~src ~dst)
    ~dist pairs;
  C.note "Detours re-aim the packet at another zooming level's intermediate";
  C.note "target; delivery degrades gracefully while stretch inflates mildly.";

  C.subsection "Thm 4.1 (Labelled) on grid10x10: same fault axis";
  let l = Labelled.build sp ~delta:0.25 in
  sweep_header ();
  sweep_rows ~n
    ~route_wrapped:(fun w ~src ~dst -> Labelled.route_wrapped w l ~src ~dst)
    ~dist pairs;
  C.note "Fallbacks are the next-best neighbors by labeled estimate, so a dead";
  C.note "primary hop costs one re-ranking, not the query.";

  C.subsection "Thm 4.2 (Two-mode) on grid8x8: same fault axis (sequential routes)";
  let idx8 = Indexed.create (Generators.grid2d 8 8) in
  let n8 = Indexed.size idx8 in
  let tm = Two_mode.build idx8 ~delta:0.125 in
  let pairs8 = C.sample_pairs (Rng.split rng) ~n:n8 ~count:300 in
  sweep_header ();
  sweep_rows ~n:n8
    ~route_wrapped:(fun w ~src ~dst -> Two_mode.route_wrapped w tm ~src ~dst)
    ~dist:(fun u v -> Indexed.dist idx8 u v)
    pairs8;
  C.note "M2 directories offer natural redundancy: any member of a scale-i";
  C.note "directory (i >= 2) can stand in for a crashed owner.";

  C.subsection "Meridian closest-node queries under the same fault axis";
  let idxm =
    Indexed.create
      (Generators.clustered_latency (Rng.split rng) ~clusters:6 ~per_cluster:30 ~spread:30.0
         ~access:6.0)
  in
  let nm = Indexed.size idxm in
  let perm = Array.init nm Fun.id in
  Rng.shuffle rng perm;
  let cut = nm / 5 in
  let targets = Array.sub perm 0 cut and members = Array.sub perm cut (nm - cut) in
  let t = Meridian.build idxm (Rng.split rng) ~ring_size:8 ~members in
  let starts = Array.map (fun _ -> members.(Rng.int rng (Array.length members))) targets in
  C.header
    [
      C.cell ~w:6 "rate"; C.cell ~w:8 "queries"; C.cell ~w:11 "exact hits";
      C.cell ~w:12 "worst ratio"; C.cell ~w:10 "probes mn"; C.cell ~w:9 "faults";
    ];
  List.iter
    (fun rate ->
      let f = fault_for ~n:nm rate in
      let exact = ref 0 and total = ref 0 and ratio = ref 1.0 and probes = ref 0 in
      let ((), fc) =
        with_fault_counts (fun () ->
            let was_on = !Probe.on in
            Probe.on := true;
            Fun.protect
              ~finally:(fun () -> Probe.on := was_on)
              (fun () ->
                Array.iteri
                  (fun i tgt ->
                    let start = starts.(i) in
                    if not (Fault.crashed f start || Fault.crashed f tgt) then begin
                      let r = Meridian.closest ~fault:(f, i) t ~start ~target:tgt in
                      let truth = Meridian.exact_closest t tgt in
                      incr total;
                      probes := !probes + r.Meridian.measurements;
                      if r.Meridian.found = truth then incr exact
                      else begin
                        let a = Indexed.dist idxm r.Meridian.found tgt
                        and b = Indexed.dist idxm truth tgt in
                        ratio := Float.max !ratio (a /. Float.max b 1e-12)
                      end
                    end)
                  targets))
      in
      C.row
        [
          C.cell_float ~w:6 ~prec:2 rate;
          C.cell_int ~w:8 !total;
          C.cell ~w:11 (Printf.sprintf "%d/%d" !exact !total);
          C.cell_float ~w:12 !ratio;
          C.cell_float ~w:10 ~prec:1 (float_of_int !probes /. float_of_int (max 1 !total));
          C.cell_int ~w:9 fc.injected;
        ])
    rates;
  C.note "Invisible (crashed/unreachable/dropped) ring members are skipped and the";
  C.note "walk advances through the rest of the ring — the query settles on a";
  C.note "slightly worse member instead of failing: rings are their own fallback."
