module C = Exp_common
module Rng = Ron_util.Rng
module Graph_gen = Ron_graph.Graph_gen
module Sp_metric = Ron_graph.Sp_metric
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Basic = Ron_routing.Basic
module Labelled = Ron_routing.Labelled
module Two_mode = Ron_routing.Two_mode
module Scheme = Ron_routing.Scheme
module Fault = Ron_fault.Fault
module Meridian = Ron_smallworld.Meridian
module Landmark = Ron_labeling.Landmark
module Churn = Ron_churn.Churn
module Counter = Ron_obs.Counter
module Probe = Ron_obs.Probe

(* Churn sweep: symmetric join/leave rates over a fixed slot budget. Rate 0
   produces a null schedule — no events, identity wrapper — so that row is
   byte-identical to routing with no churn layer at all. The schedule seed
   is fixed; the whole sweep is a pure function of the code and runs
   bit-identically at every RON_JOBS. *)
let rates = [ 0.0; 0.02; 0.05; 0.1 ]

let churn_seed = 9191
let slots = 120

let schedule_for ?eligible ~n rate =
  Churn.Schedule.make ~seed:churn_seed ?eligible ~n ~slots ~join_rate:rate
    ~leave_rate:rate ()

(* The landmark subsection exercises repair at scale; override for smoke
   runs (RON_CHURN_N=2000) without recompiling. Committed expectation
   output uses the default. *)
let landmark_n () =
  match Sys.getenv_opt "RON_CHURN_N" with
  | None | Some "" -> 10_000
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 16 -> n
      | _ -> failwith (Printf.sprintf "bad RON_CHURN_N %S" s))

(* Apply the schedule with probes forced on, so the churn.* counters see
   the repair work even when the harness runs without observability. *)
let apply_probed sched st ~on_leave ~on_join ?backlog () =
  let was_on = !Probe.on in
  Probe.on := true;
  Fun.protect
    ~finally:(fun () -> Probe.on := was_on)
    (fun () -> Churn.Driver.apply sched st ~on_leave ~on_join ?backlog ())

type churn_counts = { stale_hits : int; detours : int }

let with_churn_counts f =
  let s0 = Counter.value Probe.churn_stale_hits in
  let d0 = Counter.value Probe.churn_detours in
  let x = f () in
  ( x,
    {
      stale_hits = Counter.value Probe.churn_stale_hits - s0;
      detours = Counter.value Probe.churn_detours - d0;
    } )

let ev_cell (s : Churn.Driver.summary) =
  C.cell ~w:9 (Printf.sprintf "%dJ/%dL" s.Churn.Driver.joins s.Churn.Driver.leaves)

let per_event total events = float_of_int total /. float_of_int (max 1 events)

let sweep_header () =
  C.header
    [
      C.cell ~w:5 "rate"; C.cell ~w:9 "events"; C.cell ~w:6 "pairs";
      C.cell ~w:9 "del.rate"; C.cell ~w:11 "stretch mn"; C.cell ~w:8 "inflate";
      C.cell ~w:8 "stale/q"; C.cell ~w:9 "detour/q"; C.cell ~w:7 "rep/ev";
      C.cell ~w:9 "refill/ev"; C.cell ~w:6 "stale";
    ]

(* One sweep row: apply the rate's schedule through the scheme's repair
   hooks, then route the still-live sampled pairs through the churn
   wrapper (optionally composed under an extra fault wrapper). [stale] is
   the repair structure's residual stale-reference count — the invariant
   the incremental repair maintains at 0. *)
let sweep_row ?(label = None) ?(extra = fun ~query:_ -> Scheme.identity_wrapper)
    ~rate ~make_repair ~route_wrapped ~dist pairs base_stretch =
  let sched, st, on_leave, on_join, backlog, stale_after = make_repair rate in
  let summary = apply_probed sched st ~on_leave ~on_join ?backlog () in
  let events = summary.Churn.Driver.joins + summary.Churn.Driver.leaves in
  let live_pairs =
    List.filter (fun (u, v) -> Churn.is_live st u && Churn.is_live st v) pairs
  in
  let cw = Churn.wrapper st in
  let route ~query u v =
    route_wrapped (Scheme.compose (extra ~query) cw) ~src:u ~dst:v
  in
  let q, cc =
    with_churn_counts (fun () ->
        C.collect_routes_keyed ~route ~dist live_pairs)
  in
  if Float.is_nan !base_stretch then base_stretch := q.C.stretch_mean;
  let nq = max 1 q.C.queries in
  let delivered = q.C.queries - q.C.failures in
  C.row
    [
      (match label with
      | Some s -> C.cell ~w:5 s
      | None -> C.cell_float ~w:5 ~prec:2 rate);
      ev_cell summary;
      C.cell_int ~w:6 q.C.queries;
      C.cell_float ~w:9 (float_of_int delivered /. float_of_int nq);
      C.cell_float ~w:11 q.C.stretch_mean;
      C.cell_float ~w:8 (q.C.stretch_mean /. !base_stretch);
      C.cell_float ~w:8 (float_of_int cc.stale_hits /. float_of_int nq);
      C.cell_float ~w:9 (float_of_int cc.detours /. float_of_int nq);
      C.cell_float ~w:7 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.updates events);
      C.cell_float ~w:9 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.refills events);
      C.cell_int ~w:6 (stale_after ());
    ];
  if q.C.failures > 0 then C.note (C.pp_observed q);
  if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ()

let run () =
  C.section "CHURN"
    "Dynamic membership: seeded joins/leaves with incremental ring repair";
  let rebuilds0 = Counter.value Probe.churn_rebuilds in
  let rng = Rng.create 83 in

  let sp = Sp_metric.create (Graph_gen.grid 10 10) in
  let n = Ron_graph.Graph.size (Sp_metric.graph sp) in
  let pairs = C.sample_pairs (Rng.split rng) ~n ~count:500 in
  let dist u v = Sp_metric.dist sp u v in

  C.subsection "Thm 2.1 (Basic) on grid10x10: ring refill by bounded-radius exploration";
  let b = Basic.build sp ~delta:0.25 in
  let make_repair rate =
    let sched = schedule_for ~n rate in
    let st = Churn.state_of_schedule sched in
    let rr = Churn.Ring_repair.create st (Basic.substrate b) (Basic.rings_collection b) in
    ( sched, st,
      (fun v -> Churn.Ring_repair.leave rr v),
      (fun v -> Churn.Ring_repair.join rr v),
      None,
      fun () -> Churn.Ring_repair.stale_members rr )
  in
  let base = ref nan in
  sweep_header ();
  List.iter
    (fun rate ->
      sweep_row ~rate ~make_repair
        ~route_wrapped:(fun w ~src ~dst -> Basic.route_wrapped w b ~src ~dst)
        ~dist pairs base)
    rates;
  (* One composed row: churn at 0.05 plus per-hop message drops — the two
     wrappers stack through Scheme.compose, drops outermost. *)
  let fdrop = Fault.make ~seed:4242 ~crash_fraction:0.0 ~drop_rate:0.0125 ~dead_link_fraction:0.0 ~n () in
  sweep_row ~label:(Some "+drop") ~extra:(fun ~query -> Fault.wrapper fdrop ~query)
    ~rate:0.05 ~make_repair
    ~route_wrapped:(fun w ~src ~dst -> Basic.route_wrapped w b ~src ~dst)
    ~dist pairs base;
  C.note "Leaves are repaired in place: each ring that lost a member refills with";
  C.note "the nearest live node inside the ring's own ball (never a rebuild).";

  C.subsection "Thm 4.1 (Labelled) on grid10x10: neighbor-table overlay repair";
  let l = Labelled.build sp ~delta:0.25 in
  let lrows = Array.init n (fun u -> Labelled.neighbors l u) in
  let make_repair rate =
    let sched = schedule_for ~n rate in
    let st = Churn.state_of_schedule sched in
    let ov =
      Churn.Overlay.create st lrows
        ~relabel_cost:(fun v -> Array.length lrows.(v))
    in
    ( sched, st,
      (fun v -> Churn.Overlay.leave ov v),
      (fun v -> Churn.Overlay.join ov v),
      Some (fun () -> Churn.Overlay.backlog ov),
      fun () -> Churn.Overlay.stale_entries ov )
  in
  let base = ref nan in
  sweep_header ();
  List.iter
    (fun rate ->
      sweep_row ~rate ~make_repair
        ~route_wrapped:(fun w ~src ~dst -> Labelled.route_wrapped w l ~src ~dst)
        ~dist pairs base)
    rates;
  C.note "A departed neighbor is substituted from the referrer's own pristine row;";
  C.note "a rejoin re-derives its label and is re-adopted at its old positions.";

  (* Grids are degenerate for two-mode churn (every node self-hubs a
     singleton directory, so there is nothing to repair); the clustered
     latency metric produces real cross-node hub and directory entries. *)
  C.subsection "Thm 4.2 (Two-mode) on clustered latencies: hub + directory overlay repair";
  let idx8 =
    Indexed.create
      (Generators.clustered_latency (Rng.split rng) ~clusters:6 ~per_cluster:30
         ~spread:30.0 ~access:6.0)
  in
  let n8 = Indexed.size idx8 in
  let tm = Two_mode.build idx8 ~delta:0.125 in
  let x = Two_mode.export tm in
  (* Churn repairs each node's slice of the shared directory structure. *)
  let tmrows = Array.init n8 (Two_mode.overlay_row x) in
  let scales8 = x.Two_mode.li in
  let pairs8 = C.sample_pairs (Rng.split rng) ~n:n8 ~count:300 in
  let make_repair rate =
    let sched = schedule_for ~n:n8 rate in
    let st = Churn.state_of_schedule sched in
    let ov = Churn.Overlay.create st tmrows ~relabel_cost:(fun _ -> scales8) in
    ( sched, st,
      (fun v -> Churn.Overlay.leave ov v),
      (fun v -> Churn.Overlay.join ov v),
      Some (fun () -> Churn.Overlay.backlog ov),
      fun () -> Churn.Overlay.stale_entries ov )
  in
  let base = ref nan in
  sweep_header ();
  List.iter
    (fun rate ->
      sweep_row ~rate ~make_repair
        ~route_wrapped:(fun w ~src ~dst -> Two_mode.route_wrapped w tm ~src ~dst)
        ~dist:(fun u v -> Indexed.dist idx8 u v)
        pairs8 base)
    rates;
  C.note "Directory entries are repaired at their hub node; any live member of a";
  C.note "scale-i directory can stand in for a departed one.";

  C.subsection "Meridian: membership churn with ranked ring replacement";
  let idxm =
    Indexed.create
      (Generators.clustered_latency (Rng.split rng) ~clusters:6 ~per_cluster:30
         ~spread:30.0 ~access:6.0)
  in
  let nm = Indexed.size idxm in
  let perm = Array.init nm Fun.id in
  Rng.shuffle rng perm;
  let cut = nm / 5 in
  let targets = Array.sub perm 0 cut and members = Array.sub perm cut (nm - cut) in
  let m0 = Meridian.build idxm (Rng.split rng) ~ring_size:8 ~members in
  let starts = Array.map (fun _ -> members.(Rng.int rng (Array.length members))) targets in
  C.header
    [
      C.cell ~w:5 "rate"; C.cell ~w:9 "events"; C.cell ~w:8 "queries";
      C.cell ~w:11 "exact hits"; C.cell ~w:12 "worst ratio"; C.cell ~w:7 "rep/ev";
      C.cell ~w:9 "refill/ev";
    ];
  List.iter
    (fun rate ->
      let sched = schedule_for ~eligible:(fun v -> Meridian.is_member m0 v) ~n:nm rate in
      let st = Churn.state_of_schedule sched in
      let mc = Meridian.copy m0 in
      let mrng = Rng.create (Rng.mix churn_seed 0x7e5d) in
      let summary =
        apply_probed sched st
          ~on_leave:(fun v ->
            let updates, refills = Meridian.leave_counted mc v in
            { Churn.updates; refills; relabels = 0 })
          ~on_join:(fun v ->
            let w = Meridian.join_counted mc mrng v in
            { Churn.updates = w; refills = w; relabels = 0 })
          ()
      in
      let events = summary.Churn.Driver.joins + summary.Churn.Driver.leaves in
      let exact = ref 0 and total = ref 0 and ratio = ref 1.0 in
      Array.iteri
        (fun i tgt ->
          let start = starts.(i) in
          if Churn.is_live st start then begin
            let r = Meridian.closest mc ~start ~target:tgt in
            let truth = Meridian.exact_closest mc tgt in
            incr total;
            if r.Meridian.found = truth then incr exact
            else begin
              let a = Indexed.dist idxm r.Meridian.found tgt
              and b = Indexed.dist idxm truth tgt in
              ratio := Float.max !ratio (a /. Float.max b 1e-12)
            end
          end)
        targets;
      C.row
        [
          C.cell_float ~w:5 ~prec:2 rate;
          ev_cell summary;
          C.cell_int ~w:8 !total;
          C.cell ~w:11 (Printf.sprintf "%d/%d" !exact !total);
          C.cell_float ~w:12 !ratio;
          C.cell_float ~w:7 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.updates events);
          C.cell_float ~w:9 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.refills events);
        ];
      if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ())
    rates;
  C.note "leave_counted answers Section 6's maintenance question incrementally:";
  C.note "each ring that lost the departed member refills with the nearest live";
  C.note "same-annulus member — queries keep settling on near-optimal nodes.";

  let nl = landmark_n () in
  C.subsection (Printf.sprintf "Landmark labeling on torus (n=%d): ball repair at scale" nl);
  let side = max 2 (int_of_float (Float.round (sqrt (float_of_int nl)))) in
  let g = Graph_gen.torus side side in
  let nn = Ron_graph.Graph.size g in
  let spl = Sp_metric.create g in
  let k = max 4 (min 32 (1 + Ron_util.Bits.ilog2_floor nn)) in
  let lm = Landmark.build spl (Rng.create 97) ~k ~local_radius:2.0 in
  let is_beacon = Array.make nn false in
  Array.iter (fun b -> is_beacon.(b) <- true) (Landmark.beacons lm);
  let balls = Array.init nn (fun u -> Landmark.ball_members lm u) in
  C.header
    [
      C.cell ~w:5 "rate"; C.cell ~w:9 "events"; C.cell ~w:7 "live";
      C.cell ~w:7 "rep/ev"; C.cell ~w:9 "refill/ev"; C.cell ~w:10 "relabel/ev";
      C.cell ~w:8 "backlog"; C.cell ~w:6 "stale";
    ];
  List.iter
    (fun rate ->
      let sched = schedule_for ~eligible:(fun v -> not is_beacon.(v)) ~n:nn rate in
      let st = Churn.state_of_schedule sched in
      let ov =
        Churn.Overlay.create st balls
          ~relabel_cost:(fun v -> k + Array.length balls.(v))
      in
      let summary =
        apply_probed sched st
          ~on_leave:(fun v -> Churn.Overlay.leave ov v)
          ~on_join:(fun v -> Churn.Overlay.join ov v)
          ~backlog:(fun () -> Churn.Overlay.backlog ov)
          ()
      in
      let events = summary.Churn.Driver.joins + summary.Churn.Driver.leaves in
      C.row
        [
          C.cell_float ~w:5 ~prec:2 rate;
          ev_cell summary;
          C.cell_int ~w:7 (Churn.live_count st);
          C.cell_float ~w:7 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.updates events);
          C.cell_float ~w:9 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.refills events);
          C.cell_float ~w:10 ~prec:1 (per_event summary.Churn.Driver.cost.Churn.relabels events);
          C.cell_int ~w:8 (Churn.Overlay.backlog ov);
          C.cell_int ~w:6 (Churn.Overlay.stale_entries ov);
        ];
      if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ())
    rates;
  C.note "Beacons are fenced off the schedule (their rows are load-bearing); a";
  C.note "rejoining node re-derives k beacon distances plus its ball — per-event";
  C.note "work stays bounded by the event's footprint, independent of n.";
  C.note
    (Printf.sprintf "churn.rebuilds = %d (incremental repair only; must stay 0)"
       (Counter.value Probe.churn_rebuilds - rebuilds0))
