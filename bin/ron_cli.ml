(* rings-of-neighbors command-line driver.

   Subcommands (cmdliner):
     estimate    -- build a (0,delta)-triangulation / Thm 3.4 labels on a
                    generated metric and estimate sampled pairs
     route       -- run a routing scheme on a generated graph/metric
     smallworld  -- run small-world lookups
     experiment  -- run one of the named reproduction experiments
     inspect     -- print substrate facts about a generated metric *)

open Cmdliner

module Rng = Ron_util.Rng
module Metric = Ron_metric.Metric
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Net = Ron_metric.Net
module Measure = Ron_metric.Measure
module Doubling = Ron_metric.Doubling
module Scheme = Ron_routing.Scheme

(* ------------------------------------------------------ metric selection *)

let make_metric name n seed =
  let rng = Rng.create seed in
  match name with
  | "cloud" -> Generators.random_cloud rng ~n ~dim:2
  | "cloud3d" -> Generators.random_cloud rng ~n ~dim:3
  | "grid" ->
    let side = max 2 (int_of_float (sqrt (float_of_int n))) in
    Generators.grid2d side side
  | "expline" -> Generators.exponential_line (min n 48)
  | "expclusters" ->
    let clusters = max 2 (n / 16) in
    Generators.exponential_clusters rng ~clusters ~per_cluster:(max 1 (n / clusters)) ~base:16.0
  | "latency" ->
    Generators.clustered_latency rng ~clusters:(max 2 (n / 40)) ~per_cluster:40 ~spread:30.0
      ~access:6.0
  | "ring" -> Metric.normalize (Generators.ring n)
  | "line" -> Metric.normalize (Generators.uniform_line n)
  | other -> failwith (Printf.sprintf "unknown metric family %S" other)

let metric_names = [ "cloud"; "cloud3d"; "grid"; "expline"; "expclusters"; "latency"; "ring"; "line" ]

let metric_arg =
  let doc = Printf.sprintf "Metric family: %s." (String.concat ", " metric_names) in
  Arg.(value & opt string "cloud" & info [ "m"; "metric" ] ~docv:"FAMILY" ~doc)

let n_arg = Arg.(value & opt int 128 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")
let seed_arg = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let delta_arg =
  Arg.(value & opt float 0.25 & info [ "d"; "delta" ] ~docv:"DELTA" ~doc:"Accuracy parameter.")

let pairs_arg =
  Arg.(value & opt int 500 & info [ "p"; "pairs" ] ~docv:"PAIRS" ~doc:"Number of sampled pairs.")

(* --------------------------------------------------------- observability *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"Write JSONL trace events to $(docv).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write an observability snapshot (counters, histograms, per-query costs) to $(docv) \
           as JSON.")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Write a hierarchical phase profile (wall time and GC deltas per construction/query \
           phase) to $(docv) as JSON.")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Write periodic telemetry snapshots (counter deltas, gauges, bounded-histogram \
           summaries, GC and RSS) to $(docv) as JSONL during the run.")

let telemetry_interval_arg =
  Arg.(
    value
    & opt int 500
    & info [ "telemetry-interval" ] ~docv:"MS"
        ~doc:"Telemetry sampling interval in milliseconds (default 500).")

let expo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "expo" ] ~docv:"FILE"
        ~doc:
          "Write the observability registry (counters, gauges, bucketed histograms, build \
           info) to $(docv) in Prometheus text format — atomically rewritten on every \
           telemetry tick (with $(b,--telemetry)) and once more at exit.")

let slo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:
          "Serving objectives, e.g. $(b,p99<=2us,delivery>=0.999): evaluate rolling query \
           windows against the spec and report the per-window error-budget burn rate.")

let slo_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slo-out" ] ~docv:"FILE"
        ~doc:
          "Write the machine-readable SLO verdict (ron-slo/1 JSON, flight-recorder exemplars \
           embedded) to $(docv). Requires $(b,--slo).")

let slo_window_arg =
  Arg.(
    value & opt int 2000
    & info [ "slo-window" ] ~docv:"Q"
        ~doc:"Queries per SLO evaluation window (default 2000).")

let flight_arg =
  Arg.(
    value & opt int 0
    & info [ "flight" ] ~docv:"K"
        ~doc:
          "Flight recorder: retain the $(docv) slowest queries of every recorder window with \
           full context (0, the default, disables the recorder).")

let flight_trace_every_arg =
  Arg.(
    value & opt int 32
    & info [ "flight-trace-every" ] ~docv:"N"
        ~doc:
          "Capture the per-hop trace for one in $(docv) deterministically sampled queries \
           (default 32; 0 disables trace capture).")

(* Validate the SLO/flight flag set and build the observers; [Error] is a
   user error (stderr + exit 2 at the caller). *)
let make_observers ~slo ~slo_out ~slo_window ~flight ~flight_trace_every =
  if slo_window < 1 then Error "--slo-window must be >= 1"
  else if flight < 0 then Error "--flight must be >= 0"
  else if flight_trace_every < 0 then Error "--flight-trace-every must be >= 0"
  else if slo_out <> None && slo = None then Error "--slo-out requires --slo"
  else
    let flight_rec =
      if flight > 0 then
        Some (Ron_obs.Flight.create ~per_window:flight ~trace_every:flight_trace_every ())
      else None
    in
    match slo with
    | None -> Ok (None, flight_rec)
    | Some spec -> (
      match Ron_obs.Slo.parse spec with
      | Error e -> Error (Printf.sprintf "--slo %S: %s" spec e)
      | Ok objs -> Ok (Some (Ron_obs.Slo.create ~window:slo_window objs), flight_rec))

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel construction (overrides RON_JOBS). Results are \
           bit-identical at every job count.")

let set_jobs jobs =
  match jobs with
  | Some j when j < 1 -> failwith "--jobs must be >= 1"
  | _ -> Ron_util.Pool.set_default_jobs jobs

(* Shared by every subcommand: configure the trace sink, the phase
   profiler, the telemetry sampler, the exposition writer, and/or the
   probes, run, then write the snapshot/profile/exposition and close the
   sinks (also on error, so a crashed run still leaves its artifacts on
   disk). Flag validation errors are user errors: stderr + exit 2, never
   an uncaught exception. *)
let with_obs trace metrics profile telemetry telemetry_interval expo f =
  if telemetry_interval < 1 then begin
    Printf.eprintf "--telemetry-interval %d: the interval must be >= 1 (milliseconds)\n"
      telemetry_interval;
    2
  end
  else
    (* Probe the exposition path up front: the first atomic write
       exercises both the temp file and the rename, so a bad path fails
       before any expensive construction. *)
    match
      match expo with
      | Some file -> ( try Ok (Ron_obs.Expo.write file) with Sys_error e -> Error e)
      | None -> Ok ()
    with
    | Error e ->
      Printf.eprintf "--expo: %s\n" e;
      2
    | Ok () ->
      (match trace with
      | Some file ->
        Ron_obs.Trace.configure ~clock:Ron_obs.Clock.ns
          (Ron_obs.Trace.channel_sink (open_out file))
      | None -> ());
      (match profile with
      | Some _ -> Ron_obs.Profile.enable ~clock:Ron_obs.Clock.ns ()
      | None -> ());
      (match telemetry with
      | Some file ->
        Ron_obs.Telemetry.start ~clock:Ron_obs.Clock.ns
          ~interval:(Int64.of_int (telemetry_interval * 1_000_000))
          ?expo
          (Ron_obs.Trace.channel_sink (open_out file))
      | None -> ());
      (* Telemetry and exposition need the probes on: counters, gauges and
         bucketed histograms are all recorded behind [Probe.on]. *)
      if trace <> None || metrics <> None || telemetry <> None || expo <> None then
        Ron_obs.enable ();
      Fun.protect
        ~finally:(fun () ->
          (match metrics with Some file -> Ron_obs.write_snapshot file | None -> ());
          (match expo with Some file -> Ron_obs.Expo.write file | None -> ());
          (match profile with
          | Some file ->
            Ron_obs.Profile.write file;
            Ron_obs.Profile.disable ()
          | None -> ());
          Ron_obs.Telemetry.stop ();
          Ron_obs.Trace.stop ())
        f

(* -------------------------------------------------------------- estimate *)

let run_estimate trace metrics profile telemetry telemetry_interval expo jobs family n seed delta pairs =
  set_jobs jobs;
  with_obs trace metrics profile telemetry telemetry_interval expo @@ fun () ->
  let idx = Indexed.create (make_metric family n seed) in
  let n = Indexed.size idx in
  Printf.printf "metric=%s n=%d log2(aspect)=%d\n" family n (Indexed.log2_aspect_ratio idx);
  let tri = Ron_labeling.Triangulation.build idx ~delta in
  let dls = Ron_labeling.Dls.build tri in
  Printf.printf "triangulation order=%d; Thm 3.4 max label = %d bits\n"
    (Ron_labeling.Triangulation.order tri)
    (Ron_labeling.Dls.max_label_bits dls);
  let rng = Rng.create (seed + 1) in
  let worst_tri = ref 1.0 and worst_dls = ref 1.0 in
  for _ = 1 to pairs do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let d = Indexed.dist idx u v in
      let (_, hi) = Ron_labeling.Triangulation.estimate tri u v in
      let e = Ron_labeling.Dls.estimate (Ron_labeling.Dls.label dls u) (Ron_labeling.Dls.label dls v) in
      worst_tri := Float.max !worst_tri (hi /. d);
      worst_dls := Float.max !worst_dls (e /. d)
    end
  done;
  Printf.printf "worst overestimate on %d pairs: triangulation %.4f, labels-only %.4f (bound %.4f)\n"
    pairs !worst_tri !worst_dls
    ((1.0 +. (2.0 *. delta)) *. (1.0 +. (delta /. 8.0)));
  0

let estimate_cmd =
  let doc = "Distance estimation: Theorem 3.2 triangulation + Theorem 3.4 labels." in
  Cmd.v (Cmd.info "estimate" ~doc)
    Term.(
      const run_estimate $ trace_arg $ metrics_arg $ profile_arg $ telemetry_arg $ telemetry_interval_arg $ expo_arg $ jobs_arg $ metric_arg $ n_arg $ seed_arg
      $ delta_arg $ pairs_arg)

(* ----------------------------------------------------------------- route *)

let scheme_arg =
  let doc = "Routing scheme: thm21 (graphs), thm41 (graphs), metric (Sec 4.1), thm42 (metric two-mode), trivial." in
  Arg.(value & opt string "thm21" & info [ "scheme" ] ~docv:"SCHEME" ~doc)

let run_route trace metrics profile telemetry telemetry_interval expo jobs family n seed delta pairs scheme =
  set_jobs jobs;
  with_obs trace metrics profile telemetry telemetry_interval expo @@ fun () ->
  let rng = Rng.create seed in
  let report name route dist max_table header n =
    let prs = Ron_experiments.Exp_common.sample_pairs (Rng.create (seed + 2)) ~n ~count:pairs in
    let q = Ron_experiments.Exp_common.collect_routes ~route ~dist prs in
    Printf.printf "%s: table<=%d bits, header<=%d bits\n  %s\n  %s\n" name max_table header
      (Ron_experiments.Exp_common.pp_quality q)
      (Ron_experiments.Exp_common.pp_observed q)
  in
  begin
    match scheme with
    | "metric" | "thm42" ->
      let idx = Indexed.create (make_metric family n seed) in
      let nn = Indexed.size idx in
      if scheme = "metric" then begin
        let s = Ron_routing.On_metric.build idx ~delta in
        report "Thm 2.1 on metric"
          (fun u v -> Ron_routing.On_metric.route s ~src:u ~dst:v)
          (fun u v -> Indexed.dist idx u v)
          (Array.fold_left max 0 (Ron_routing.On_metric.table_bits s))
          (Ron_routing.On_metric.header_bits s) nn
      end
      else begin
        let s = Ron_routing.Two_mode.build idx ~delta:(Float.min delta 0.125) in
        report "Thm 4.2 two-mode"
          (fun u v -> Ron_routing.Two_mode.route s ~src:u ~dst:v)
          (fun u v -> Indexed.dist idx u v)
          (Array.fold_left max 0 (Ron_routing.Two_mode.table_bits_m1 s))
          (Ron_routing.Two_mode.header_bits s) nn;
        Printf.printf "  M2 switches: %d\n" (Ron_routing.Two_mode.mode2_switches s)
      end
    | "thm21" | "thm41" | "trivial" ->
      let g =
        match family with
        | "grid" ->
          let side = max 2 (int_of_float (sqrt (float_of_int n))) in
          Ron_graph.Graph_gen.grid side side
        | "expline" -> Ron_graph.Graph_gen.exponential_line_graph (min n 40)
        | _ -> Ron_graph.Graph_gen.random_geometric rng ~n ~radius:(2.0 /. sqrt (float_of_int n))
      in
      let sp = Ron_graph.Sp_metric.create g in
      let nn = Ron_graph.Graph.size g in
      let dist u v = Ron_graph.Sp_metric.dist sp u v in
      (match scheme with
      | "thm21" ->
        let s = Ron_routing.Basic.build sp ~delta:(Float.min delta 0.25) in
        report "Thm 2.1" (fun u v -> Ron_routing.Basic.route s ~src:u ~dst:v) dist
          (Array.fold_left max 0 (Ron_routing.Basic.table_bits s))
          (Ron_routing.Basic.header_bits s) nn
      | "thm41" ->
        let s = Ron_routing.Labelled.build sp ~delta in
        report "Thm 4.1" (fun u v -> Ron_routing.Labelled.route s ~src:u ~dst:v) dist
          (Array.fold_left max 0 (Ron_routing.Labelled.table_bits s))
          (Ron_routing.Labelled.header_bits s) nn
      | _ ->
        let s = Ron_routing.Full_table.build sp in
        report "stretch-1 trivial" (fun u v -> Ron_routing.Full_table.route s ~src:u ~dst:v) dist
          (Array.fold_left max 0 (Ron_routing.Full_table.table_bits s))
          (Ron_routing.Full_table.header_bits s) nn)
    | other -> failwith (Printf.sprintf "unknown scheme %S" other)
  end;
  0

let route_cmd =
  let doc = "Compact (1+delta)-stretch routing (Theorems 2.1, 4.1, 4.2; Section 4.1)." in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(
      const run_route $ trace_arg $ metrics_arg $ profile_arg $ telemetry_arg $ telemetry_interval_arg $ expo_arg $ jobs_arg $ metric_arg $ n_arg $ seed_arg
      $ delta_arg $ pairs_arg $ scheme_arg)

(* ----------------------------------------------------------------- fault *)

let crash_arg =
  Arg.(
    value & opt float 0.05
    & info [ "crash" ] ~docv:"FRAC" ~doc:"Fraction of nodes crashed (seed-chosen, in [0,1)).")

let drop_arg =
  Arg.(
    value & opt float 0.01
    & info [ "drop" ] ~docv:"RATE" ~doc:"Per-hop Bernoulli message-drop rate (in [0,1)).")

let dead_links_arg =
  Arg.(
    value & opt float 0.0
    & info [ "dead-links" ] ~docv:"FRAC" ~doc:"Fraction of (undirected) links dead (in [0,1)).")

let fault_seed_arg =
  Arg.(
    value & opt int 4242
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed of the fault model's dedicated random stream (independent of --seed).")

let run_fault trace metrics profile telemetry telemetry_interval expo jobs family n seed delta pairs scheme crash drop dead fseed =
  set_jobs jobs;
  with_obs trace metrics profile telemetry telemetry_interval expo @@ fun () ->
  let module Fault = Ron_fault.Fault in
  let module C = Ron_experiments.Exp_common in
  let rng = Rng.create seed in
  let report name route_wrapped dist nn =
    let fault = Fault.make ~seed:fseed ~crash_fraction:crash ~drop_rate:drop
        ~dead_link_fraction:dead ~n:nn ()
    in
    let prs =
      List.filter
        (fun (u, v) -> not (Fault.crashed fault u || Fault.crashed fault v))
        (C.sample_pairs (Rng.create (seed + 2)) ~n:nn ~count:pairs)
    in
    let module Counter = Ron_obs.Counter in
    let module Probe = Ron_obs.Probe in
    let before name c = (name, Counter.value c) in
    let base =
      [
        before "drops injected" Probe.fault_drops;
        before "crashed hits" Probe.fault_crashed_hits;
        before "dead-link hits" Probe.fault_dead_links;
        before "retries" Probe.fault_retries;
        before "detours" Probe.fault_detours;
      ]
    in
    let q =
      C.collect_routes_keyed
        ~route:(fun ~query u v -> route_wrapped (Fault.wrapper fault ~query) u v)
        ~dist prs
    in
    Printf.printf "%s under faults (%s)\n  %s\n  %s\n" name (Fault.describe fault)
      (C.pp_quality q) (C.pp_observed q);
    let delivered = q.C.queries - q.C.failures in
    Printf.printf "  delivery rate %.3f (%d/%d live pairs)\n"
      (float_of_int delivered /. float_of_int (max 1 q.C.queries))
      delivered q.C.queries;
    Printf.printf "  fault events:";
    List.iter
      (fun (nm, v0) ->
        let c =
          match nm with
          | "drops injected" -> Probe.fault_drops
          | "crashed hits" -> Probe.fault_crashed_hits
          | "dead-link hits" -> Probe.fault_dead_links
          | "retries" -> Probe.fault_retries
          | _ -> Probe.fault_detours
        in
        Printf.printf " %s %d" nm (Counter.value c - v0))
      base;
    print_newline ()
  in
  begin
    match scheme with
    | "thm42" ->
      let idx = Indexed.create (make_metric family n seed) in
      let nn = Indexed.size idx in
      let s = Ron_routing.Two_mode.build idx ~delta:(Float.min delta 0.125) in
      report "Thm 4.2 two-mode"
        (fun w u v -> Ron_routing.Two_mode.route_wrapped w s ~src:u ~dst:v)
        (fun u v -> Indexed.dist idx u v)
        nn
    | "thm21" | "thm41" ->
      let g =
        match family with
        | "grid" ->
          let side = max 2 (int_of_float (sqrt (float_of_int n))) in
          Ron_graph.Graph_gen.grid side side
        | "expline" -> Ron_graph.Graph_gen.exponential_line_graph (min n 40)
        | _ -> Ron_graph.Graph_gen.random_geometric rng ~n ~radius:(2.0 /. sqrt (float_of_int n))
      in
      let sp = Ron_graph.Sp_metric.create g in
      let nn = Ron_graph.Graph.size g in
      let dist u v = Ron_graph.Sp_metric.dist sp u v in
      if scheme = "thm21" then begin
        let s = Ron_routing.Basic.build sp ~delta:(Float.min delta 0.25) in
        report "Thm 2.1"
          (fun w u v -> Ron_routing.Basic.route_wrapped w s ~src:u ~dst:v)
          dist nn
      end
      else begin
        let s = Ron_routing.Labelled.build sp ~delta in
        report "Thm 4.1"
          (fun w u v -> Ron_routing.Labelled.route_wrapped w s ~src:u ~dst:v)
          dist nn
      end
    | other -> failwith (Printf.sprintf "unknown scheme %S (fault supports thm21, thm41, thm42)" other)
  end;
  0

let fault_cmd =
  let doc =
    "Route under deterministic fault injection (crashed nodes, message drop, dead links) with \
     graceful-degradation fallbacks."
  in
  Cmd.v (Cmd.info "fault" ~doc)
    Term.(
      const run_fault $ trace_arg $ metrics_arg $ profile_arg $ telemetry_arg $ telemetry_interval_arg $ expo_arg $ jobs_arg $ metric_arg $ n_arg $ seed_arg
      $ delta_arg $ pairs_arg $ scheme_arg $ crash_arg $ drop_arg $ dead_links_arg
      $ fault_seed_arg)

(* ----------------------------------------------------------------- churn *)

let join_rate_arg =
  Arg.(
    value & opt float 0.05
    & info [ "join-rate" ] ~docv:"RATE"
        ~doc:"Per-slot probability that a departed node rejoins.")

let leave_rate_arg =
  Arg.(
    value & opt float 0.05
    & info [ "leave-rate" ] ~docv:"RATE"
        ~doc:"Per-slot probability that a live node leaves.")

let churn_seed_arg =
  Arg.(
    value & opt int 9191
    & info [ "churn-seed" ] ~docv:"SEED"
        ~doc:"Seed of the churn schedule's dedicated random stream (independent of --seed).")

let slots_arg =
  Arg.(
    value & opt int 120
    & info [ "slots" ] ~docv:"SLOTS" ~doc:"Event slots in the churn schedule.")

let run_churn trace metrics profile telemetry telemetry_interval expo jobs family n seed delta pairs
    scheme jrate lrate cseed slots crash drop dead fseed slo slo_out slo_window flight
    flight_trace_every =
  set_jobs jobs;
  with_obs trace metrics profile telemetry telemetry_interval expo @@ fun () ->
  let module Churn = Ron_churn.Churn in
  let module Fault = Ron_fault.Fault in
  let module Scheme = Ron_routing.Scheme in
  let module C = Ron_experiments.Exp_common in
  let module Counter = Ron_obs.Counter in
  let module Probe = Ron_obs.Probe in
  match make_observers ~slo ~slo_out ~slo_window ~flight ~flight_trace_every with
  | Error e ->
    prerr_endline e;
    2
  | Ok (slo_mon, flight_rec) ->
  let rng = Rng.create seed in
  let report name ~tag ~make_repair route_wrapped dist nn =
    let sched =
      Churn.Schedule.make ~seed:cseed ~n:nn ~slots ~join_rate:jrate ~leave_rate:lrate ()
    in
    let st = Churn.state_of_schedule sched in
    let on_leave, on_join, backlog, stale_after = make_repair st in
    let was_on = !Probe.on in
    Probe.on := true;
    let summary =
      Fun.protect
        ~finally:(fun () -> Probe.on := was_on)
        (fun () -> Churn.Driver.apply sched st ~on_leave ~on_join ?backlog ())
    in
    (* Composable with the fault axis: churn detours innermost, fault
       injection on top. All-zero fault rates compose with the identity. *)
    let fault =
      if crash = 0.0 && drop = 0.0 && dead = 0.0 then None
      else
        Some
          (Fault.make ~seed:fseed ~crash_fraction:crash ~drop_rate:drop
             ~dead_link_fraction:dead ~n:nn ())
    in
    let prs =
      List.filter
        (fun (u, v) ->
          Churn.is_live st u && Churn.is_live st v
          && match fault with
             | None -> true
             | Some f -> not (Fault.crashed f u || Fault.crashed f v))
        (C.sample_pairs (Rng.create (seed + 2)) ~n:nn ~count:pairs)
    in
    let cw = Churn.wrapper st in
    let wrapper_for query =
      match fault with
      | None -> cw
      | Some f -> Scheme.compose (Fault.wrapper f ~query) cw
    in
    let before name c = (name, c, Counter.value c) in
    let base =
      [
        before "stale hits" Probe.churn_stale_hits;
        before "detours" Probe.churn_detours;
      ]
    in
    let q =
      C.collect_routes_keyed
        ~route:(fun ~query u v -> route_wrapped (wrapper_for query) u v)
        ~dist prs
    in
    Printf.printf "%s under churn (%s)\n" name (Churn.Schedule.describe sched);
    (match fault with
    | Some f -> Printf.printf "  composed with %s\n" (Fault.describe f)
    | None -> ());
    Printf.printf "  %s\n  %s\n" (C.pp_quality q) (C.pp_observed q);
    let delivered = q.C.queries - q.C.failures in
    Printf.printf "  delivery rate %.3f (%d/%d live pairs), live nodes %d/%d\n"
      (float_of_int delivered /. float_of_int (max 1 q.C.queries))
      delivered q.C.queries (Churn.live_count st) nn;
    let ev = summary.Churn.Driver.joins + summary.Churn.Driver.leaves in
    Printf.printf "  repair: %d updates, %d refills, %d relabels over %d events (%.1f/ev), stale after %d\n"
      summary.Churn.Driver.cost.Churn.updates summary.Churn.Driver.cost.Churn.refills
      summary.Churn.Driver.cost.Churn.relabels ev
      (float_of_int summary.Churn.Driver.cost.Churn.updates /. float_of_int (max 1 ev))
      (stale_after ());
    Printf.printf "  churn events:";
    List.iter
      (fun (nm, c, v0) -> Printf.printf " %s %d" nm (Counter.value c - v0))
      base;
    print_newline ();
    (* Observed pass for the SLO monitor / flight recorder: sequential and
       wall-clocked — the monitor is single-feeder state, and the live
       churn schemes have no frozen scratch, so exemplars carry full
       context but no per-hop trace. *)
    match (slo_mon, flight_rec) with
    | None, None -> ()
    | _ ->
      List.iteri
        (fun i (u, v) ->
          let t0 = Ron_obs.Clock.now_ns () in
          let r = route_wrapped (wrapper_for i) u v in
          let lat_ns = Ron_obs.Clock.now_ns () - t0 in
          (match flight_rec with
          | Some fr ->
            let outcome =
              match r.Scheme.outcome with
              | Scheme.Delivered -> 0
              | Scheme.Truncated -> 1
              | Scheme.Self_forward -> 2
              | Scheme.Cycled -> 3
              | Scheme.Dropped -> 4
            in
            Ron_obs.Flight.record fr ~qid:i ~scheme:tag ~kind:0 ~src:u ~dst:v ~outcome
              ~hops:r.Scheme.hops ~lat:lat_ns ~trace:[||] ~trace_len:(-1)
          | None -> ());
          match slo_mon with
          | Some s -> Ron_obs.Slo.observe s ~lat:(float_of_int lat_ns) ~ok:r.Scheme.delivered
          | None -> ())
        prs
  in
  begin
    match scheme with
    | "thm42" ->
      let idx = Indexed.create (make_metric family n seed) in
      let nn = Indexed.size idx in
      let s = Ron_routing.Two_mode.build idx ~delta:(Float.min delta 0.125) in
      let x = Ron_routing.Two_mode.export s in
      let rows = Array.init nn (Ron_routing.Two_mode.overlay_row x) in
      let scales = x.Ron_routing.Two_mode.li in
      report "Thm 4.2 two-mode" ~tag:3
        ~make_repair:(fun st ->
          let ov = Churn.Overlay.create st rows ~relabel_cost:(fun _ -> scales) in
          ( (fun v -> Churn.Overlay.leave ov v),
            (fun v -> Churn.Overlay.join ov v),
            Some (fun () -> Churn.Overlay.backlog ov),
            fun () -> Churn.Overlay.stale_entries ov ))
        (fun w u v -> Ron_routing.Two_mode.route_wrapped w s ~src:u ~dst:v)
        (fun u v -> Indexed.dist idx u v)
        nn
    | "thm21" | "thm41" ->
      let g =
        match family with
        | "grid" ->
          let side = max 2 (int_of_float (sqrt (float_of_int n))) in
          Ron_graph.Graph_gen.grid side side
        | "expline" -> Ron_graph.Graph_gen.exponential_line_graph (min n 40)
        | _ -> Ron_graph.Graph_gen.random_geometric rng ~n ~radius:(2.0 /. sqrt (float_of_int n))
      in
      let sp = Ron_graph.Sp_metric.create g in
      let nn = Ron_graph.Graph.size g in
      let dist u v = Ron_graph.Sp_metric.dist sp u v in
      if scheme = "thm21" then begin
        let s = Ron_routing.Basic.build sp ~delta:(Float.min delta 0.25) in
        report "Thm 2.1" ~tag:1
          ~make_repair:(fun st ->
            let rr =
              Churn.Ring_repair.create st (Ron_routing.Basic.substrate s)
                (Ron_routing.Basic.rings_collection s)
            in
            ( (fun v -> Churn.Ring_repair.leave rr v),
              (fun v -> Churn.Ring_repair.join rr v),
              None,
              fun () -> Churn.Ring_repair.stale_members rr ))
          (fun w u v -> Ron_routing.Basic.route_wrapped w s ~src:u ~dst:v)
          dist nn
      end
      else begin
        let s = Ron_routing.Labelled.build sp ~delta in
        let rows = Array.init nn (fun u -> Ron_routing.Labelled.neighbors s u) in
        report "Thm 4.1" ~tag:2
          ~make_repair:(fun st ->
            let ov =
              Churn.Overlay.create st rows
                ~relabel_cost:(fun v -> Array.length rows.(v))
            in
            ( (fun v -> Churn.Overlay.leave ov v),
              (fun v -> Churn.Overlay.join ov v),
              Some (fun () -> Churn.Overlay.backlog ov),
              fun () -> Churn.Overlay.stale_entries ov ))
          (fun w u v -> Ron_routing.Labelled.route_wrapped w s ~src:u ~dst:v)
          dist nn
      end
    | other -> failwith (Printf.sprintf "unknown scheme %S (churn supports thm21, thm41, thm42)" other)
  end;
  (match slo_mon with Some s -> Ron_obs.Slo.finish s | None -> ());
  (match flight_rec with
  | Some fr ->
    let ex = Ron_obs.Flight.exemplar_count fr in
    if !Probe.on then Probe.flight_exemplar_level ex;
    Printf.printf "flight recorded=%d exemplars=%d\n" (Ron_obs.Flight.recorded fr) ex
  | None -> ());
  (match slo_mon with
  | Some s ->
    Printf.printf "slo %s: windows=%d violated=%d max_burn=%.3g ok=%b\n"
      (Ron_obs.Slo.spec s) (Ron_obs.Slo.windows_closed s) (Ron_obs.Slo.violated_windows s)
      (Ron_obs.Slo.max_burn s) (Ron_obs.Slo.ok s);
    (match slo_out with
    | Some file ->
      let fj = Option.map Ron_obs.Flight.to_json flight_rec in
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Ron_obs.Json.to_string (Ron_obs.Slo.to_json ?flight:fj s)))
    | None -> ())
  | None -> ());
  0

let churn_cmd =
  let doc =
    "Route under dynamic membership (seeded joins/leaves) with incremental ring repair; \
     composable with the fault-injection flags."
  in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      const run_churn $ trace_arg $ metrics_arg $ profile_arg $ telemetry_arg $ telemetry_interval_arg $ expo_arg $ jobs_arg $ metric_arg $ n_arg $ seed_arg
      $ delta_arg $ pairs_arg $ scheme_arg $ join_rate_arg $ leave_rate_arg $ churn_seed_arg
      $ slots_arg $ crash_arg $ drop_arg $ dead_links_arg $ fault_seed_arg
      $ slo_arg $ slo_out_arg $ slo_window_arg $ flight_arg $ flight_trace_every_arg)

(* ------------------------------------------------------------ smallworld *)

let model_arg =
  let doc = "Small-world model: a (Thm 5.2a), b (Thm 5.2b), structures, single (Thm 5.5 needs grid)." in
  Arg.(value & opt string "a" & info [ "model" ] ~docv:"MODEL" ~doc)

let run_smallworld trace metrics profile telemetry telemetry_interval expo jobs family n seed pairs model =
  set_jobs jobs;
  with_obs trace metrics profile telemetry telemetry_interval expo @@ fun () ->
  let idx = Indexed.create (make_metric family n seed) in
  let nn = Indexed.size idx in
  let mu = Measure.create idx (Net.Hierarchy.create idx) in
  let rng = Rng.create (seed + 3) in
  let route, (deg_max, deg_mean) =
    match model with
    | "a" ->
      let m = Ron_smallworld.Doubling_a.build idx mu (Rng.split rng) in
      ((fun u v -> Ron_smallworld.Doubling_a.route m ~src:u ~dst:v ~max_hops:300),
       Ron_smallworld.Doubling_a.out_degree m)
    | "b" ->
      let m = Ron_smallworld.Doubling_b.build idx mu (Rng.split rng) in
      ((fun u v -> Ron_smallworld.Doubling_b.route m ~src:u ~dst:v ~max_hops:300),
       Ron_smallworld.Doubling_b.out_degree m)
    | "structures" ->
      let m = Ron_smallworld.Structures.build idx (Rng.split rng) in
      ((fun u v -> Ron_smallworld.Structures.route m ~src:u ~dst:v ~max_hops:300),
       Ron_smallworld.Structures.out_degree m)
    | other -> failwith (Printf.sprintf "unknown model %S" other)
  in
  Printf.printf "model=%s n=%d out-degree max=%d mean=%.1f\n" model nn deg_max deg_mean;
  let fails = ref 0 and hmax = ref 0 and hsum = ref 0 and ok = ref 0 and ng = ref 0 in
  for _ = 1 to pairs do
    let u = Rng.int rng nn and v = Rng.int rng nn in
    if u <> v then begin
      let r = route u v in
      if r.Ron_smallworld.Sw_model.delivered then begin
        incr ok;
        hmax := max !hmax r.Ron_smallworld.Sw_model.hops;
        hsum := !hsum + r.Ron_smallworld.Sw_model.hops;
        ng := !ng + r.Ron_smallworld.Sw_model.nongreedy_hops
      end
      else incr fails
    end
  done;
  Printf.printf "lookups: mean %.2f hops, max %d, nongreedy %d, failed %d\n"
    (float_of_int !hsum /. float_of_int (max 1 !ok))
    !hmax !ng !fails;
  0

let smallworld_cmd =
  let doc = "Searchable small worlds on doubling metrics (Theorem 5.2, Section 5.2)." in
  Cmd.v (Cmd.info "smallworld" ~doc)
    Term.(
      const run_smallworld $ trace_arg $ metrics_arg $ profile_arg $ telemetry_arg $ telemetry_interval_arg $ expo_arg $ jobs_arg $ metric_arg $ n_arg $ seed_arg
      $ pairs_arg $ model_arg)

(* --------------------------------------------------------------- inspect *)

let run_inspect trace metrics profile telemetry telemetry_interval expo jobs family n seed =
  set_jobs jobs;
  with_obs trace metrics profile telemetry telemetry_interval expo @@ fun () ->
  let m = make_metric family n seed in
  (match Metric.check m with
  | Ok () -> ()
  | Error e -> Printf.printf "WARNING: metric check failed: %s\n" e);
  let idx = Indexed.create m in
  let rng = Rng.create (seed + 4) in
  let alpha = Doubling.dimension_estimate idx rng in
  let hier = Net.Hierarchy.create idx in
  let mu = Measure.create idx hier in
  Printf.printf "metric %s: n=%d\n" (Metric.name m) (Indexed.size idx);
  Printf.printf "  diameter %.3g, min distance %.3g, log2(aspect) %d\n" (Indexed.diameter idx)
    (Indexed.min_distance idx) (Indexed.log2_aspect_ratio idx);
  Printf.printf "  empirical doubling dimension ~ %.2f (Lemma 1.2 floor: %.2f)\n" alpha
    (Ron_util.Bits.flog2 (float_of_int (Indexed.size idx))
    /. (1.0 +. Ron_util.Bits.flog2 (Float.max 2.0 (Indexed.aspect_ratio idx))));
  Printf.printf "  net hierarchy: %d levels; level sizes:" (Net.Hierarchy.jmax hier + 1);
  for j = 0 to Net.Hierarchy.jmax hier do
    Printf.printf " %d" (Array.length (Net.Hierarchy.level hier j))
  done;
  Printf.printf "\n  doubling measure: constant ~ %.1f\n"
    (Measure.doubling_constant_estimate mu idx rng);
  0

let inspect_cmd =
  let doc = "Print substrate facts (dimension, nets, doubling measure) about a metric." in
  Cmd.v (Cmd.info "inspect" ~doc)
    Term.(const run_inspect $ trace_arg $ metrics_arg $ profile_arg $ telemetry_arg $ telemetry_interval_arg $ expo_arg $ jobs_arg $ metric_arg $ n_arg $ seed_arg)

(* ----------------------------------------------------------------- serve *)

let serve_scheme_arg =
  let doc =
    Printf.sprintf "Scheme to serve: %s." (String.concat ", " Ron_serve.Fixture.names)
  in
  Arg.(value & opt string "basic" & info [ "scheme" ] ~docv:"SCHEME" ~doc)

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:"Freeze the built scheme into an off-heap snapshot at $(docv).")

let load_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:"Serve from an existing snapshot instead of building (cold start).")

let queries_arg =
  Arg.(value & opt int 100_000 & info [ "queries" ] ~docv:"Q" ~doc:"Queries to serve.")

let batch_arg =
  Arg.(
    value
    & opt int Ron_serve.Loop.default_batch
    & info [ "batch" ] ~docv:"B" ~doc:"Batch size sharded across worker domains.")

let zipf_arg =
  Arg.(
    value & opt float 1.1
    & info [ "zipf" ] ~docv:"S" ~doc:"Zipf exponent of the target-popularity skew.")

let mix_arg =
  Arg.(
    value & opt string "0.6,0.3,0.1"
    & info [ "mix" ] ~docv:"R,D,L"
        ~doc:
          "Traffic mix as comma-separated route,dist,locate weights (normalized; each scheme \
           collapses unsupported kinds onto its native operation).")

(* Validation errors are user errors: report on stderr and exit 2, never an
   uncaught exception (exit 125). [Error] carries the message. *)
let parse_mix s =
  match String.split_on_char ',' s with
  | [ a; b; c ] -> (
    match (float_of_string_opt a, float_of_string_opt b, float_of_string_opt c) with
    | Some r, Some d, Some l
      when Float.is_finite r && Float.is_finite d && Float.is_finite l
           && r >= 0.0 && d >= 0.0 && l >= 0.0 && r +. d +. l > 0.0 ->
      let t = r +. d +. l in
      Ok (r /. t, d /. t)
    | _ ->
      Error
        (Printf.sprintf
           "--mix %S: weights must be finite and non-negative with a positive sum" s))
  | _ -> Error "--mix expects three comma-separated weights, e.g. 0.6,0.3,0.1"

let run_serve trace metrics profile telemetry telemetry_interval expo jobs scheme n seed snapshot
    load queries batch zipf mix slo slo_out slo_window flight flight_trace_every =
  set_jobs jobs;
  with_obs trace metrics profile telemetry telemetry_interval expo @@ fun () ->
  let module Server = Ron_serve.Server in
  let module Loop = Ron_serve.Loop in
  match parse_mix mix with
  | Error e ->
    prerr_endline e;
    2
  | Ok (route_frac, dist_frac) ->
  if not (Float.is_finite zipf && zipf > 0.0) then begin
    Printf.eprintf "--zipf %g: the exponent must be finite and positive\n" zipf;
    2
  end
  else if queries < 0 || batch < 0 then begin
    Printf.eprintf "--queries and --batch must be non-negative\n";
    2
  end
  else begin
  match make_observers ~slo ~slo_out ~slo_window ~flight ~flight_trace_every with
  | Error e ->
    prerr_endline e;
    2
  | Ok (slo_mon, flight_rec) ->
  let loaded =
    match load with
    | Some file ->
      Result.map_error (Printf.sprintf "cannot load snapshot %s: %s" file) (Server.load file)
    | None ->
      let t = Ron_serve.Fixture.build ~scheme ~n ~seed in
      (match snapshot with Some file -> Server.save t file | None -> ());
      Ok t
  in
  (* A snapshot the loader rejects is bad input, not a crash: its message
     and exit 1. *)
  match loaded with
  | Error e ->
    prerr_endline e;
    1
  | Ok t ->
  let nodes = Server.size t in
  Printf.printf "serve scheme=%s nodes=%d snapshot=%d bytes (%.1f bytes/node)\n"
    (Server.scheme_name t) nodes (Server.byte_size t)
    (float_of_int (Server.byte_size t) /. float_of_int (max 1 nodes));
  if queries = 0 || batch = 0 then begin
    (* Nothing to serve: an empty-but-valid report, not a spin or a crash. *)
    Printf.printf "queries=0 batch=%d elapsed=0.000s qps=0 digest=0\n" batch;
    Printf.printf "latency p50=0ns p99=0ns p999=0ns\n";
    0
  end
  else begin
    let work = Loop.prepare t ~seed ~queries ~zipf_s:zipf ~route_frac ~dist_frac in
    let res = Loop.results_create queries in
    let t0 = Ron_obs.Clock.now_ns () in
    (match (slo_mon, flight_rec) with
    | None, None -> Loop.run ~batch t work res
    | _ -> Loop.run_observed ~batch ~wall:true ?flight:flight_rec ?slo:slo_mon t work res);
    let dt = Ron_obs.Clock.since_s t0 in
    let qps = float_of_int queries /. Float.max dt 1e-9 in
    Printf.printf "queries=%d batch=%d elapsed=%.3fs qps=%.0f digest=%x\n" queries batch dt qps
      (Loop.digest res);
    (* A mix of kinds whose latencies differ many-fold has a median that
       falls between them, so such a mix also reports each kind's. *)
    let module Bucketed = Ron_obs.Histogram.Bucketed in
    let limit = min queries 20_000 and kinds = [| "route"; "dist"; "locate" |] in
    let served = Array.make (Array.length kinds) false in
    for i = 0 to limit - 1 do
      served.(Loop.kind_of work i) <- true
    done;
    let mixed = List.length (List.filter Fun.id (Array.to_list served)) > 1 in
    let by_kind =
      Array.mapi
        (fun k name ->
          if mixed && served.(k) then Some (Bucketed.make ("serve.latency_ns." ^ name)) else None)
        kinds
    in
    let hist = Bucketed.make "serve.latency_ns" in
    Loop.measure_latency ~limit ~by_kind t work res hist;
    let line label h =
      let q p = Bucketed.quantile h p in
      Printf.printf "latency%s p50=%.0fns p99=%.0fns p999=%.0fns\n" label (q 0.5) (q 0.99)
        (q 0.999)
    in
    line "" hist;
    Array.iteri (fun k h -> Option.iter (line (" kind=" ^ kinds.(k))) h) by_kind;
    (match flight_rec with
    | Some fr ->
      let ex = Ron_obs.Flight.exemplar_count fr in
      let traced =
        List.fold_left
          (fun a (_, es) ->
            a
            + List.length
                (List.filter (fun x -> x.Ron_obs.Flight.x_trace <> None) es))
          0 (Ron_obs.Flight.dump fr)
      in
      if !Ron_obs.Probe.on then Ron_obs.Probe.flight_exemplar_level ex;
      Printf.printf "flight recorded=%d exemplars=%d traced=%d\n"
        (Ron_obs.Flight.recorded fr) ex traced
    | None -> ());
    (match slo_mon with
    | Some s ->
      Printf.printf "slo %s: windows=%d violated=%d max_burn=%.3g ok=%b\n"
        (Ron_obs.Slo.spec s) (Ron_obs.Slo.windows_closed s)
        (Ron_obs.Slo.violated_windows s) (Ron_obs.Slo.max_burn s) (Ron_obs.Slo.ok s);
      (match slo_out with
      | Some file ->
        let fj = Option.map Ron_obs.Flight.to_json flight_rec in
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc (Ron_obs.Json.to_string (Ron_obs.Slo.to_json ?flight:fj s)))
      | None -> ())
    | None -> ());
    0
  end
  end

let serve_cmd =
  let doc =
    "Serve batched distance/route/locate queries from a frozen off-heap scheme snapshot."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ trace_arg $ metrics_arg $ profile_arg $ telemetry_arg $ telemetry_interval_arg $ expo_arg $ jobs_arg $ serve_scheme_arg $ n_arg $ seed_arg
      $ snapshot_arg $ load_arg $ queries_arg $ batch_arg $ zipf_arg $ mix_arg
      $ slo_arg $ slo_out_arg $ slo_window_arg $ flight_arg $ flight_trace_every_arg)

(* ------------------------------------------------------------ experiment *)

let experiment_ids =
  [
    "t1"; "t2"; "t3"; "e21"; "e32"; "e34"; "e41"; "e52a"; "e52b"; "e54"; "e55"; "esub"; "fig1";
    "mer"; "fault"; "scale"; "churn";
  ]

let run_experiment trace metrics profile telemetry telemetry_interval expo jobs id =
  set_jobs jobs;
  with_obs trace metrics profile telemetry telemetry_interval expo @@ fun () ->
  let module E = Ron_experiments in
  let table =
    [
      ("t1", E.Exp_t1.run); ("t2", E.Exp_t2.run); ("t3", E.Exp_t3.run);
      ("e21", E.Exp_e21.run); ("e32", E.Exp_e32.run); ("e34", E.Exp_e34.run);
      ("e41", E.Exp_e41.run); ("e52a", E.Exp_e52.run_a); ("e52b", E.Exp_e52.run_b);
      ("e54", E.Exp_e54.run); ("e55", E.Exp_e55.run); ("esub", E.Exp_esub.run); ("mer", E.Exp_mer.run);
      ("fig1", E.Exp_fig1.run); ("fault", E.Exp_fault.run); ("scale", E.Exp_scale.run);
      ("churn", E.Exp_churn.run);
    ]
  in
  match List.assoc_opt id table with
  | Some run ->
    run ();
    0
  | None ->
    Printf.eprintf "unknown experiment %S; one of: %s\n" id (String.concat ", " experiment_ids);
    1

let experiment_cmd =
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let doc = "Run one reproduction experiment (same ids as bench/main.exe)." in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(const run_experiment $ trace_arg $ metrics_arg $ profile_arg $ telemetry_arg $ telemetry_interval_arg $ expo_arg $ jobs_arg $ id)

let () =
  let doc = "rings of neighbors: distance estimation and object location (Slivkins, PODC 2005)" in
  let info = Cmd.info "ron" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [ estimate_cmd; route_cmd; fault_cmd; churn_cmd; smallworld_cmd; inspect_cmd; serve_cmd; experiment_cmd ]))
