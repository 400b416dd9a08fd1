(* The instrumentation surface the rest of the repo talks to.

   Every call site is written as

     if !Ron_obs.Probe.on then Ron_obs.Probe.dist_eval ()

   so the disabled cost is one global load and a fall-through branch — the
   bench --json query loops run at full speed with observability off. The
   helpers themselves assume the guard already happened and do the real
   work: bump the process-wide counter and charge the current ledger entry
   (if a query is active on this domain). *)

let on = ref false

(* -- counters, one per instrumented event kind -------------------------- *)

let dist_evals = Counter.make "metric.dist_evals"
let ball_queries = Counter.make "metric.ball_queries"
let ring_probes = Counter.make "rings.probes"
let ring_members_scanned = Counter.make "rings.members_scanned"
let zoom_decode_steps = Counter.make "zoom.decode_steps"
let zoom_encode_steps = Counter.make "zoom.encode_steps"
let translation_lookups = Counter.make "core.translation_lookups"
let route_hops = Counter.make "route.hops"
let route_header_rewrites = Counter.make "route.header_rewrites"
let route_delivered = Counter.make "route.outcome.delivered"
let route_truncated = Counter.make "route.outcome.truncated"
let route_self_forward = Counter.make "route.outcome.self_forward"
let route_cycled = Counter.make "route.outcome.cycled"
let route_dropped = Counter.make "route.outcome.dropped"
let table_touches = Counter.make "labeling.table_touches"
let meridian_probes = Counter.make "meridian.probes"
let meridian_hops = Counter.make "meridian.hops"

(* Construction-side counters: one bump per unit of preprocessing fan-out,
   so building routing tables / labels / rings is an observed cost, not just
   a wall-clock one. Shard sums are commutative, so totals are identical at
   every RON_JOBS. *)
let sssp_sources = Counter.make "construct.sssp_sources"
let oracle_hits = Counter.make "oracle.row_hits"
let oracle_builds = Counter.make "oracle.row_builds"
let oracle_evicts = Counter.make "oracle.row_evicts"
let table_nodes = Counter.make "construct.table_nodes"
let label_nodes = Counter.make "construct.label_nodes"
let ring_nodes = Counter.make "construct.ring_nodes"
let pool_batches = Counter.make "pool.batches"

(* Serving-loop counters: queries completed and batches dispatched by the
   frozen-snapshot serving loop. Commutative sums, identical at every
   RON_JOBS. *)
let serve_queries = Counter.make "serve.queries"
let serve_batches = Counter.make "serve.batches"

(* Fault-injection counters: one bump per injected fault or per fallback the
   retry/detour policy took. Commutative sums, so totals are identical at
   every RON_JOBS. *)
let fault_drops = Counter.make "fault.drops_injected"
let fault_crashed_hits = Counter.make "fault.crashed_hits"
let fault_dead_links = Counter.make "fault.dead_link_hits"
let fault_retries = Counter.make "fault.retries"
let fault_detours = Counter.make "fault.detours"

(* Churn counters: membership events applied, table entries touched by
   incremental repair, stale entries hit at route time, and — the
   incrementality invariant — from-scratch reconstructions, which the
   repair paths never perform (tests pin this counter at 0). *)
let churn_joins = Counter.make "churn.joins"
let churn_leaves = Counter.make "churn.leaves"
let churn_repair_updates = Counter.make "churn.repair_updates"
let churn_refills = Counter.make "churn.refills"
let churn_relabels = Counter.make "churn.relabels"
let churn_stale_hits = Counter.make "churn.stale_hits"
let churn_detours = Counter.make "churn.detours"
let churn_rebuilds = Counter.make "churn.rebuilds"

(* -- gauges ------------------------------------------------------------- *)

(* Current-level readings for telemetry. The oracle occupancy and the
   effective worker count reflect the execution environment (how many
   per-domain caches exist, what RON_JOBS resolved to), so they are [env]
   gauges — excluded from deterministic snapshots and only emitted next
   to the other process-level telemetry fields. Batch items are set from
   the orchestrating domain only, so that gauge stays deterministic. *)
let oracle_rows = Gauge.make ~env:true "oracle.rows_cached"
let pool_jobs = Gauge.make ~env:true "pool.jobs"
let pool_batch_items = Gauge.make "pool.batch_items"

(* Serving-loop gauges, set from the orchestrating domain only (so both
   stay deterministic): queries in flight in the current batch, and the
   batch size the loop is dispatching. *)
let serve_inflight = Gauge.make "serve.inflight"
let serve_batch_size = Gauge.make "serve.batch_size"

(* Churn gauges, set from the (sequential) event-application loop only:
   how many nodes are currently live, and how many invalidated labels are
   waiting for their local re-label. *)
let churn_live_nodes = Gauge.make "churn.live_nodes"
let churn_repair_backlog = Gauge.make "churn.repair_backlog"

(* SLO-monitor counters and gauges, driven from the sequential
   window-close path only (Slo.observe feeds from the orchestrating
   domain), so every reading is deterministic: windows closed, objective
   violations, the closing window's worst burn rate, and the running
   worst across windows. The flight-recorder exemplar level is set after
   a dump, also from one domain. *)
let slo_windows = Counter.make "slo.windows"
let slo_violations = Counter.make "slo.violations"
let slo_burn = Gauge.make "slo.burn_rate"
let slo_worst_burn = Gauge.make "slo.worst_burn_rate"
let flight_exemplars = Gauge.make "flight.exemplars"

(* -- histograms --------------------------------------------------------- *)

let route_hops_hist = Histogram.make "route.hops_per_query"
let route_header_bits_hist = Histogram.make "route.header_bits_per_query"
let meridian_probes_hist = Histogram.make "meridian.probes_per_query"

(* -- helpers (call only under [if !on]) --------------------------------- *)

let dist_eval () =
  Counter.incr dist_evals;
  Ledger.bump_dist ()

let ball_query () =
  Counter.incr ball_queries;
  Ledger.bump_ball ()

let ring_probe ~members =
  Counter.incr ring_probes;
  Counter.add ring_members_scanned members;
  Ledger.bump_ring ~members

let zoom_decode_step () =
  Counter.incr zoom_decode_steps;
  Ledger.bump_zoom ()

let zoom_encode_step () = Counter.incr zoom_encode_steps

let translation_lookup () =
  Counter.incr translation_lookups;
  Ledger.bump_table ()

let hop () =
  Counter.incr route_hops;
  Ledger.bump_hop ()

let header_rewrite () =
  Counter.incr route_header_rewrites;
  Ledger.bump_header_rewrite ()

let route_done ~hops ~header_bits_max ~outcome =
  Counter.incr
    (match outcome with
    | `Delivered -> route_delivered
    | `Truncated -> route_truncated
    | `Self_forward -> route_self_forward
    | `Cycled -> route_cycled
    | `Dropped -> route_dropped);
  Histogram.observe_int route_hops_hist hops;
  Histogram.observe_int route_header_bits_hist header_bits_max;
  Ledger.note_header_bits header_bits_max

let locate_done ~measurements = Histogram.observe_int meridian_probes_hist measurements

let table_touch () =
  Counter.incr table_touches;
  Ledger.bump_table ()

(* The distance evaluation itself goes through Indexed.dist, which already
   charges the ledger; this counter only tags it as a Meridian probe. *)
let meridian_probe () = Counter.incr meridian_probes

let meridian_hop () =
  Counter.incr meridian_hops;
  Ledger.bump_hop ()

(* Construction events are not per-query: they bump counters only (no
   ledger charge). *)
let sssp_source () = Counter.incr sssp_sources
let oracle_hit () = Counter.incr oracle_hits
let oracle_build () = Counter.incr oracle_builds
let oracle_evict () = Counter.incr oracle_evicts
let oracle_occupancy rows = Gauge.set_int oracle_rows rows
(* Serve events are bumped once per batch from the orchestrating domain
   (the hot query loop itself stays probe-free). *)
let serve_batch ~size ~inflight =
  Counter.incr serve_batches;
  Counter.add serve_queries size;
  Gauge.set_int serve_batch_size size;
  Gauge.set_int serve_inflight inflight

let table_node () = Counter.incr table_nodes
let label_node () = Counter.incr label_nodes
let ring_node () = Counter.incr ring_nodes

(* Pool batches are observed through Pool's hook (the util layer cannot
   call up into this one). Installed unconditionally at module init; the
   [!on] check inside keeps disabled runs at a load and a branch per
   top-level batch. *)
let () =
  Ron_util.Pool.set_observer (fun ~jobs ~items ->
      if !on then begin
        Counter.incr pool_batches;
        Gauge.set_int pool_jobs jobs;
        Gauge.set_int pool_batch_items items
      end)

(* Fault events bump counters only; the route loop's hop/route counters keep
   charging the ledger, so per-query costs already include detour hops. *)
let fault_drop () = Counter.incr fault_drops
let fault_crashed_hit () = Counter.incr fault_crashed_hits
let fault_dead_link () = Counter.incr fault_dead_links
let fault_retry () = Counter.incr fault_retries
let fault_detour () = Counter.incr fault_detours

(* Churn events: counters only (event application is not a per-query cost);
   the route-time stale/detour events ride on queries like fault events. *)
let churn_join () = Counter.incr churn_joins
let churn_leave () = Counter.incr churn_leaves
let churn_repair ~updates = Counter.add churn_repair_updates updates
let churn_refill () = Counter.incr churn_refills
let churn_relabel () = Counter.incr churn_relabels
let churn_stale_hit () = Counter.incr churn_stale_hits
let churn_detour () = Counter.incr churn_detours
let churn_rebuild () = Counter.incr churn_rebuilds
let churn_levels ~live ~backlog =
  Gauge.set_int churn_live_nodes live;
  Gauge.set_int churn_repair_backlog backlog

(* SLO window close: bump the window counter, add that window's objective
   violations, and set both burn gauges (sequential caller only). *)
let slo_window ~violations ~burn ~worst_burn =
  Counter.incr slo_windows;
  Counter.add slo_violations violations;
  Gauge.set slo_burn burn;
  Gauge.set slo_worst_burn worst_burn

let flight_exemplar_level n = Gauge.set_int flight_exemplars n
