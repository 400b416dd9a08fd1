(** Instrumentation points for the repo's hot surfaces.

    Contract: call sites guard with [if !Probe.on then Probe.<helper> ()],
    so the disabled cost is one global load plus a branch; the helpers
    assume the guard already happened. Each helper bumps its process-wide
    {!Counter} and charges the current {!Ledger} entry, if any. *)

val on : bool ref
(** The master switch. Set it before spawning Pool domains (they inherit
    the store visibly through [Domain.spawn]). *)

(** Counters, exposed so reports can read totals directly. *)

val dist_evals : Counter.t
val ball_queries : Counter.t
val ring_probes : Counter.t
val ring_members_scanned : Counter.t
val zoom_decode_steps : Counter.t
val zoom_encode_steps : Counter.t
val translation_lookups : Counter.t
val route_hops : Counter.t
val route_header_rewrites : Counter.t
val route_delivered : Counter.t
val route_truncated : Counter.t
val route_self_forward : Counter.t
val route_cycled : Counter.t
val route_dropped : Counter.t
val table_touches : Counter.t
val meridian_probes : Counter.t
val meridian_hops : Counter.t

(** Construction-side counters (preprocessing fan-out units). *)

val sssp_sources : Counter.t
val oracle_hits : Counter.t
val oracle_builds : Counter.t
val oracle_evicts : Counter.t
val table_nodes : Counter.t
val label_nodes : Counter.t
val ring_nodes : Counter.t
val pool_batches : Counter.t

(** Serving-loop counters (queries completed, batches dispatched). *)

val serve_queries : Counter.t
val serve_batches : Counter.t

(** Gauges (current levels, for telemetry snapshots). [oracle_rows] and
    [pool_jobs] are [env] gauges: their values depend on the execution
    environment, so deterministic surfaces exclude them. *)

val oracle_rows : Gauge.t
val pool_jobs : Gauge.t
val pool_batch_items : Gauge.t
val serve_inflight : Gauge.t
val serve_batch_size : Gauge.t

(** Fault-injection counters (injected faults and fallback decisions). *)

val fault_drops : Counter.t
val fault_crashed_hits : Counter.t
val fault_dead_links : Counter.t
val fault_retries : Counter.t
val fault_detours : Counter.t

(** Churn counters (membership events, incremental-repair work, route-time
    staleness). [churn_rebuilds] counts from-scratch reconstructions — the
    incremental repair paths never bump it, and tests pin it at 0. *)

val churn_joins : Counter.t
val churn_leaves : Counter.t
val churn_repair_updates : Counter.t
val churn_refills : Counter.t
val churn_relabels : Counter.t
val churn_stale_hits : Counter.t
val churn_detours : Counter.t
val churn_rebuilds : Counter.t

(** Churn gauges, set from the sequential event-application loop only. *)

val churn_live_nodes : Gauge.t
val churn_repair_backlog : Gauge.t

(** SLO-monitor counters and gauges, driven from the sequential
    window-close path only, so every reading is deterministic. *)

val slo_windows : Counter.t
val slo_violations : Counter.t
val slo_burn : Gauge.t
val slo_worst_burn : Gauge.t
val flight_exemplars : Gauge.t

val route_hops_hist : Histogram.t
val route_header_bits_hist : Histogram.t
val meridian_probes_hist : Histogram.t

(** Helpers (call only under [if !on]). *)

val dist_eval : unit -> unit
val ball_query : unit -> unit
val ring_probe : members:int -> unit
val zoom_decode_step : unit -> unit
val zoom_encode_step : unit -> unit
val translation_lookup : unit -> unit
val hop : unit -> unit
val header_rewrite : unit -> unit

val route_done :
  hops:int ->
  header_bits_max:int ->
  outcome:[ `Delivered | `Truncated | `Self_forward | `Cycled | `Dropped ] ->
  unit
(** Called once per route: outcome counter, per-query histograms,
    and the ledger's header high-water mark. *)

val locate_done : measurements:int -> unit
(** Called once per live Meridian walk ([Meridian.closest]), as
    {!route_done} is per live route: observes [meridian_probes_hist]. *)

val table_touch : unit -> unit
val meridian_probe : unit -> unit
val meridian_hop : unit -> unit

val sssp_source : unit -> unit
(** One shortest-path source solved ({!Ron_graph.Dijkstra}). *)

val oracle_hit : unit -> unit
(** One distance-oracle row served from the per-domain cache. *)

val oracle_build : unit -> unit
(** One distance-oracle row computed (cache miss). *)

val oracle_evict : unit -> unit
(** One distance-oracle row evicted from a full per-domain cache. *)

val oracle_occupancy : int -> unit
(** Record the calling domain's current cached-row count (env gauge). *)

val serve_batch : size:int -> inflight:int -> unit
(** One serving-loop batch dispatched: bumps the batch counter, adds
    [size] completed queries, and sets both serve gauges. Call from the
    orchestrating domain only. *)

val table_node : unit -> unit
(** One node's routing table built. *)

val label_node : unit -> unit
(** One node's distance label built. *)

val ring_node : unit -> unit
(** One node's rings populated. *)

(** Fault-event helpers (call only under [if !on]; counters only, no ledger
    charge — detour hops are already charged by the route loop's hop probe). *)

val fault_drop : unit -> unit
val fault_crashed_hit : unit -> unit
val fault_dead_link : unit -> unit
val fault_retry : unit -> unit
val fault_detour : unit -> unit

(** Churn helpers (call only under [if !on]; counters/gauges only). *)

val churn_join : unit -> unit
val churn_leave : unit -> unit

val churn_repair : updates:int -> unit
(** [updates] table entries touched while repairing one event. *)

val churn_refill : unit -> unit
(** One ring/table slot re-filled by bounded exploration. *)

val churn_relabel : unit -> unit
(** One invalidated label locally recomputed. *)

val churn_stale_hit : unit -> unit
(** A route consulted a table entry naming a departed node. *)

val churn_detour : unit -> unit
(** A route recovered from a stale entry through a ranked alternate. *)

val churn_rebuild : unit -> unit
(** A from-scratch reconstruction — never called by incremental repair. *)

val churn_levels : live:int -> backlog:int -> unit
(** Set the live-node and repair-backlog gauges (sequential caller only). *)

val slo_window : violations:int -> burn:float -> worst_burn:float -> unit
(** One SLO window closed: [violations] objectives violated in it, its
    worst burn rate, and the running worst across all closed windows
    (sequential caller only). *)

val flight_exemplar_level : int -> unit
(** Set the flight-recorder exemplar gauge after a dump (sequential
    caller only). *)
