(** The batch serving loop: seeded workloads, sharded execution, digests.

    Workload columns are pure functions of (seed, query index), so the
    same seed yields the same workload at every [RON_JOBS]; execution
    writes each query's result into its own slot of off-heap result
    columns, so serving output (and its digest) is bit-identical at every
    job count. *)

type ints = Image.ints
type floats = Image.floats

val default_batch : int

(** {1 Workloads} *)

type workload

val queries : workload -> int

val kind_of : workload -> int -> int
(** Effective kind of query [i] (0 route, 1 dist, 2 locate). *)

val src_of : workload -> int -> int
val dst_of : workload -> int -> int

val prepare :
  Server.t ->
  seed:int ->
  queries:int ->
  zipf_s:float ->
  route_frac:float ->
  dist_frac:float ->
  workload
(** A seeded mixed workload: each query's kind is drawn from the
    (route, dist, locate) mix with weights [route_frac], [dist_frac],
    [1 - route_frac - dist_frac], then collapsed through
    {!Server.effective_kind}; targets are Zipf(s)-skewed over node ids
    (rank 0 hottest); sources are uniform over the server's source
    population. *)

(** {1 Results} *)

(** Off-heap result columns, by effective kind:
    route — [ra] outcome, [rb] hops, [rx] path length, [ry] header bits;
    dist — [rx] lower bound, [ry] upper bound;
    locate — [ra] found member, [rb] hops, [rx] measurements. *)
type results = { ra : ints; rb : ints; rx : floats; ry : floats }

val results_create : int -> results

val run_query : Server.t -> Server.scratch -> workload -> results -> int -> unit
(** Execute query [i] into result slot [i]; allocation-free in steady
    state. *)

val run : ?batch:int -> ?jobs:int -> Server.t -> workload -> results -> unit
(** Run the whole workload in batches of [batch] (default
    {!default_batch}), each sharded across Pool domains. Fires the serve
    probes and a telemetry tick once per batch, from the orchestrating
    domain. *)

val run_observed :
  ?batch:int ->
  ?jobs:int ->
  ?wall:bool ->
  ?flight:Ron_obs.Flight.t ->
  ?slo:Ron_obs.Slo.t ->
  Server.t ->
  workload ->
  results ->
  unit
(** {!run} plus observability: each query's latency is measured on the
    wall clock ([wall:true], nanoseconds) or the deterministic logical
    clock (default: cost [1] for a dist lookup, else
    [hops * 256 + min aux 255] — a pure function of the result, so flight
    dumps and SLO verdicts are bit-identical at every [RON_JOBS]).
    Workers record into [flight] (batch size is capped at
    [window * (retain - 1)] to honor its ring-safety contract); the
    orchestrator feeds [slo] between batches in qid order — a route
    counts as delivered on outcome 0, a locate when a member was found,
    a dist always — and closes its trailing window at the end. Result
    columns are identical to an unobserved {!run}'s. *)

val digest : results -> int
(** Order-sensitive FNV digest of all four result columns (non-negative).
    Equal digests across job counts certify bit-identical output. *)

(** {1 Measurement} *)

val measure_latency :
  ?limit:int ->
  ?by_kind:Ron_obs.Histogram.t option array ->
  Server.t ->
  workload ->
  results ->
  Ron_obs.Histogram.t ->
  unit
(** Sequential pass observing per-query wall-clock latency (ns) for the
    first [limit] queries; a query of effective kind [k] is also observed
    into [by_kind.(k)] when that slot holds a histogram. *)

val minor_words_per_query : Server.t -> workload -> results -> float
(** Steady-state minor-heap allocation per query, in words: one warm
    sequential pass, then a measured pass under [Gc.minor_words] deltas,
    which count the words still in the minor heap too. ~0 when the hot
    path is allocation-free. *)
