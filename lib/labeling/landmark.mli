(** Landmark + local-ball distance labeling: the near-linear scheme for the
    million-node regime.

    The Indexed-backed schemes (DLS, triangulation) all carry O(n^2)
    state somewhere; this scheme carries [k] full beacon rows ([k]
    single-source runs through the on-demand oracle) plus one
    bounded-radius ball per node ({!Ron_graph.Dijkstra.run_bounded} — the
    "ring of neighbors" giving local exactness). Estimates: exact for pairs
    inside a ball or involving a beacon; otherwise the classic landmark
    sandwich
    [max_i |d(u,b_i) - d(v,b_i)| <= d(u,v) <= min_i d(u,b_i) + d(v,b_i)].
    {!of_metric} builds the same columns over a materialized metric: the
    common-beacon baseline of [33, 50].

    Construction is parallel over beacons and over balls, and bit-identical
    at every [RON_JOBS]. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type cols = {
  n : int;
  k : int;
  beacons : ints;  (** sorted beacon ids *)
  col : ints;  (** [col.{v}]: beacon index of [v], or [-1] *)
  rows : floats;  (** [rows.{i * n + v}]: beacon [i] to [v], row-major *)
  ball_off : ints;  (** [n + 1]: CSR over per-node local balls *)
  ball_node : ints;  (** node ids, ascending within each ball *)
  ball_dist : floats;
}
(** The scheme's state in the landmark snapshot's layout. Arrays may be
    shared with a live scheme or mapped from a snapshot — treat them as
    read-only. *)

type t

val build :
  ?jobs:int -> Ron_graph.Sp_metric.t -> Ron_util.Rng.t -> k:int -> local_radius:float -> t
(** [build sp rng ~k ~local_radius]: [k] beacons drawn by seeded shuffle
    (sorted), one radius-[local_radius] ball per node.
    O(k (m + n log n)) for rows plus O(n * ball) for balls — no O(n^2)
    term. *)

val of_metric : Ron_metric.Indexed.t -> Ron_util.Rng.t -> k:int -> t
(** The common-beacon (eps, delta)-triangulation of [33, 50], the baseline
    Theorem 3.2 improves on: all nodes share [k] beacons, drawn as
    {!build} draws them, and a node's label is its distances to them, read
    from the metric. Each ball holds only its node ([local_radius] 0), so
    an estimate is exact at a beacon endpoint and otherwise the sandwich
    over all [k] beacons, with no per-pair guarantee. *)

val order : t -> int
(** Number of beacons. *)

val beacons : t -> int array
val size : t -> int
val local_radius : t -> float

val ball_size : t -> int -> int
(** Nodes within [local_radius] of [u] (including [u] itself). *)

val ball_members : t -> int -> int array
(** Fresh copy of [u]'s local-ball node ids, ascending, [u] included —
    the per-node "ring of neighbors" the churn layer repairs. *)

val estimate : t -> int -> int -> float * float
(** [(lo, hi)] distance bounds; [lo = hi] exactly when the pair resolves
    exactly (same node, in-ball, or a beacon endpoint). *)

val bounds : cols -> float array -> at:int -> int -> int -> unit
(** [bounds c out ~at u v]: {!estimate}'s bounds, written to [out.(at)]
    (lo) and [out.(at + 1)] (hi) without allocating — the one estimator,
    shared by the live scheme and the frozen server. Each beacon row read
    charges a table touch to the probes. *)

val sandwich_step : float array -> int -> floats -> int -> floats -> int -> unit
(** [sandwich_step out at a i b j]: one common beacon, at [a.{i}] from one
    endpoint and [b.{j}] from the other, folded into the bounds
    [out.(at)] (lo, the max of the differences) and [out.(at + 1)] (hi,
    the min of the sums) — the step of every triangle-bounds estimate,
    {!bounds} and Theorem 3.2's {!Triangulation.estimate}. *)

val bad_fraction : t -> delta:float -> float
(** Fraction of unordered node pairs whose bounds give no [(1 + delta)]
    guarantee: [lo = 0] or [hi > (1 + delta) * lo]. Parallel over rows,
    the same at every job count. *)

val label_bits : t -> int array
(** Per-node storage: own id + [k] quantized beacon distances + the ball as
    (id, quantized distance) pairs — quantization via {!Ron_util.Qfloat}
    with the paper's [delta = 1/4] codec. *)

(** {2 Export} *)

val export : t -> cols
(** The scheme's columns, handed to the snapshot layer ([ron_serve])
    without a copy. *)
