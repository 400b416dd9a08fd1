(** (0, delta)-triangulation of order [(1/delta)^O(alpha) log n]
    (Theorem 3.2).

    A triangulation of order [k] labels each node [u] with distances to a
    beacon set [S_u] of at most [k] nodes. For two labelled nodes the
    triangle inequality gives the upper bound
    [D+ = min_b (d_ub + d_vb)] and the lower bound [D- = max_b |d_ub - d_vb|]
    over common beacons [b]. A (0, delta)-triangulation guarantees
    [D+/D- <= 1 + O(delta)] for {e every} pair — unlike the common-beacon
    constructions of [33, 50], which leave an eps-fraction of pairs with no
    guarantee (see {!Landmark.of_metric}).

    Construction (proof of Theorem 3.2): the beacons of [u] are
    - X-type: for each cardinality scale [i], the designated nodes [h_B] of
      the packing balls [B] of a [(2^-i, counting)]-packing (Lemma 3.1) that
      lie well inside [B_u(r_u(2^-(i-1)))];
    - Y-type: for each scale [i], the points of the net [G_j],
      [j ~ log2 (delta r_ui / 4)], within distance [12 r_ui / delta] of [u],
      where [{G_j}] is a nested net hierarchy.

    The proof shows that for every pair [(u,v)] some common beacon lies
    within [delta * d(u,v)] of [u] or [v], which yields
    [D+ <= (1 + 2 delta) d] and [D- >= (1 - 2 delta) d]. *)

type t

val build :
  ?radius_factor:float -> ?net_divisor:float -> Ron_metric.Indexed.t -> delta:float -> t
(** Requires a normalized metric (minimum distance 1) and
    [delta in (0, 1/2)]. Deterministic.

    [radius_factor] (default 12, the paper's constant) scales the Y-ring
    radius [radius_factor * r_ui / delta]; [net_divisor] (default 4) sets
    the Y-net spacing [delta * r_ui / net_divisor]. The (0, delta) guarantee
    is proved only for the defaults; smaller radius factors / larger
    divisors are exposed for the constant-ablation experiment (E-3.2), which
    measures how far the paper's constants can be tightened before pairs
    lose their common beacon. *)

val idx : t -> Ron_metric.Indexed.t
val delta : t -> float

val levels : t -> int
(** Number of cardinality scales: [ceil(log2 n) + 1]. *)

val hierarchy : t -> Ron_metric.Net.Hierarchy.t
val packing : t -> int -> Ron_metric.Packing.t
(** [packing t i]: the [(2^-i, mu)]-packing of scale [i]. *)

val x_neighbors : t -> int -> int -> int array
(** [x_neighbors t u i]: the X-type beacons of [u] at scale [i]. *)

val y_neighbors : t -> int -> int -> int array
(** [y_neighbors t u i]: the Y-type beacons of [u] at scale [i]. *)

val beacons : t -> int -> int array
(** All distinct beacons of [u] (its label's support), sorted: a copy of
    [u]'s row. The build stores each node's beacons once, as a row of
    (beacon id, exact distance) pairs sorted by id. *)

val order : t -> int
(** Max number of beacons over all nodes (the longest row): the
    triangulation's order. *)

val estimate : t -> int -> int -> float * float
(** [estimate t u v = (D-, D+)] over the common beacons of [u] and [v],
    using only the two labels: one merge-join of their rows, each common
    beacon folded by {!Landmark.sandwich_step}. Raises [Failure] if the
    nodes share no beacon — Theorem 3.2 proves this never happens for
    [u <> v], and every row holds the canonical scale-0 Y-set. *)

val label_bits : t -> int array
(** Per-node label size in bits when each beacon entry is stored as a
    global [ceil(log2 n)]-bit identifier plus a quantized distance (the
    Mendel–Har-Peled-matching scheme described after Theorem 3.2). *)
