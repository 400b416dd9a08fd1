(** Rings of neighbors — the paper's unifying data structure (Section 1).

    Every node [u] stores pointers to some nodes ("neighbors"), partitioned
    into rings: for an increasing sequence of balls [{B_i}] around [u], the
    neighbors in the i-th ring lie inside [B_i]. The radii of the balls and
    the selection of neighbors inside them depend on the application; the
    paper singles out two canonical collections (Section 1, "The unifying
    technique"):

    - {b cardinality-scaled, uniform}: the ball [B_i] is the smallest ball
      around [u] with at least [n / 2^i] nodes, and the i-ring neighbors are
      sampled uniformly from its node set (the X-type neighbors of
      Theorems 3.2 and 5.2);
    - {b radius-scaled}: the ball [B_i] has radius growing geometrically,
      and the i-ring neighbors are either the points of a [2^j]-net inside
      it (deterministic: routing and labeling) or sampled from a doubling
      measure (randomized: small worlds, "uniform in the space region").

    This module provides both constructions over the substrate and the
    accounting shared by all applications. *)

type ring = {
  scale : int;  (** the ring's index [i] *)
  radius : float;  (** radius of the ball [B_i] *)
  members : int array;  (** the neighbors of the ring, duplicates possible in
                            sampled collections, never containing [u] unless
                            the construction selects it *)
}

type t
(** A collection: one array of rings per node. *)

val of_rings : ring array array -> t
(** A collection from rings built elsewhere: Theorem 2.1's
    ([Ron_routing.Structure]) come from one scan of each node's sorted
    row per scale. *)

val ring : t -> int -> int -> ring
(** [ring t u i]: the i-th ring of node [u]. *)

val rings_of : t -> int -> ring array
val scales : t -> int -> int
(** Number of rings of a node. *)

val size : t -> int
(** Number of nodes. *)

val neighbors : t -> int -> int array
(** Distinct neighbors of [u] across all rings, sorted ascending: every
    member sorted, then deduplicated in place. Computed once per node and
    cached; the returned array is a fresh copy. *)

val out_degree : t -> int -> int
(** [Array.length (neighbors t u)], served from the per-node cache. *)

val max_out_degree : t -> int
(** Maximum [out_degree] over all nodes; after the first call every
    node's dedup is cached, so repeated accounting queries are O(n). *)

val max_ring_size : t -> int

val net_rings :
  Ron_metric.Indexed.t ->
  Ron_metric.Net.Hierarchy.t ->
  scales:int ->
  radius_of:(int -> float) ->
  level_of:(int -> int) ->
  t
(** Deterministic radius-scaled rings: ring [i] of [u] is
    [B_u(radius_of i)] intersected with the net [G_(level_of i)].
    This is the [Y_uj = B_u(r_j) ∩ G_j] construction of Theorem 2.1 and the
    Y-neighbor construction of Theorem 3.2. *)

val uniform_rings :
  Ron_metric.Indexed.t ->
  Ron_util.Rng.t ->
  scales:int ->
  samples:int ->
  t
(** Cardinality-scaled uniform rings: ring [i] of [u] consists of [samples]
    independent uniform draws from the smallest ball around [u] holding at
    least [ceil(n / 2^i)] nodes (the X-type neighbors of Theorem 5.2). *)

val measure_rings :
  Ron_metric.Indexed.t ->
  Ron_metric.Measure.t ->
  Ron_util.Rng.t ->
  scales:int ->
  samples:int ->
  radius_of:(int -> float) ->
  t
(** Radius-scaled measure-weighted rings: ring [j] of [u] consists of
    [samples] draws from [B_u(radius_of j)] proportionally to a doubling
    measure (the Y-type neighbors of Theorem 5.2a). *)

val copy : t -> t
(** Deep copy: member arrays are duplicated (in-place repair of the copy
    never corrupts the original) and the dedup cache restarts cold. *)

val replace_member : t -> int -> int -> at:int -> with_:int -> unit
(** [replace_member t u i ~at ~with_]: overwrite slot [at] of ring [i] of
    node [u] and invalidate [u]'s neighbor-dedup cache. The incremental
    repair primitive — O(1) plus the cache refill on next access. *)

val find_member : t -> int -> int -> int -> int
(** [find_member t u i v]: first slot of ring [i] of [u] holding [v], or
    [-1]. *)

val check_containment : Ron_metric.Indexed.t -> t -> bool
(** Structural invariant: every ring member lies inside its ring's ball. *)
