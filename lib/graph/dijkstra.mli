(** Single-source and all-pairs shortest paths with first-hop extraction.

    The routing schemes never store whole paths — only the {e first-hop
    pointer} from [u] towards a neighbor [v]: the index of the first edge of
    some shortest [u->v] path in [u]'s out-edge list (proof of Theorem 2.1).
    Dijkstra from every source yields both the distance matrix (the
    shortest-paths metric of the graph) and all first-hop pointers.

    To make "the" shortest path well defined even with distance ties, ties
    are broken deterministically: among equal-length paths the one whose
    first edge has the smallest index wins (propagated along the search).

    The substrate is allocation-lean: the priority queue is a flat binary
    heap over a [float array] of priorities and an [int array] of packed
    [(first_hop, node)] keys, the adjacency is flattened once per traversal
    batch into a CSR view (offset/destination [int array]s plus a weight
    [floatarray], shared read-only across domains), and each domain reuses
    one preallocated scratch buffer across sources. All-pairs results live
    in two shared flat [n * n] arrays (an unboxed [floatarray] of distances,
    an [int array] of first hops) rather than [n] boxed per-source
    records. *)

type sssp = {
  source : int;
  dist : float array;
  first_hop : int array;
      (** [first_hop.(v)]: index into [out_edges g source] of the first edge
          of the chosen shortest path to [v]; [-1] for [v = source] or
          unreachable [v]. *)
}

val run : Graph.t -> int -> sssp

type bounded = {
  center : int;
  radius : float;
  nodes : int array;
      (** Settled nodes — exactly [{ v | dist(center, v) <= radius }] — in
          pop (increasing-distance, deterministic tie-broken) order. *)
  dists : float array;  (** [dists.(i)]: distance to [nodes.(i)]. *)
  hops : int array;
      (** [hops.(i)]: first-hop edge index toward [nodes.(i)]; [-1] for the
          center itself. *)
}

val run_bounded : Graph.t -> int -> radius:float -> bounded
(** Radius-limited Dijkstra with early exit: tentative distances beyond
    [radius] are never enqueued, so the run costs O(ball) — not O(n) — per
    call (per-domain generation-stamped scratch, no O(n) reset). Every
    distance and first-hop bit agrees with {!run} restricted to the ball.
    The workhorse for ring/annulus and local-ball construction. *)

module Oracle : sig
  (** On-demand distance oracle: SSSP rows computed lazily with the same
      core as {!all_pairs} (bit-identical results) and cached in a
      per-domain LRU keyed by source. Lock-free; [RON_JOBS] never changes
      bits. Memory: [capacity] rows of 16 bytes per node, per querying
      domain. *)

  type t

  val create : ?capacity:int -> Graph.t -> t
  (** Default capacity keeps the per-domain cache near 64 MB (at least 2
      rows, at most 32); [RON_ORACLE_ROWS] overrides. *)

  val rows_of_env : string option -> int option
  (** The capacity a [RON_ORACLE_ROWS] value asks for: [None] when absent
      or empty. Raises [Invalid_argument] naming the variable and the value
      on anything but an integer [>= 1] — {!create} does, when it reads a
      malformed [RON_ORACLE_ROWS]. *)

  val size : t -> int
  val capacity : t -> int

  val distances : t -> int -> float array
  (** [distances t s]: the full distance row from [s]. Returns the cache's
      own array — read-only, and only valid until [capacity] further
      distinct-source queries on this domain. Copy to retain. *)

  val first_hops : t -> int -> int array
  (** First-hop row from [s], same caching contract as {!distances}. *)

  val distance : t -> int -> int -> float
  val first_hop : t -> int -> int -> int
end

type apsp
(** All-pairs results in flat row-major storage: the distance and first-hop
    from [u] to [v] live at offset [u * n + v]. *)

val all_pairs : ?jobs:int -> Graph.t -> apsp
(** One Dijkstra per source, parallelized over sources ({!Ron_util.Pool}:
    [?jobs], else [RON_JOBS], else the hardware recommendation). Sources
    write disjoint rows, so the result is bit-identical at every job count,
    and identical to {!all_pairs_reference}. O(n (m + n log n)) work. *)

val size : apsp -> int
val distance : apsp -> int -> int -> float
val first_hop : apsp -> int -> int -> int
(** [-1] for [v = u] or unreachable [v]. *)

val sssp_of : apsp -> int -> sssp
(** Materialize one source's row as a boxed {!sssp} (copies). *)

val next_node : Graph.t -> sssp -> int -> int
(** [next_node g s v]: the node reached by following [s]'s first hop toward
    [v]. Raises [Invalid_argument] if [v] is the source or unreachable. *)

val next_toward : Graph.t -> apsp -> int -> int -> int
(** [next_toward g a u v]: the node after [u] on the canonical shortest
    [u -> v] path. Raises [Invalid_argument] if [v = u] or unreachable. *)

val run_reference : Graph.t -> int -> sssp
(** The pre-optimization implementation (record-per-entry heap, polymorphic
    tuple compare, boxed per-source results), kept as the measured baseline
    for [bench/main.exe --json] and the equivalence tests — the Dijkstra
    analogue of {!Ron_metric.Indexed.create_reference}. Produces outputs
    bit-identical to {!run}/{!all_pairs}. *)

val all_pairs_reference : Graph.t -> sssp array
