(** A metric with per-node sorted distance arrays: the workhorse index.

    Every construction in the paper repeatedly needs closed balls [B_u(r)]
    and the radii [r_u(eps)] of the smallest balls of a given measure
    (Section 1.1). Precomputing, for each node, the array of
    [(distance, node)] pairs sorted by distance makes both O(log n). *)

type t

val create : ?jobs:int -> Metric.t -> t
(** O(n^2 log n) preprocessing. Rows are unboxed [float array]/[int array]
    pairs sorted by a monomorphic float-keyed sort; equal distances are
    tie-broken by ascending node id. Construction is parallelized over
    domains ([?jobs], else [RON_JOBS], else the hardware recommendation —
    see {!Ron_util.Pool}); the result is identical at every job count. *)

val create_reference : Metric.t -> t
(** The pre-optimization construction (boxed tuples, polymorphic compare,
    sequential), kept as the measured baseline for [bench/main.exe --json]
    and for equivalence tests. Produces a result identical to {!create}. *)

val metric : t -> Metric.t
val size : t -> int
val dist : t -> int -> int -> float

val diameter : t -> float
val min_distance : t -> float
val aspect_ratio : t -> float

val log2_aspect_ratio : t -> int
(** [ceil(log2 (aspect_ratio))], at least 1: the number of distance scales,
    the paper's [log Delta]. *)

val log2_size : t -> int
(** [ceil(log2 n)], at least 1: the number of cardinality scales, the
    paper's [log n]. *)

val nth_neighbor : t -> int -> int -> int * float
(** [nth_neighbor t u k] is the [k]-th closest node to [u] (k = 0 is [u]
    itself) together with its distance. *)

val row : t -> int -> int array
(** [row t u]: every node in {!nth_neighbor}'s order, non-decreasing
    distance from [u] with equal distances in ascending id. [B_u(r)] is
    its prefix of length [ball_count t u r], and a set's first member in
    it is the set's {!nearest_of}. Borrowed, not copied: read-only. *)

val ball : t -> int -> float -> int array
(** [ball t u r]: nodes of the closed ball [B_u(r)], in non-decreasing order
    of distance from [u] (so [u] first), equal distances in ascending node
    id. Negative radius yields [[||]]. *)

val ball_count : t -> int -> float -> int
(** Cardinality of the closed ball, computed without materializing it. *)

val ball_iter : t -> int -> float -> (int -> float -> unit) -> unit
(** Iterate [(node, distance)] over the closed ball without allocation. *)

val ball_filter : t -> int -> float -> (int -> bool) -> int array
(** [ball_filter t u r keep]: the members of the closed ball [B_u(r)]
    satisfying [keep], in non-decreasing order of distance from [u] —
    [ball] composed with a filter, without the intermediate array/list
    round-trip. *)

val annulus : t -> int -> float -> float -> int array
(** [annulus t u r_in r_out]: nodes [v] with [r_in < d(u,v) <= r_out]. *)

val radius_for_count : t -> int -> int -> float
(** [radius_for_count t u k]: radius of the smallest closed ball around [u]
    containing at least [k] nodes (counting [u]); requires [1 <= k <= n]. *)

val r_eps : t -> int -> float -> float
(** [r_eps t u eps]: the paper's [r_u(eps)] — the radius of the smallest
    closed ball around [u] of counting measure at least [eps], i.e.
    containing at least [ceil(eps * n)] nodes. *)

val r_level : t -> int -> int -> float
(** [r_level t u i] is [r_u(2^-i)], the paper's [r_ui]: smallest ball with at
    least [ceil(n / 2^i)] nodes. [r_level t u 0] spans the whole space; for
    [i >= log2_size t] it is 0 (the singleton ball). Out-of-range [i < 0]
    returns [infinity] (the paper's convention [r_(u,-1)] = unbounded). *)

val nearest_of : t -> int -> int array -> int * float
(** [nearest_of t u candidates]: the candidate closest to [u] (ties broken by
    smallest node id) and its distance; candidates must be non-empty. *)
