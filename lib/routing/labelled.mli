(** The "really simple" (1 + delta)-stretch routing scheme of Theorem 4.1,
    built on distance labels as a black box (Figure 1's arrow from Theorem
    3.4).

    Fix a 3/2-approximate distance labeling scheme [L] (Theorem 3.4 with a
    suitable internal delta). The j-level neighbors of [u] are
    [F_j(u) = B_u(2^(j+2)/delta) ∩ F_j] for [2^j]-nets [F_j]; the routing
    table stores each neighbor's distance label and first-hop pointer. The
    packet header is the target's label plus the current intermediate
    target's global id. At an intermediate target, the node picks the
    neighbor [v] minimizing the labeled estimate [D(L_v, L_t)] — within
    [(3/2) delta d] of [t] — so intermediate targets converge geometrically
    and the total stretch is [1 + O(delta)].

    The payoff over Theorem 2.1 is header size independent of [log Delta]:
    [2^O(alpha) (log n)(log (1/delta * log Delta))] bits. *)

type t

val dls_delta : float
(** The internal accuracy of the black-box distance labeling: chosen so the
    labeled estimate is 3/2-approximate, as the theorem requires. *)

val build : Ron_graph.Sp_metric.t -> delta:float -> t
(** [delta] in (0, 2/3): the analysis needs the per-round contraction
    [(3/2) delta < 1]. *)

val route : t -> src:int -> dst:int -> Scheme.result

val estimate : t -> int -> int -> float
(** The labeled distance estimate [D(L_u, L_v)] — the dist query the
    frozen server answers for this scheme. The labels are built on the
    normalized metric ([Metric.normalize], minimum distance 1), so the
    estimate, like every labelled dist answer the server gives, is in that
    metric's units, not the graph's. *)

val route_wrapped : Scheme.wrapper -> t -> src:int -> dst:int -> Scheme.result
(** Like {!route}, but with the hop passed through the wrapper (e.g. the
    fault injector). The ranked alternates are the node's
    neighbors ordered by labeled distance estimate to the target — the
    primary selection's own score — each becoming the new intermediate
    target. [route] is [route_wrapped Scheme.identity_wrapper]. *)

val table_bits : t -> int array
(** Neighbor labels plus first-hop pointers. *)

val label_bits : t -> int array
(** The (distance-labeling) label of each node — what the header carries. *)

val header_bits : t -> int
val out_degree : t -> int
(** Max number of neighbors (the overlay degree). *)

val neighbors : t -> int -> int array
(** [F(u)], sorted: [u] itself and its first-hop targets. [F_0] holds
    every node of the normalized metric, so [u] is its own neighbor. *)

val targets :
  Ron_metric.Indexed.t ->
  Ron_labeling.Triangulation.t ->
  delta:float ->
  First_hop.ints * First_hop.ints
(** [F(u) \ {u}] for every node, [F(u) = ∪_j B_u(2^(j+2)/delta) ∩ F_j]
    over the triangulation's net hierarchy, as CSR columns: offsets
    ([n + 1]) and each node's sorted ids. {!Labelled_m} shares it. *)

(** {2 Columns}

    The scheme's routing state, in the Labelled snapshot's layout. The
    snapshot layer maps these columns to and from image sections; live and
    frozen routes both take {!hop}. *)

type ints = First_hop.ints

type cols = {
  n : int;
  max_hops : int;  (** the routing budget [route] uses *)
  header_bits : ints;  (** per target: its label plus an intermediate id *)
  table : First_hop.t;  (** an entry for every neighbor but the node itself *)
  dls : Ron_labeling.Dls.cols;  (** the hosts column is not read *)
}

val hop_budget : int -> int
(** The routing budget for [n] nodes: [max 64 (8 n)]. *)

val export : t -> cols
(** The scheme's columns, handed over without a copy. *)

type memo
(** Labeled estimates to one target, kept until the next {!fresh}. *)

val memo : unit -> memo

val reserve : memo -> int -> unit
(** Grow the memo to [n] nodes; call before the first {!select}. *)

val fresh : memo -> unit
(** Forget every estimate: call when the target changes (per route). *)

val select :
  Ron_labeling.Dls.cols -> Ron_labeling.Dls.scratch -> memo -> ints -> dst:int -> int -> int -> int
(** [select dls sc m ids ~dst s e]: Theorem 4.1's choice among the
    candidates [ids.{s} .. ids.{e-1}] — the argmin by (labeled estimate to
    [dst], id), or [-1] if there are none. Each estimate is a {!Dls.scan}
    of the columns, memoized in [m]. Allocation-free once the memo and the
    scratch are reserved; raises [Failure] if a scan identifies no common
    beacon. *)

val hop : cols -> Ron_labeling.Dls.scratch -> memo -> Scheme.regs -> int -> int -> int
(** [hop c sc m r u inter]: Theorem 4.1's hop at [u] toward [r]'s target
    for a packet whose intermediate target is [inter] — toward [inter], or
    toward a fresh {!select} over [u]'s first-hop targets when [u] has
    reached it; the new state is that intermediate target. Returns a
    {!Scheme} hop code. Raises [Failure] when [u] has no neighbor or
    [inter] is not one. *)
