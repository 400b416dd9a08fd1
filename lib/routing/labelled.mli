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
    frozen server answers for this scheme. *)

val route_wrapped : Scheme.wrapper -> t -> src:int -> dst:int -> Scheme.result
(** Like {!route}, but with the step function passed through the wrapper
    (e.g. the fault injector). The ranked alternates are the node's
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

(** {2 Export}

    Flat state extraction for the off-heap snapshot layer ([ron_serve]).
    Arrays may share structure with the live value — treat them as borrowed
    and read-only. *)

type export = {
  x_n : int;
  x_max_hops : int;
  x_header_bits : int array;  (** per destination *)
  x_nbrs : int array array;  (** sorted distinct neighbor ids, per node *)
  x_table : First_hop.t;  (** an entry for every neighbor *)
  x_dls : Ron_labeling.Dls.cols;
}

val export : t -> export
