(** The two-mode routing scheme of Theorem 4.2 / B.1, in its
    routing-on-metrics form (Section 4.1, Table 3).

    Mode M1 elaborates Theorem 2.1 with the Theorem 3.4 machinery: the
    packet header carries the target's distance label; at each node the
    label-only decoder identifies common beacons of the current node and
    the target, and the packet jumps to the identified beacon closest to
    the target, provided it makes geometric progress ("u-good" nodes,
    conditions (c1)-(c5)).

    When no identified beacon makes progress — exactly the Lemma B.5
    situation, a large gap between [d(v,t)] and the cardinality radii
    around [v] — the packet switches to mode M2: it hops to the designated
    hub [h_B] of a packing ball [B] near [v] (Lemma 3.1), whose members
    collectively store direct links to every node of the bigger ball
    [B' = B_(h,i-1)] (each member owns an id-range of [2^O(alpha)]
    targets); the hub forwards by target id to the owner [v_t], which
    delivers in one hop. If the scale was guessed too deep (the label-based
    estimate of [d(v,t)] is 3/2-approximate), the owner falls back one
    scale — scale 1's [B'] is the whole space, so delivery is guaranteed.

    Per Table 3, M1 storage is label-sized ([phi log n] flavored) and M2
    storage is [2^O(alpha) log n] direct routes per node. *)

type t

val build : ?m1_threshold:float -> Ron_metric.Indexed.t -> delta:float -> t
(** [delta] in (0, 1/8] as in Appendix B. Expensive: builds the full
    Theorem 3.4 label scheme plus the per-scale packing directories.

    [m1_threshold] (default 1/3) is the M1 goodness bound: the packet jumps
    to an identified beacon [w] only if its labeled distance to the target
    is at most [m1_threshold * estimate]; anything [< 1/2] preserves strict
    progress. Small values force the M2 directories to be exercised — used
    by tests and the T3 ablation. *)

val route : t -> src:int -> dst:int -> Scheme.result

val estimate : t -> int -> int -> float
(** The label-only estimate of [d(u,v)] that mode M1 decodes — the dist
    query the frozen server answers for this scheme. *)

val route_wrapped : Scheme.wrapper -> t -> src:int -> dst:int -> Scheme.result
(** Like {!route}, but with the step function passed through the wrapper
    (e.g. the fault injector). Alternates per mode: other identified
    beacons in M1; the scale-i directory's other members (provisional
    owners, scales >= 2 only) and coarser hub pointers at a hub; coarser
    hub pointers as an owner. All are links the M1/M2 tables already pay
    for. [route] is [route_wrapped Scheme.identity_wrapper]. *)

val mode2_switches : t -> int
(** Number of M1 -> M2 switches since construction (diagnostics). *)

val reset_counters : t -> unit

val table_bits_m1 : t -> int array
(** Per-node M1 storage: the node's own distance label (used for decoding)
    plus its beacon link ids. *)

val table_bits_m2 : t -> int array
(** Per-node M2 storage: hub pointers, range directories at hubs, and the
    owned target links. *)

val header_bits : t -> int
val out_degree : t -> int

(** {2 Export}

    Flat state extraction for the off-heap snapshot layer ([ron_serve]).
    Arrays may share structure with the live value — treat them as borrowed
    and read-only. *)

type export = {
  x_n : int;
  x_li : int;  (** scale count ([max 1] of the hierarchy's levels) *)
  x_max_hops : int;
  x_header_bits : int;  (** constant across routes *)
  x_m1_threshold : float;
  x_r_level : float array array;  (** [r_level idx u i], per node, [x_li] each *)
  x_hub_ptr : int array array;  (** covering-ball hubs, per node per scale *)
  x_hub_g : int array array;
      (** per scale, per node: global directory index hubbed there, or [-1] *)
  x_dir_members : int array array;  (** per global directory, sorted *)
  x_dir_boundaries : int array array;  (** parallel to [x_dir_members] *)
  x_owned : int array array array;  (** [i].[u]: sorted owned target ids *)
  x_dist : float array;  (** the [n * n] metric, row-major *)
  x_dls : Ron_labeling.Dls.cols;
}

val export : t -> export
