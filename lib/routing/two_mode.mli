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
(** Like {!route}, but with the hop passed through the wrapper (e.g. the
    fault injector). Alternates per mode: other identified
    beacons in M1; the scale-i directory's other members (provisional
    owners, scales >= 2 only) and coarser hub pointers at a hub; coarser
    hub pointers as an owner. All are links the M1/M2 tables already pay
    for. [route] is [route_wrapped Scheme.identity_wrapper]. Routes may
    run on several domains at once. *)

val mode2_switches : t -> int
(** Number of M1 -> M2 switches since construction or the last
    {!reset_counters} (diagnostics), over every domain's routes. *)

val reset_counters : t -> unit

val table_bits_m1 : t -> int array
(** Per-node M1 storage: the node's own distance label (used for decoding)
    plus its beacon link ids. *)

val table_bits_m2 : t -> int array
(** Per-node M2 storage: hub pointers, range directories at hubs, and the
    owned target links. *)

val header_bits : t -> int
val out_degree : t -> int

(** {2 Columns}

    The scheme's routing state, in the Two_mode snapshot's layout.
    Directory [g] (numbered scale by scale, ball by ball) is a packing
    ball whose members collectively own the enclosing ball [B']: member
    [dir_mem.{k}] owns the target ids from [dir_bnd.{k}] up to the next
    boundary. The snapshot layer maps these columns to and from image
    sections; live and frozen routes both take {!hop}. *)

type ints = Ron_labeling.Dls.ints
type floats = Ron_labeling.Dls.floats

type cols = {
  n : int;
  li : int;  (** scale count ([max 1] of the hierarchy's levels) *)
  max_hops : int;  (** the routing budget [route] uses *)
  header_bits : int;  (** the same for every destination *)
  m1_threshold : float;
  hub_ptr : ints;  (** [n * li], at [u * li + i]: the hub of [u]'s covering ball *)
  hub_g : ints;  (** [li * n], at [i * n + u]: the directory hubbed at [u], or [-1] *)
  dir_off : ints;  (** directories + 1: CSR over [dir_mem] and [dir_bnd] *)
  dir_mem : ints;  (** each directory's members, sorted *)
  dir_bnd : ints;  (** each member's smallest owned target id *)
  own_off : ints;  (** [li * n + 1]: CSR over [own_tgt], segment [i * n + u] *)
  own_tgt : ints;  (** the targets [u] owns at scale [i], sorted *)
  r_level : floats;  (** [n * li], at [u * li + i]: [r_level idx u i] *)
  dist : floats;  (** the [n * n] metric, row-major *)
  dls : Ron_labeling.Dls.cols;
}

val hop_budget : int -> int
(** The routing budget for [li] scales: [max 64 (8 li)]. *)

val export : t -> cols
(** The scheme's columns, handed over without a copy. *)

val overlay_row : cols -> int -> int array
(** [u]'s slice of the M2 structure for overlay repair: its hub pointers
    at every scale, then the members of every directory hubbed at [u],
    scale by scale. *)

(** {2 The hop}

    A packet's mode is an int: [0] for M1, [2i] for "at the scale-[i]
    hub", [2i + 1] for "at the scale-[i] owner" ([i >= 1]). *)

val hop : cols -> Ron_labeling.Dls.scratch -> Scheme.regs -> int -> int -> int
(** [hop c sc r u mode]: one step of the scheme at [u] toward [r]'s
    target — the M1 beacon jump, the switch to M2 at Lemma B.5's scale,
    or the next M2 resolution step; the new state is the mode at the next
    node, the link cost is read from [c.dist]. Returns {!Scheme.deliver}
    at the target, {!Scheme.rewrite} when [u] switched from M1 to M2,
    else {!Scheme.forward}. Reads only [u]'s columns and the target's
    label; allocation-free once the scratch is reserved. Raises [Failure]
    when Theorem 3.4's decoder identifies no common beacon or the
    directories do not resolve the target. *)
