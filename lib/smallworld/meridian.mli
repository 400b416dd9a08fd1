(** Meridian-style closest-node discovery over rings of neighbors
    (Section 6; Wong–Slivkins–Sirer, SIGCOMM 2005 [57]).

    The paper closes by noting that rings of neighbors are "the framework
    used … practically in Meridian, a system for nearest-neighbor and
    multi-range queries in a peer-to-peer network". This module implements
    that object-location service over the same substrate: every member node
    keeps, for each distance scale [i], a ring of up to [ring_size] members
    sampled from the annulus [(2^(i-1), 2^i]] around it.

    A {e closest-node query} locates the member nearest to an external
    target point given only the ability to measure distances to the target:
    the current node measures its ring members against the target and
    forwards to the best one provided it (multiplicatively) beats the
    current distance; otherwise the search stops. On doubling metrics the
    ring structure guarantees geometric progress, so searches take
    O(log Delta) hops; the number of distance measurements per hop is the
    ring cardinality within the polling radius.

    Membership is dynamic: [join] and [leave] maintain the rings (the open
    question the paper's Section 6 raises — here solved centrally-assisted:
    a joining node fills its rings from its own measurements and inserts
    itself into other members' rings by reservoir sampling). *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type u16s = Ron_core.Zeta.u16s

type cols = {
  n : int;
  scales : int;
  ring_size : int;
  members : ints;  (** ascending member ids *)
  fill : u16s;  (** members of ring (u, i), at [u * scales + i] *)
  node : u16s;  (** [ring_size] slots per ring, head first; empty slots hold 0 *)
  dmat : floats;  (** the [n * n] distances the walk measures, row-major *)
}
(** The overlay in the meridian snapshot's layout: the live overlay
    repairs these rows in place and the snapshot serves them. *)

type t

val build : Ron_metric.Indexed.t -> Ron_util.Rng.t -> ring_size:int -> members:int array -> t
(** [build idx rng ~ring_size ~members]: an overlay over [members] (a
    subset of the metric's nodes). The metric must be normalized, and its
    size and [ring_size] at most {!Ron_core.Zeta.max_members}. *)

val members : t -> int array
val is_member : t -> int -> bool

val ring : t -> int -> int -> int array
(** [ring t u i]: the scale-i ring of member [u], head first. *)

val out_degree : t -> int * float

(** {2 The walk} *)

type regs = {
  mutable found : int;  (** the member the walk settled on *)
  mutable hops : int;
  mutable measurements : int;  (** target-distance probes issued *)
  mutable best : int;
  mutable attempts : int;
  mutable clean : bool;
  trail : int array;
  mutable trail_len : int;
  mutable tracing : bool;
}
(** A walk's results: [found], [hops], [measurements]; the rest is working
    storage. While [tracing], each advance appends its node to [trail],
    and [trail_len] counts on past the buffer. *)

val regs : ?trail:int array -> unit -> regs

val locate :
  cols -> Ron_fault.Fault.t -> query:int -> regs -> float array -> start:int -> target:int -> unit
(** [locate c fault ~query r fl ~start ~target]: the walk behind
    {!closest}, {!within} and the served locate, from [start] toward
    [target] (both below [c.n]), with two floats of working storage in
    [fl]. Unchecked reads; no allocation while the probes and trace sinks
    are off. [Fault.none] runs fault-free. *)

type result = {
  found : int;  (** the member the search settled on *)
  hops : int;
  measurements : int;  (** target-distance probes issued *)
}

val closest : ?fault:Ron_fault.Fault.t * int -> t -> start:int -> target:int -> result
(** [closest t ~start ~target]: locate the member closest to [target]
    (which need not be a member), starting from member [start], using only
    ring state and distance measurements to [target].

    [?fault:(model, query)] runs the walk under fault injection: crashed
    ring members, dead links from the polling node, and dropped measurement
    replies (coins keyed by the model's seed, [query], and a serial attempt
    counter — deterministic for a given pair) all make a candidate
    invisible, and the walk advances to the best visible one instead: the
    rings are their own fallback, so the search degrades (possibly settling
    on a worse member) rather than failing. Raises [Invalid_argument] if
    [start] is not a member or is crashed, or [target] is not a node. *)

val exact_closest : t -> int -> int
(** Ground truth for tests: the member genuinely closest to a target. *)

type range_result = {
  matches : int array;  (** members found within the radius, ascending *)
  range_hops : int;  (** members whose rings were consulted *)
  range_measurements : int;
}

val within : t -> start:int -> target:int -> radius:float -> range_result
(** Multi-range query (the second Meridian query type the paper's Section 6
    cites): collect members within [radius] of [target]. Locates the
    closest member first, then explores outward over rings, consulting only
    members that are themselves within the radius and polling only ring
    scales that can intersect the query ball. Returned members all satisfy
    the radius (exact precision); recall is best-effort, like Meridian's. *)

val exact_within : t -> int -> float -> int array
(** Ground truth for tests. *)

val join : t -> Ron_util.Rng.t -> int -> unit
(** Add a node of the underlying metric to the overlay and stitch it into
    the rings. Raises [Invalid_argument] if it is already a member. *)

val leave : t -> int -> unit
(** Remove a member and purge it from every ring. Raises
    [Invalid_argument] if it is not a member or is the last member. *)

val copy : t -> t
(** Copy of the membership and rings, sharing the distances. Churn runs
    repair the copy, leaving the pristine instance intact. *)

val join_counted : t -> Ron_util.Rng.t -> int -> int
(** {!join} that also returns the number of ring entries written (the
    joining node's own rings plus its gossip insertions) — the churn
    layer's repair-cost accounting. *)

val leave_counted : t -> int -> int * int
(** {!leave} followed by ranked refill: every ring that lost the departed
    member is topped back up with the nearest live member of the same
    annulus not already present. Returns (entries touched, slots
    refilled). Incremental — per-event work is bounded by the departed
    node's ring presence; no ring is rebuilt from scratch. *)

(** {2 Export} *)

val export : t -> cols
(** The overlay's columns, handed to the snapshot layer ([ron_serve])
    without a copy; export a {!copy} to serve while the overlay churns. *)
