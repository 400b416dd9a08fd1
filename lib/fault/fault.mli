(** Deterministic fault injection and graceful degradation for the route
    loop.

    A fault model bundles three seeded failure processes:

    - a {e crashed-node set}: a fixed fraction of nodes selected once per
      model from the seed — a crashed node never accepts a packet;
    - {e per-hop Bernoulli message drop}: each hop of each query flips a
      coin keyed by (seed, query, hop) — a lost packet is simply gone;
    - {e dead links}: each (undirected) node pair flips a coin keyed by
      (seed, endpoints) — a dead link blocks forwarding in both directions
      while leaving its endpoints alive.

    All three are pure functions of the seed and their keys ({!Ron_util.Rng.mix}
    hash chains — no mutable generator state), so a fault sweep is
    bit-identical across [RON_JOBS] settings, evaluation orders, and reruns.

    {!wrapper} turns a model into a {!Ron_routing.Scheme.wrapper}: the
    wrapped hop draws the drop coin, checks the primary next hop against
    the crashed set and dead links, and on failure detours through the
    scheme's ranked alternate hops — the retry/fallback policy — returning
    {!Ron_routing.Scheme.drop} only when every alternate is dead too. The
    scheme itself never learns faults exist. *)

type t

val none : t
(** The null model: no crashes, no drops, no dead links. *)

val make :
  ?seed:int ->
  ?crash_fraction:float ->
  ?drop_rate:float ->
  ?dead_link_fraction:float ->
  n:int ->
  unit ->
  t
(** [make ~n ()] builds a model over node ids [0..n-1]. All rates default
    to [0.0] and must lie in [[0, 1)]; [crash_fraction] crashes
    [floor (crash_fraction * n)] seed-chosen nodes. Equal arguments yield
    an identical model (the crashed set included). *)

val is_null : t -> bool
(** No failure process is active — {!wrapper} degenerates to
    {!Ron_routing.Scheme.identity_wrapper}, so routing through it is
    byte-identical to the fault-free path. *)

val seed : t -> int
val crash_count : t -> int
val drop_rate : t -> float
val dead_link_fraction : t -> float

val crashed : t -> int -> bool
(** [crashed t v]: is node [v] in the crashed set? (Out-of-range ids are
    not crashed.) Use it to exclude dead endpoints when sampling query
    pairs. *)

val crashed_nodes : t -> int array
(** The crashed set, ascending. *)

val link_dead : t -> int -> int -> bool
(** [link_dead t u v]: is the (undirected) link between [u] and [v] dead?
    Symmetric in its arguments. *)

val drops : t -> query:int -> hop:int -> bool
(** The Bernoulli drop draw for the given (query, hop) key — exposed for
    tests that pin the schedule. *)

val describe : t -> string
(** One-line human summary ("seed 7 | crashed 12/400 | drop 0.010 | ..."). *)

val wrapper : t -> query:int -> Ron_routing.Scheme.wrapper
(** The fault-injecting hop transformer for one query, to pass to a
    scheme's [route_wrapped]. [query] keys the drop draws; use a stable
    query index, not anything order-dependent.

    When a fault fires or a fallback is taken the wrapper bumps the
    [fault.*] probe counters (under {!Ron_obs.Probe.on}) and emits
    [fault.drop] / [fault.detour] / [fault.exhausted] trace events (under
    an active sink). The wrapper disables the route loop's cycle detection —
    drop draws are keyed by hop count, so the wrapped hop is not a pure
    function of (node, state) — except in the {!is_null} case, which
    returns the identity wrapper unchanged. *)
