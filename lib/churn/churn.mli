(** Churn: dynamic joins and leaves over a frozen rings-of-neighbors
    scheme, with incremental repair.

    The paper's structures are built once over a static node set; Section 6
    points at the dynamic setting (Meridian's open maintenance question).
    This layer supplies the missing machinery in three pieces, all
    jobs-invariant:

    - {!Schedule}: a seeded event sequence of node departures and rejoins,
      a pure function of (seed, parameters) — bit-identical at any
      [RON_JOBS];
    - {!wrapper}: query-time staleness — a routing wrapper that detours
      around departed next hops via the scheme's own ranked alternates;
    - {!Overlay} / {!Ring_repair}: incremental table repair —
      substitute-or-tombstone on a leave, local re-label plus re-adoption
      on a rejoin. Per-event work is bounded by the event's footprint;
      nothing rebuilds from scratch (the [churn.rebuilds] probe counter
      exists so tests can pin that it stays at zero). *)

type cost = { updates : int; refills : int; relabels : int }
(** Repair-work accounting for one event (or an aggregate): table entries
    written, of which slots re-filled with a live substitute, and label
    entries re-derived by a rejoin. *)

val zero_cost : cost
val add_cost : cost -> cost -> cost

(** {2 Event schedule} *)

module Schedule : sig
  type kind = Join | Leave

  type event = { slot : int; kind : kind; node : int }

  type t

  val make :
    ?seed:int ->
    ?initial_down_fraction:float ->
    ?eligible:(int -> bool) ->
    n:int ->
    slots:int ->
    join_rate:float ->
    leave_rate:float ->
    unit ->
    t
  (** One independent coin per slot: with probability [join_rate] a
      departed node rejoins, with probability [leave_rate] a live node
      leaves; otherwise the slot is quiet. Node picks are seeded hashes
      over swap-remove pools, so generation is strictly sequential and
      deterministic. The rejoin model: joins only re-admit nodes that are
      currently down, seeded by [initial_down_fraction] of the eligible
      population (clamped to half); leaves respect a live floor of half
      the eligible population. [eligible] fences off load-bearing nodes
      (beacons, non-members) that the host scheme cannot lose.

      Raises [Invalid_argument] on negative [n]/[slots], rates outside
      [[0, 1]] or summing past 1, or [initial_down_fraction] outside
      [[0, 1)). *)

  val events : t -> event array
  val initial_down : t -> int array
  (** Ascending node ids down at slot 0 (tables were built including
      them). *)

  val eligible_count : t -> int

  val is_null : t -> bool
  (** No events and nobody initially down — churn at rate 0 must be
      indistinguishable from no churn layer at all. *)

  val describe : t -> string
end

(** {2 Live-set state} *)

type state
(** Mutable live/down flags plus a count; shared by the wrapper and the
    repair structures, mutated only by {!mark_join}/{!mark_leave} (the
    {!Driver} does this for you). *)

val state_of_schedule : Schedule.t -> state
(** All nodes live except the schedule's initially-down set. *)

val fresh_state : int -> state
(** All [n] nodes live. *)

val is_live : state -> int -> bool
val live_count : state -> int
val down_count : state -> int

val mark_leave : state -> int -> unit
(** Raises [Invalid_argument] if the node is already down. *)

val mark_join : state -> int -> unit
(** Raises [Invalid_argument] if the node is already live. *)

(** {2 Routing under churn} *)

val wrapper : state -> Ron_routing.Scheme.wrapper
(** Blocks forwards into departed nodes (a [churn.stale_hits] probe per
    block) and detours to the first live ranked alternate
    ([churn.detours]), dropping the packet when the table offers none.
    The live set must be frozen while routing (apply events between
    batches): the wrapped hop then stays a pure function of
    (node, state) and cycle detection stays on. When every node is live
    this is {!Ron_routing.Scheme.identity_wrapper} itself — routes are
    byte-identical to the unwrapped scheme. Compose with the fault
    wrapper via {!Ron_routing.Scheme.compose}. *)

(** {2 Incremental repair: generic id rows} *)

module Overlay : sig
  (** Repair over per-node id rows (a directory, a neighbor list, a local
      ball): pristine rows are kept immutable beside a mutated working
      copy, with reverse indexes over both, so a leave touches exactly the
      departed node's referrers and a rejoin touches exactly its pristine
      footprint. [-1] marks an empty slot (tombstone: no live substitute
      was available). *)

  type t

  val create :
    ?substitute:(u:int -> slot:int -> exclude:(int -> bool) -> int) ->
    state ->
    int array array ->
    relabel_cost:(int -> int) ->
    t
  (** [create st rows ~relabel_cost]: rows are copied; negative entries
      are treated as already-empty slots. [substitute ~u ~slot ~exclude]
      proposes a ranked live replacement for a lost member of [u]'s row
      (it must return a live node not excluded and never [u], or [-1]);
      the default takes the first live member of [u]'s own pristine row.
      [relabel_cost v] is the number of label entries a rejoining [v]
      re-derives. Nodes already down in [st] are reconciled silently
      (construction, not a scheduled event — no probe bumps). *)

  val leave : t -> int -> cost
  (** Repair after the node was marked down ({!mark_leave} first):
      substitute-or-tombstone at every live referrer, and invalidate the
      departed node's label. *)

  val join : t -> int -> cost
  (** Repair after the node was marked live ({!mark_join} first): re-derive
      its label ([relabel_cost] entries, one [churn.relabels] probe),
      restore its own row toward pristine, and re-adopt it at its pristine
      positions in live referrers. *)

  val stale_entries : t -> int
  (** Entries of live rows referencing down nodes — 0 after every repaired
      event (the repair invariant tests pin). *)

  val backlog : t -> int
  (** Invalidated labels not yet re-derived, i.e. currently-down nodes
      whose state the overlay has seen — the repair-backlog gauge. *)

  val valid_label : t -> int -> bool
  val row : t -> int -> int array
  (** Fresh copy of the current (repaired) row. *)
end

(** {2 Incremental repair: rings of neighbors} *)

module Ring_repair : sig
  (** Repair over a {!Ron_core.Rings.t} collection. A leave replaces every
      live occurrence of the departed node with the nearest live node
      inside the ring's own ball — bounded-radius exploration, candidates
      in the substrate's distance order, so the refill is ranked. A rejoin
      restores the node's own rings and re-adopts it at its pristine
      positions. The pristine collection is borrowed read-only; all
      mutation lands on a deep working copy. *)

  type t

  val create : state -> Ron_metric.Indexed.t -> Ron_core.Rings.t -> t
  (** Nodes already down in the state are reconciled silently, as in
      {!Overlay.create}. *)

  val leave : t -> int -> cost
  val join : t -> int -> cost

  val stale_members : t -> int
  (** Ring members of live nodes referencing down nodes — 0 after every
      repaired event. *)

  val rings : t -> Ron_core.Rings.t
  (** The working copy (contains [-1] tombstones where no in-ball live
      substitute existed). *)
end

(** {2 Event application} *)

module Driver : sig
  type summary = { joins : int; leaves : int; cost : cost }

  val apply :
    Schedule.t ->
    state ->
    on_leave:(int -> cost) ->
    on_join:(int -> cost) ->
    ?backlog:(unit -> int) ->
    unit ->
    summary
  (** Apply every scheduled event in slot order: flip the live flag, run
      the per-scheme repair callback, account the work. Bumps the
      [churn.joins]/[churn.leaves]/[churn.repair_updates] counters and the
      [churn.live_nodes]/[churn.repair_backlog] gauges per event (when
      probes are on). Strictly sequential by design. *)
end
