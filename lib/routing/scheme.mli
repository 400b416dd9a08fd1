(** Routing-scheme plumbing: the one route loop and the measurements every
    scheme reports.

    A routing scheme (Section 1) assigns each node a routing table and a
    routing label; forwarding is {e local} — a function of the current
    node's table and the packet header only. Every header here is the
    target's label plus one small int, the packet's {e state}: the chased
    zoom level (Theorem 2.1), the intermediate target (Theorem 4.1) or the
    M1/M2 mode (Theorem 4.2). A scheme supplies a hop over (node, state);
    {!walk} moves the packet with it. Live routes, the fault and churn
    wrappers and the frozen server all run this one loop. *)

type outcome =
  | Delivered  (** the hop reported delivery *)
  | Truncated  (** the hop budget ran out before delivery *)
  | Self_forward  (** the scheme forwarded a packet to the node it was at *)
  | Cycled
      (** the packet revisited a (node, state) pair — the hop is a function
          of the pair, so the walk was provably looping forever *)
  | Dropped  (** a wrapper dropped the packet (injected fault, no live alternate) *)

val outcome_string : outcome -> string
(** Stable lowercase name ("delivered", "truncated", "self_forward",
    "cycled", "dropped") — the same strings the [route.done] trace events
    carry. *)

(** {1 The loop} *)

type regs = {
  mutable target : int;
  mutable next : int;
  mutable state : int;
  link : float array;
  mutable trail : int array;
  mutable trail_len : int;
  mutable tracing : bool;
  mutable detect_cycles : bool;
  mutable max_hops : int;
  mutable header_bits : int;
  mutable observed : bool;
  mutable outcome : outcome;
  mutable hops : int;
}
(** The loop's registers. A hop reads [target] and writes a forward's
    [next] node, the packet's [state] there and the link's cost into
    [link.(0)]. {!walk} sums the route's length in [link.(1)], ends with
    [outcome] and [hops], and while [tracing] writes each next node into
    [trail], counting on in [trail_len] past its end. The rest hold
    {!walk}'s parameters and whether probes or a trace sink were on when
    it started. *)

type result = {
  delivered : bool;  (** [outcome = Delivered], kept for convenience *)
  outcome : outcome;
  hops : int;
  length : float;  (** total metric length of the traversed hops *)
  path : int list;  (** nodes visited, source first; includes the target *)
  max_header_bits : int;
}
(** A live route's answer. Declared after {!regs}, so an unannotated
    [r.outcome] or [r.hops] names this record's field. *)

val regs : ?trail:int array -> unit -> regs

(** Hop codes: [deliver] (0) at the target; [forward] (1) as written;
    [rewrite] (2), a forward that rewrote the header though the state may
    be unchanged (Theorem 4.2's M1 → M2 switch); [drop] (3), wrappers
    only. *)

val deliver : int
val forward : int
val rewrite : int
val drop : int

val forward_to : regs -> int -> int -> float -> int
(** [forward_to r next state cost] writes a forward and returns {!forward}.
    A float argument is boxed unless the call is inlined, so the served
    hops write the registers themselves. *)

val walk :
  ('e -> int -> int -> int) -> 'e -> regs -> detect_cycles:bool -> header_bits:int ->
  max_hops:int -> src:int -> dst:int -> int -> unit
(** [walk hop env r ... state] moves a packet in [state] from [src] toward
    [dst], calling [hop env node state] at each node. Per node, in order:
    Brent's cycle check on (node, state) when [detect_cycles] (one saved
    pair, refreshed at every power-of-two hop count, so a loop reports
    [Cycled] within O(cycle length) hops); the hop, whose {!deliver} or
    {!drop} ends the walk; a forward to the node itself; the budget of
    [max_hops] hops. Allocation-free when the hop is.

    With {!Ron_obs.Probe.on} as the walk starts, each forward bumps the
    route counters — a header rewrite when the state changes or the hop
    returned {!rewrite} — and the walk ends with [route.done]; a trace
    sink active as it starts gets [route.hop]/[route.done] events. *)

(** {1 Live routes and wrappers} *)

type hop = int -> int -> int
(** A hop bound to its registers: [hop node state] returns a hop code. *)

type alternates = int -> int -> (int * int * float) list
(** [alternates node state]: the ranked fallback forwards (next hop, state
    there, link cost) the node's table holds besides the primary one. *)

type wrapper = { wrap : regs -> hop -> alternates:alternates -> hop; detect_cycles : bool }
(** A hop transformer that wraps every scheme (the fault injector, the
    churn layer's detour): the wrapped hop reads the primary forward from
    the registers and may overwrite it with an alternate. [detect_cycles]
    is off when the wrapped hop is no function of (node, state). *)

val identity_wrapper : wrapper
(** Returns the hop unchanged (physically equal — the wrapped route is
    byte-identical to the unwrapped one) and keeps cycle detection on. *)

val compose : wrapper -> wrapper -> wrapper
(** [compose outer inner]: wrap with [inner] first, then [outer] (so the
    outer layer sees the inner layer's decisions). Both receive the same
    ranked alternates; [detect_cycles] is the conjunction. Composing with
    {!identity_wrapper} on either side returns the other wrapper
    physically unchanged. *)

val live : unit -> regs
(** This domain's registers for live routes; a hop must not start another
    live route. *)

val route :
  ?wrapper:wrapper -> ?alternates:alternates -> regs -> header_bits:int -> max_hops:int ->
  src:int -> dst:int -> int -> hop -> result
(** [route r ... state hop]: {!walk} [hop], which writes into [r], through
    [wrapper] (default {!identity_wrapper}, no alternates), tracing into
    [r]'s trail; the path is built once, from the trail. *)

val charge_dist : result -> result
(** One distance evaluation per hop, charged to the probes: the cost model
    of a route over a metric, which measures each link it takes. Two_mode,
    On_metric and Labelled_m routes read their link costs unprobed. *)

val stretch : result -> float -> float
(** [stretch r d]: [r.length / d]. When [d = 0] the result is [1.0] for a
    zero-length path and [infinity] otherwise — a delivered-but-wandering
    packet to a coincident point must not read as perfect stretch. Raises
    if not delivered. *)
