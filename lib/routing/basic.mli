(** The (1 + delta)-stretch routing scheme of Theorem 2.1.

    For each distance scale [j], [G_j] is a [Delta/2^j]-net and the j-th
    ring of [u] is [Y_uj = B_u(r_j) ∩ G_j] with [r_j = 4 Delta/(delta 2^j)];
    each ring has at most [K = (16/delta)^alpha] members (Lemma 1.4). The
    routing label of a target [t] encodes its {e zooming sequence}
    [f_tj] (a j-ring neighbor of [t] within [Delta/2^j] of [t]) through host
    enumerations; a routing table holds the translation functions [zeta_uj]
    and first-hop pointers to all ring members. Packets chase intermediate
    targets that zoom in on [t] geometrically (Claim 2.4), each reached
    along an exact shortest path via first-hop pointers, for total stretch
    [<= (1+delta)/(1-delta) = 1 + O(delta)].

    Forwarding at a node uses {e only} that node's table and the packet
    header (Claim 2.2 is implemented literally: the zooming sequence is
    decoded index-by-index through the translation functions). *)

type t

val build : Ron_graph.Sp_metric.t -> delta:float -> t
(** [delta] in (0, 1/4] as in the theorem. Deterministic. Raises
    [Invalid_argument] naming the node and the size of a ring, or of a
    first-hop row, of more than 65,535 members. *)

type header
(** A packet's fixed part: the target and its routing label. The chased
    level, the one field a hop rewrites, is the route loop's state. *)

val route : t -> src:int -> dst:int -> Scheme.result
(** Simulate the packet through the underlying graph. *)

val route_wrapped : Scheme.wrapper -> t -> src:int -> dst:int -> Scheme.result
(** Like {!route}, but with the hop passed through the wrapper (e.g. the
    fault injector). The ranked alternates offered to the wrapper are the
    first hops toward the intermediate targets at every other zooming
    level, coarsest first — links the routing table already holds.
    [route] is [route_wrapped Scheme.identity_wrapper]. *)

val serialize_label : t -> int -> Bytes.t * int
(** [(bytes, bits)]: the routing label of a target as an actual bitstring
    (global id + encoded zooming sequence) — the concrete object whose
    length [label_bits] reports. *)

val deserialize_label : t -> Bytes.t -> header
(** Rebuild a fresh-packet header from a serialized label. Routing from it
    is identical to {!route} to the same target. Raises
    [Invalid_argument] naming the field when the target is not a node id
    or the first index is outside ring 0, and on input that walks off the
    end of the bitstring. *)

val route_header : t -> src:int -> header -> Scheme.result

val scales : t -> int
(** Number of distance scales [L + 1] ([L = ceil(log2 Delta)]). *)

val max_ring_size : t -> int
(** The measured [K]. *)

val table_bits : t -> int array
(** Per-node routing-table size: sparse translation triples, first-hop
    pointers ([ceil(log2 Dout)] bits each), and the node's global id. *)

val label_bits : t -> int array
(** Routing-label sizes: the encoded zooming sequence plus the global id. *)

val header_bits : t -> int
(** Maximum packet-header size: label bits plus the intermediate level. *)

val zooming : t -> int -> int array
(** [zooming t u]: the sequence [f_uj] (for tests). *)

val rings_collection : t -> Ron_core.Rings.t
(** The scheme's live ring collection, borrowed read-only — the churn
    layer deep-copies it ({!Ron_core.Rings.copy}) and repairs the copy. *)

val substrate : t -> Ron_metric.Indexed.t
(** The indexed metric the rings were built over (for bounded-radius
    repair exploration). Borrowed. *)

(** {2 Columns}

    The scheme's routing state, in the Basic snapshot's layout: the flat
    structure ({!Structure.cols}), the first-hop table, each ring
    position's entry in that table, and two constants. The snapshot layer
    maps these columns to and from image sections; live and frozen routes
    both take {!hop}. *)

type cols = {
  st : Structure.cols;
  table : First_hop.t;  (** per node, an entry for every distinct ring member *)
  ring_hop : Structure.u16s;
      (** parallel to [st.ring_node]: the member's entry in its node's
          first-hop row, as an offset from the row's start; 0 where the
          member is the node itself (never read) *)
  max_hops : int;  (** the routing budget [route] uses *)
  header_bits : int;  (** the same for every destination *)
}

val hop_budget : int -> int
(** The routing budget for [n] nodes: [max 64 (8 n)]. *)

val target_level : cols -> Structure.cols -> int -> int array -> int -> int -> int
(** [target_level c l row m u level]: Claim 2.4's choice at node [u], which
    is not the target, for the label in row [row] of [l]: the level whose
    intermediate target the packet chases — [level] ([-1] when none is set
    yet), or [j_ut] when none is set or [u] is the level-[level] target
    itself. Decodes into [m] only [m_0 .. m_level] for a set level that is
    not reached, else [m_0 .. m_jut]. Allocation-free; raises [Failure] if
    [level > j_ut]. *)

val hop_entry : cols -> int -> int array -> int -> int
(** [hop_entry c u m j]: [u]'s first-hop entry toward the level-[j]
    intermediate target named by [m.(j)], read from [ring_hop]. Raises
    [Failure] if that target is [u]. *)

val hop : cols -> Structure.cols -> int -> int array -> Scheme.regs -> int -> int -> int
(** [hop c l row m r u level]: Theorem 2.1's hop at [u] toward [r]'s
    target, whose label is row [row] of [l], for a packet chasing [level]
    — {!target_level}, then the first hop of {!hop_entry} with its link
    cost; the new state is the chased level. Returns a {!Scheme} hop code.
    Allocation-free. *)

val export : t -> cols
(** The scheme's columns, handed over without a copy. *)
