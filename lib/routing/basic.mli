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
(** [delta] in (0, 1/4] as in the theorem. Deterministic. *)

type header

val initial_header : t -> int -> header
(** [initial_header t dst]: header for a fresh packet to [dst] — the routing
    label of [dst] plus an unset intermediate-target level. *)

val route : t -> src:int -> dst:int -> Scheme.result
(** Simulate the packet through the underlying graph. *)

val route_wrapped : Scheme.wrapper -> t -> src:int -> dst:int -> Scheme.result
(** Like {!route}, but with the step function passed through the wrapper
    (e.g. the fault injector). The ranked alternates offered to the wrapper
    are the first hops toward the intermediate targets at every other
    zooming level, coarsest first — links the routing table already holds.
    [route] is [route_wrapped Scheme.identity_wrapper]. *)

val serialize_label : t -> int -> Bytes.t * int
(** [(bytes, bits)]: the routing label of a target as an actual bitstring
    (global id + encoded zooming sequence) — the concrete object whose
    length [label_bits] reports. *)

val deserialize_label : t -> Bytes.t -> header
(** Rebuild a fresh-packet header from a serialized label. Routing from it
    is identical to routing from [initial_header]. *)

val route_header : t -> src:int -> header -> Scheme.result

val scales : t -> int
(** Number of distance scales [L + 1] ([L = ceil(log2 Delta)]). *)

val max_ring_size : t -> int
(** The measured [K]. *)

val table_bits : t -> int array
(** Per-node routing-table size: sparse translation triples, first-hop
    pointers ([ceil(log2 Dout)] bits each), and the node's global id. *)

val table_bits_dense : t -> int array
(** Same, with the translation functions charged as dense [K^2 log K]
    matrices (the paper's accounting). *)

val label_bits : t -> int array
(** Routing-label sizes: the encoded zooming sequence plus the global id. *)

val header_bits : t -> int
(** Maximum packet-header size: label bits plus the intermediate level. *)

val ring : t -> int -> int -> int array
(** [ring t u j]: the members of [Y_uj] (for tests). *)

val zooming : t -> int -> int array
(** [zooming t u]: the sequence [f_uj] (for tests). *)

val rings_collection : t -> Ron_core.Rings.t
(** The scheme's live ring collection, borrowed read-only — the churn
    layer deep-copies it ({!Ron_core.Rings.copy}) and repairs the copy. *)

val substrate : t -> Ron_metric.Indexed.t
(** The indexed metric the rings were built over (for bounded-radius
    repair exploration). Borrowed. *)

(** {2 Export}

    Flat, string-free state extraction for the off-heap snapshot layer
    ([ron_serve]): everything the step function reads, as flat arrays.
    The translation functions are handed over as the four off-heap columns
    [Structure.build] laid them out in, with no per-entry work. Arrays
    share structure with the live value: treat them as borrowed and
    read-only. *)

type export = {
  x_n : int;
  x_scales : int;
  x_max_hops : int;  (** the routing budget [route] uses *)
  x_header_bits : int array;  (** per destination *)
  x_label_first : int array;
  x_label_rest : int array array;  (** per node, [scales - 1] entries *)
  x_enums : int array array array;  (** ring enumeration order, per (u, j) *)
  x_z_off : Structure.ints;
      (** [n * (scales - 1) + 1]: CSR offsets of the translation segments,
          [(u, j)] at [u * (scales - 1) + j] *)
  x_z_x : Structure.ints;
  x_z_y : Structure.ints;
  x_z_z : Structure.ints;
      (** the triples [(x, y, z)] of every segment, sorted by [(x, y)]
          within it *)
  x_table : (int * int * float) array array;
      (** per node, sorted by neighbor: (intermediate, next hop, hop cost) *)
}

val export : t -> export
