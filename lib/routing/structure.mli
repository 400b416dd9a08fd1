(** Internal: the Theorem 2.1 ring/zooming/translation structure, shared by
    the graph scheme ({!Basic}) and the metric scheme ({!On_metric}).

    Holds, for a metric of aspect ratio [Delta] and a given [delta]: the
    nested nets [G_j] ([Delta/2^j]-nets), the rings
    [Y_uj = B_u(4 Delta/(delta 2^j)) ∩ G_j], the translation functions
    [zeta_uj], the zooming sequences [f_tj] and their encoded routing
    labels. A ring's member array is its host enumeration: a member's
    index is its position.

    The translation functions are stored flat, already in the layout the
    Basic snapshot serves: one CSR over the [n * (scales - 1)] segments
    [(u, j)], segment [u * (scales - 1) + j], holding [zeta_uj]'s triples
    [(x, y, z)] sorted by [(x, y)], in off-heap columns the snapshot layer
    adopts as they are. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  idx : Ron_metric.Indexed.t;
  delta : float;
  scales : int;
  nets : int array array;
  rings : Ron_core.Rings.t;
  ring_off : int array;
      (** [n * scales + 1]: CSR offsets over the ring sizes, ring [(u, j)]
          at [u * scales + j] *)
  z_off : ints;  (** [n * (scales - 1) + 1]: segment offsets into the columns *)
  z_run : int array;
      (** [ring_off.(n * scales) + 1]: [z_run.(ring_off.(u * scales + j) + x)]
          is where the triples of zeta_uj with first coordinate [x] start;
          the next entry is where they end *)
  z_x : ints;
  z_y : ints;
  z_z : ints;
  zoomings : int array array;
  labels : Ron_core.Zooming.encoded array;
  ring_index_bits : int;
}

val build : Ron_metric.Indexed.t -> delta:float -> t
(** [delta] in (0, 1/4]. *)

val decode : t -> int -> Ron_core.Zooming.encoded -> int array
(** Claim 2.2 at node [u]: local indices [m_0 .. m_jut] of the encoded
    zooming sequence. *)

val intermediate_of : t -> int -> int array -> int -> int
(** [intermediate_of t u m j]: the node [f_tj] named by local index
    [m.(j)] in [u]'s ring [j]. *)

val zeta_bits_sparse : t -> int -> int
(** Total sparse translation-table bits of node [u]. *)

val zeta_bits_dense : t -> int
(** Dense per-node accounting: [(scales-1) * K^2 * ceil(log2 K)]. *)

val label_bits : t -> int -> int
(** Encoded zooming sequence plus the global id. *)

val header_bits : t -> int
(** Max label bits plus the intermediate-level field. *)
