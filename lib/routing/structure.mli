(** Internal: the Theorem 2.1 ring/zooming/translation structure, shared by
    the graph scheme ({!Basic}) and the metric scheme ({!On_metric}).

    Builds, for a metric of aspect ratio [Delta] and a given [delta], the
    nested nets [G_j] ([Delta/2^j]-nets), and holds the rings
    [Y_uj = B_u(4 Delta/(delta 2^j)) ∩ G_j], the translation functions
    [zeta_uj], the zooming sequences [f_tj] and their encoded routing
    labels. A ring's member array is its host enumeration: a member's
    index is its position.

    Rings, translation functions and labels are stored flat ({!cols}),
    already in the layout the Basic snapshot serves: off-heap columns the
    snapshot layer adopts as they are. The zeta maps are {!Ron_core.Zeta}
    slot rows: one row per position [x] of ring [(u, j)], with one 16-bit
    slot per position [y] of ring [(f, j + 1)], [f] the member at [x],
    holding [zeta_uj(x, y)] or {!Ron_core.Zeta.absent}. Claim 2.2's decoder
    reads one [y] per step, so a step is one read; pair rows would need a
    search. {!build} refuses a ring of more than 65,535 members.

    A ring [(u, j)] with [2^j <= 4/delta] covers the whole metric, so it is
    all of [G_j] at every node, listed in the same id order. Where rings
    [j] and [j + 1] are whole nets at every node, [zeta_uj] is one table:
    those leading levels, [j < shared], are stored once, as node 0's rows,
    and every other node's rows there are empty. Since [delta <= 1/4],
    [shared >= min(scales - 1, 4)]. The walk at node [u] reads node 0's
    rows below [shared] and its own from there on; the sparse accounting
    ({!zeta_bits_sparse}) still charges every node its own copy.

    The build runs on flat scratch, one pass per node for each part: ring
    [(u, j)] is one scan of [u]'s sorted {!Ron_metric.Indexed.row} up to
    the ball's end, flagging [G_j]'s members in a per-domain mark over the
    node ids ({!Ron_util.Marks}), then a scan of [G_j] in id order that
    collects them; [f_tj] is the first [G_j] member in [t]'s sorted row,
    which ties by id as {!Ron_metric.Indexed.nearest_of} does; and the
    join reads every ring from the flat columns, writing each slot
    without a branch. No Hashtbl and no distance evaluation; the one
    sort puts each net in id order, once. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type u16s = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type cols = {
  n : int;
  scales : int;
  shared : int;
      (** in [[0, scales - 1]]: the leading levels [j < shared] whose rings
          [j] and [j + 1] are, at every node, node 0's. Their rows are node
          0's alone; {!build} derives it from the rings it built. *)
  ring_off : ints;
      (** [n * scales + 1]: CSR offsets over the rings, ring [(u, j)] at
          [u * scales + j] *)
  ring_node : ints;  (** the members of every ring, in enumeration order *)
  z_run : ints;
      (** [ring_off.{n * scales} + 1]: zeta_uj as rows, one per position
          [x] of ring [(u, j)]: row [p = ring_off.{u * scales + j} + x]
          spans [[z_run.{p}, z_run.{p + 1})] of [z_z], one slot per
          position of ring [(f, j + 1)], [f] the member at [x]. The rows
          of a node's last ring are empty, and so are the rows of every
          node but 0 below [shared]: the walk at [u] reads level [j] from
          row [ring_off.{(if j < shared then 0 else u) * scales + j} + m_j]. *)
  z_z : u16s;
      (** slot [y] of row [p]: [zeta_uj(x, y)], a position in ring
          [(u, j + 1)], or {!Ron_core.Zeta.absent} *)
  label_first : ints;  (** [n]: the index of [f_t0] in ring 0 *)
  label_rest : ints;
      (** [n * (scales - 1)]: [f_(t,j+1)]'s index in ring [j + 1] of
          [f_tj], at [t * (scales - 1) + j] *)
}
(** The flat structure. Arrays may be shared with a live scheme or mapped
    from a snapshot — treat them as read-only. *)

type t = {
  idx : Ron_metric.Indexed.t;
  rings : Ron_core.Rings.t;
      (** the rings as records, members in ascending id: the churn
          layer's repair and the accounting read them *)
  cols : cols;
  zoomings : int array array;  (** [zoomings.(t).(j)]: [f_tj] *)
  present : int array;
      (** [n]: each node's count of present slots, node 0's at the shared
          levels included *)
  ring_index_bits : int;
}

val build : Ron_metric.Indexed.t -> delta:float -> t
(** [delta] in (0, 1/4]. Each per-node pass runs in parallel
    ({!Ron_util.Pool}); the result is identical at any job count. Raises
    [Invalid_argument] naming the node, the scale and the size of a ring
    of more than 65,535 members, and on a ring that lists a member twice
    or a zooming sequence its rings cannot encode. *)

val decode : cols -> int -> cols -> int -> int array -> int
(** [decode c u l row m]: Claim 2.2 at node [u] of [c] for the label in
    row [row] of [l]'s label columns ([l] is [c], or a label set of the
    same [scales]). Writes the local indices [m_0 .. m_jut] to
    [m.(0) .. m.(jut)] and returns [j_ut]; [m] needs [scales] slots.
    Allocation-free. Each step charges one zoom decode step and one
    translation lookup to the probes. Below [c.shared] the steps read node
    0's rows. A [y] of the label outside its row (negative, or past the
    ring it indexes) is a null step, as an absent slot is. The other
    reads are unchecked: a label's first index must be below every node's
    ring-0 size ({!first_bound}), and every node's rings [0 .. shared]
    must have node 0's sizes. *)

val decode_to : cols -> int -> cols -> int -> int array -> int -> int
(** [decode_to c u l row m top]: {!decode} stopped at level [top]: writes
    [m_0 .. m_min(top, j_ut)] and returns [min top j_ut]. A [top] past
    [scales - 1] stops at [j_ut]. *)

val resume : cols -> int -> cols -> int -> int array -> int -> int
(** [resume c u l row m j]: continues a decode that stopped at level [j]
    ([m.(0) .. m.(j)] written) to [j_ut], and returns [j_ut]. *)

val member : cols -> int -> int -> int -> int
(** [member c u j x]: the node at position [x] of ring [(u, j)]
    (unchecked). *)

val first_bound : cols -> int
(** The smallest ring-0 size: every label's first index must be below it. *)

val zeta_bits_sparse : t -> int -> int
(** Total sparse translation-table bits of node [u]: three ring indices
    per present slot, the [(x, y, z)] triple the paper charges. *)

val label_bits : t -> int
(** Encoded zooming sequence plus the global id: every label has [scales]
    indices, so all labels have this size. *)

val header_bits : t -> int
(** Label bits plus the intermediate-level field. *)
