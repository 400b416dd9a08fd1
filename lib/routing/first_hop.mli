(** First-hop tables in CSR columns, shared by the graph schemes that
    route along shortest paths to table entries ({!Basic}, {!Labelled}).

    Node [u]'s entries are [[t_off.{u}, t_off.{u + 1})], sorted by target:
    for each target [w], the neighbor [t_next] on a shortest path from [u]
    to [w] and the cost [t_cost] of that one link. The columns are the
    snapshot's sections, adopted without a copy. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { t_off : ints; t_w : ints; t_next : ints; t_cost : floats }
(** Arrays may be shared with a live scheme or mapped from a snapshot —
    treat them as read-only. *)

val build : Ron_graph.Sp_metric.t -> int array array -> t
(** [build sp rows]: node [u]'s entries for the targets [rows.(u)]
    (sorted, distinct, none of them [u]). Parallel over nodes
    ({!Ron_util.Pool}), identical at any job count. Charges one table node
    per node to the probes. *)

val find : t -> int -> int -> int
(** [find t u w]: the entry of [u] for target [w], or [-1]. Allocation-free
    and unchecked: [u] must be a node of the table. *)

val entries : t -> int -> int
(** Number of entries of node [u]. *)
