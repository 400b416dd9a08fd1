(** Translation functions as rows: the layout Theorem 2.1's rings
    ([Structure]) and Theorem 3.4's labels ([Dls]) share. A zeta map
    takes a host index [x] and an index [y] in the enumeration of [x]'s
    node to a host index [z]. Row [x] is a run of [(y, z)] pairs sorted by
    [y] in two 16-bit columns, delimited by a column of row starts; [x] is
    the row's place and is not stored. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type u16s = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val max_members : int
(** 65,535: the largest set a 16-bit position indexes. *)

type sink = { run : ints; zy : u16s; zz : u16s }
(** Where a join writes: the row starts and the [(y, z)] columns. *)

val counting : sink
(** A count pass's sink, never written. *)

val sink : rows:int -> entries:int -> sink
(** Columns for [rows] rows of [entries] pairs; [run.{rows}] is [entries]. *)

val find : u16s -> u16s -> int -> int -> int -> int
(** [find zy zz y lo hi]: the [z] of [y] in the row [\[lo, hi)], or [-1].
    A binary search that finishes a range of fewer than 16 entries with a
    forward scan; unchecked reads, allocation-free. *)
