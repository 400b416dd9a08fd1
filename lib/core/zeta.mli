(** Translation functions as rows: the layout Theorem 2.1's rings
    ([Structure]) and Theorem 3.4's labels ([Dls]) share. A zeta map
    takes a host index [x] and an index [y] in the enumeration of [x]'s
    node to a host index [z]; each row is one [x], at its place among the
    rows, delimited by a column of row starts.

    Rows come in two formats, for the two ways they are read:

    - {b pair rows}: a run of [(y, z)] pairs sorted by [y] in two 16-bit
      columns, and only the pairs that exist. [Dls.scan] joins two labels'
      rows entry by entry, which needs each row's [y]s in order, and its
      virtual indices [y] range over a space far larger than a row holds.
    - {b slot rows}: one 16-bit slot per [y] of the row's enumeration,
      holding [z] or {!absent}. Theorem 2.1's decoder looks up one [y] per
      step, and [y] indexes a ring whose size the row's length already is:
      the lookup is one read, and a row costs 16 bits per ring position
      against 32 per pair. Theorem 2.1's rows hold 49–86% of their ring's
      positions on the grids, random geometric graphs and torus measured,
      so its slots take between 42% fewer and 2% more bytes than pairs. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type u16s = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val max_members : int
(** 65,535: the largest set a 16-bit position indexes. *)

(** {1 Pair rows} *)

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

(** {1 Slot rows} *)

val absent : int
(** 0xffff, the mark of a slot with no [z]: no position of a set of at
    most {!max_members} members. *)

val slot : u16s -> int -> int -> int -> int
(** [slot zz y lo hi]: the [z] in slot [y] of the row [\[lo, hi)], or [-1]
    when [y] is outside the row ([y < 0] or [y >= hi - lo]) or the slot
    is {!absent} — what {!find} gives for the same row as pairs. One
    unchecked read, so [\[lo, hi)] must lie in [zz]; allocation-free. *)

val outside_slots : u16s -> int -> int -> int -> int
(** [outside_slots zz size i e]: the first slot of [\[i, e)] that holds
    neither a position below [size] nor {!absent}, or [-1]. Branch-free
    within a slot: one compare per four slots. *)
