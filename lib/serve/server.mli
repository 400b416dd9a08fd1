(** Frozen, off-heap query servers.

    A constructed scheme's columns are mapped to the sections of an
    {!Image.t} (Bigarray sections, int-indexed, string-free) and served
    from the same columns mapped back. Queries run the schemes' own code
    on them: the estimators, Meridian's walk, and the Basic, Labelled and
    Two_mode hops in the route loop live routes run ([Scheme.walk]) —
    frozen results are byte-identical to the live scheme's.
    The hot path is zero-allocation in steady state: all per-query mutable
    state lives in a preallocated per-domain {!scratch}, results land in
    its registers, and no hot function passes or returns a float. *)

type ints = Image.ints
type floats = Image.floats

(** {1 Scratch} *)

(** Per-domain query state. Query results are read from the [r_*]
    registers and [fbuf] slots documented at {!query}; the remaining
    fields — [dls] (the DLS decoder's own scratch), [memo] (Labelled's
    per-route estimates), [walk] (the route loop's registers) and [mer]
    (Meridian's walk output) included — are internal working storage. *)
type scratch = {
  mutable m : int array;
  dls : Ron_labeling.Dls.scratch;
  memo : Ron_routing.Labelled.memo;
  walk : Ron_routing.Scheme.regs;
  mer : Ron_smallworld.Meridian.regs;
  fbuf : float array;
  mutable r_outcome : int;
  mutable r_hops : int;
  mutable r_next : int;
  mutable r_aux : int;
  hop_log : int array;
  mutable hop_len : int;
  mutable log_hops : bool;
}
(** [hop_log]/[hop_len]/[log_hops]: per-hop trace capture for the flight
    recorder. While [log_hops] is set, every route/locate hop appends the
    visited node to [hop_log] (and [hop_len] keeps counting past the
    buffer, so truncation is visible); while clear — the default — each
    hop costs one load and a fall-through branch, preserving the
    0-words-per-query hot path. *)

(** {1 Servers} *)

type t

val freeze_basic_t : Ron_routing.Basic.cols -> t
val freeze_labelled_t : Ron_routing.Labelled.cols -> t
val freeze_two_mode_t : Ron_routing.Two_mode.cols -> t
val freeze_meridian_t : Ron_smallworld.Meridian.cols -> t
val freeze_landmark_t : Ron_labeling.Landmark.cols -> t
(** A server over the columns a scheme just built, adopted without a copy
    and not checked: each builder writes its columns consistent by
    construction. {!image} gives the image to save. *)

val of_image : Image.t -> (t, string) result
(** Wrap an image's sections — zero-copy — into a server. This is the
    trust boundary: the scheme tag, the per-scheme counts of int, float
    and uint16 sections and the length of every meta section are checked
    before any meta read, then the view's meta predicate (hop budget, M1
    threshold, [k <= n], the DLS meta) and, in O(size), every rule of its
    {!schema} — lengths, then offsets, then entries — so that its
    unchecked reads stay in bounds and its loops end. The [Error] names
    the scheme and the section. *)

val load : string -> (t, string) result
(** [Image.load] followed by {!of_image}. *)

val save : t -> string -> unit

val image : t -> Image.t
(** The image the server reads: its sections are the view's columns. *)

val byte_size : t -> int
(** Exact on-disk size of the underlying snapshot. *)

val scheme_tag : t -> int
(** 1 basic, 2 labelled, 3 two_mode, 4 meridian, 5 landmark. *)

val scheme_name : t -> string
val size : t -> int

val sources : t -> ints option
(** Source population for workloads: [Some members] for Meridian (walks
    must start at ring members), [None] for node-id-uniform schemes. *)

val scratch_for : t -> scratch
(** This domain's scratch, grown to the server's bounds. Call once per
    domain (per server) before the query loop; {!query} itself never grows
    the scratch. *)

(** {1 Snapshot schema}

    Each scheme's view is declared once, as an ordered list of columns:
    the [k]th section of a kind is the [k]th column of that kind. *)

type kind = Int | Float | U16

(** A bound: a constant, a named meta entry, a section's length, a sum,
    or [Min_size (off, every)], the smallest segment
    [\[off.{u * every}, off.{u * every + 1})] over u. *)
type expr =
  | Const of int | Meta of string | Dim of string | Plus of expr * int | Min_size of string * expr

(** [Length]: exactly so many entries; [Product (a, b, c)]: [a * b + c],
    without overflow; [Offsets (s, step)]: rise from 0 to section [s]'s
    length, by at least [step] each; [Range]: entries in [\[lo, hi)];
    [Finite]: entries finite and [>= 0]; [Segments]: group g's entries,
    from row [groups.{g} * every] to row [groups.{g + 1} * every] of the
    row starts [rows] (rows [g * every] to [(g + 1) * every] without
    [groups]), lie below the size of segment [g + shift] of the offsets
    [sizes], one group per segment past [shift]; with [slots], entries
    are {!Ron_core.Zeta} slots, and the absent mark passes too;
    [Leading_sizes]: the offsets' segments [g * every + k], [k <= upto],
    have the sizes of segments [k] (group 0's) in every group [g]. *)
type rule =
  | Length of expr
  | Product of expr * expr * int
  | Offsets of string * expr
  | Range of expr * expr
  | Finite
  | Segments of {
      groups : string option;
      every : expr;
      rows : string;
      sizes : string;
      shift : int;
      slots : bool;
    }
  | Leading_sizes of { every : expr; upto : expr }

(** [entries]: a meta section's named scalars, else [[]]. *)
type column = { name : string; kind : kind; entries : string list; rules : rule list }

val schema : string -> column list
(** A scheme's columns ("basic", "labelled", "two_mode", "meridian",
    "landmark"), in section order. *)

val eval : Image.t -> expr -> int
(** A bound's value on an image with intact section counts and meta
    lengths. *)

(** {1 Queries} *)

val effective_kind : t -> int -> int
(** The kind actually executed for a requested kind (0 route, 1 dist,
    2 locate): each scheme collapses unsupported kinds onto its native
    operation. *)

val query : t -> scratch -> kind:int -> src:int -> dst:int -> unit
(** Execute one query on this domain's scratch; allocation-free in steady
    state. Results, by effective kind:

    - route (0): [r_outcome] (0 delivered, 1 truncated, 2 self-forward,
      3 cycled), [r_hops], [r_aux] = header bits, [fbuf.(2)] = path
      length; with observability on, the route counters and trace events
      of [Scheme.walk];
    - dist (1): [fbuf.(3)] = lower bound, [fbuf.(4)] = upper bound (equal
      for the label-based point estimates);
    - locate (2): [r_next] = found member, [r_hops], [r_aux] =
      measurements. *)
