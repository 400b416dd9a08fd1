(** (1 + delta)-approximate distance labeling without global identifiers
    (Theorem 3.4): [(O(1/delta))^O(alpha) (log n)(log log Delta)] bits per
    label.

    The scheme elaborates the Theorem 3.2 triangulation: the label of [u]
    stores quantized distances to [u]'s X/Y-beacons indexed by [u]'s host
    enumeration, the translation functions [zeta_ui], and [u]'s zooming
    sequence encoded through {e virtual} enumerations. Virtual neighbors
    [T_u = X_u ∪ Z_u ∪ (∪_{v in X_u} Z_v)], with
    [Z_uj = B_u(2^j) ∩ G_(log2 (2^j delta / 64))], exist only to give
    consecutive zooming elements (and the final common beacon) decodable
    pointers (Claim 3.5).

    {b Decoding uses only the two labels}: [estimate] never touches the
    metric. It walks both zooming sequences through both labels'
    translation maps (the Claim 2.2 walk), joining the maps' [(f, .)]
    entries on the shared virtual indices to identify common beacons, and
    returns the best [D+] upper bound. The proof guarantees a common beacon
    within [delta * d] of one endpoint is identified, so
    [estimate <= (1 + 2 delta)(1 + delta/8) d] and [estimate >= d].

    All labels of a scheme live in one set of flat columns ({!cols}), the
    layout of the Labelled/Two_mode snapshot sections; a label is a row of
    them. The translation maps are Theorem 2.1's {!Ron_core.Zeta} rows of
    16-bit indices. One decoder ({!scan}) serves the live schemes and the
    frozen server alike. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type u16s = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type cols = {
  rows : int;
  levels : int;  (** translation maps per label ([levels - 1] of the scheme) *)
  prefix_len : int;  (** the canonical scale-0 prefix of every host enumeration *)
  max_virt : int;  (** scratch bound: 1 + the largest virtual index *)
  d_off : ints;  (** [rows + 1]: CSR over per-row host distances and hosts *)
  d_val : floats;  (** quantized distance to each host-enumerated beacon *)
  hosts : ints;
      (** node ids parallel to [d_val] (host enumeration order); empty for
          a deserialized label and in the Labelled snapshot *)
  zoom_first : ints;  (** [rows]: phi_u(f_u0), an index into the prefix *)
  zoom_rest : ints;  (** [rows * levels]: psi_(f_ui)(f_(u,i+1)) *)
  z_run : ints;
      (** [levels * d_off.{rows} + 1]: zeta_(u,i) as rows, one per host
          index [x] of row [u] (k_u hosts): row
          [p = levels * d_off.{u} + i * k_u + x] spans
          [[z_run.{p}, z_run.{p + 1})] of [z_y]/[z_z] *)
  z_y : u16s;  (** a virtual index, below [max_virt], sorted within a row *)
  z_z : u16s;  (** [zeta_(u,i)(x, y)], one of [u]'s host indices *)
}
(** Labels in columns. Arrays may be shared with a live scheme or mapped
    from a snapshot — treat them as read-only. *)

type t
(** A built scheme (the centralized constructor's view). *)

type label
(** A self-contained node label: a row of some {!cols}. *)

val build : ?z_divisor:float -> Triangulation.t -> t
(** Build on top of a Theorem 3.2 triangulation (which fixes [delta], the
    packings and the net hierarchy). [z_divisor] (default 64, the paper's
    constant) sets the Z-ring net spacing [2^j delta / z_divisor]. The
    translation maps are written straight into their rows, sorted, by a
    count pass and a fill pass; the columns are identical at every job
    count. Raises [Invalid_argument] naming the node and the size of a
    host or virtual enumeration of more than 65,535 members. *)

val triangulation : t -> Triangulation.t

val label : t -> int -> label
val label_of_id : label -> int
(** The node's global identifier (kept in the label as in the paper; used
    only for the [u = v] short-circuit, never for decoding). *)

val host_beacons : t -> int -> int array
(** [host_beacons t u]: node ids in [u]'s host-enumeration order (local
    knowledge: these are [u]'s own neighbors). *)

val estimate : label -> label -> float
(** [estimate l_u l_v]: a [D+] upper bound on [d(u,v)] computed from the two
    labels alone. Raises [Failure] if no common beacon can be identified —
    Theorem 3.4 proves this cannot happen on labels from one scheme; it
    does happen on labels from different schemes (failure injection). *)

val virtual_neighbors : t -> int -> int array
(** [T_u], for tests. *)

val zooming_sequence : t -> int -> int array
(** [f_ui] for [i = 0 .. levels-1], for tests. *)

(** {2 Decoder}

    The zero-allocation candidate scan behind {!estimate}. Results land in
    a caller-owned scratch. *)

type scratch
(** The decoder's working state and result registers. *)

val new_scratch : unit -> scratch

val scratch : unit -> scratch
(** This domain's scratch, shared by the live callers of {!scan_labels}
    and {!estimate}. *)

val reserve : scratch -> cols -> unit
(** Grow the scratch to the columns' bounds. {!scan} calls it; calling it
    ahead keeps a query loop's first query from allocating. *)

val scan : cols -> int -> cols -> int -> scratch -> exclude:int -> unit
(** [scan cu u cv v sc ~exclude]: the candidate scan for row [u] of [cu]
    against row [v] of [cv] (Theorem 3.4's decoder); allocation-free once
    the scratch is reserved. [exclude >= 0] also selects [best_w] and needs
    [cu]'s hosts column — Two_mode's mode-M1 choice. Each zoom step
    charges two translation lookups to the probes. Raises [Failure] on
    columns from different schemes. *)

val scan_labels : label -> label -> scratch -> exclude:int -> collect:bool -> unit
(** {!scan} on two labels; with [collect], also records every candidate
    beacon other than [exclude] — Two_mode's ranked M1 alternates. *)

val results : scratch -> float array
(** After a scan: [.(0)] is the min of [d_u + d_v] over the identified
    common beacons (infinity if none); with [exclude >= 0], [.(1)] is the
    [d_v] of {!best_beacon}. *)

val best_beacon : scratch -> int
(** After a scan with [exclude >= 0]: the identified beacon other than
    [exclude] that is lex-min by ([d_v], id), or [-1]. *)

val candidates : scratch -> (float * int) list
(** After a [collect] scan: every identified beacon other than
    [exclude], with multiplicity, as [(d_v, id)]. *)

(** {2 Wire format}

    Labels can be serialized to actual bitstrings, proving the storage
    claims byte-for-byte: the scheme-wide constants (field widths, the
    distance codec) form a {!wire_codec} that a deployment would ship once;
    each label is then a self-contained bitstring. Estimation from
    deserialized labels is bit-identical to estimation from built ones. *)

type wire_codec

val wire_codec : t -> wire_codec

val serialize : wire_codec -> label -> Bytes.t * int
(** [(bytes, bits)]: the encoded label and its exact bit length. *)

val deserialize : wire_codec -> Bytes.t -> label
(** A one-row column set that decodes against built labels. Raises
    [Invalid_argument] on truncated or corrupt input that walks off the end
    of the bitstring, and, naming the field, on a host count below the
    prefix, a [zoom_first] at or past the prefix, or a triple whose [x] or
    [z] is at or past the host count. *)

val label_bits : t -> int array
(** Exact per-label storage: quantized distances, sparse translation
    triples, the encoded zooming sequence, and the global id. *)

val max_label_bits : t -> int

(** {2 Export} *)

val export : t -> cols
(** The scheme's columns, handed to the snapshot layer ([ron_serve])
    without a copy. *)
