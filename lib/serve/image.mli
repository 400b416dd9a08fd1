(** Off-heap snapshot images.

    A frozen scheme is a scheme tag plus ordered arrays of off-heap
    sections: native-int, float64 and uint16 {!Bigarray.Array1} slabs.
    Images save to a versioned (version 2), checksummed file whose every
    section starts 8-byte aligned — a uint16 payload is zero-padded to a
    multiple of 8 bytes — and load back through [Unix.map_file], so a
    snapshot serves without copying its payload onto the OCaml heap. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type u16s = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  scheme : int;  (** 1 basic, 2 labelled, 3 two_mode, 4 meridian, 5 landmark *)
  isecs : ints array;
  fsecs : floats array;
  usecs : u16s array;
}

val ints_create : int -> ints
val floats_create : int -> floats
val u16s_create : int -> u16s
val ints_of_array : int array -> ints
val floats_of_array : float array -> floats

val checksum_ints : ints -> int64
(** FNV-1a over the section's words; also used by the serve digest. *)

val checksum_floats : floats -> int64

val byte_size : t -> int
(** Exact on-disk size of the image: header + section table + payloads,
    the uint16 payloads' padding included. *)

val save : t -> string -> unit
(** [save t file] writes magic, version, scheme tag, word size, the int,
    float and uint16 section counts, per-section lengths and checksums,
    then the raw section payloads: ints, floats, then uint16s. Each
    section is encoded and hashed in one pass through a bounded buffer,
    and the header is written last; nothing is mapped, so saving holds no
    second copy of the snapshot. *)

val load : string -> (t, string) result
(** [load file] maps each section back (private mapping) and verifies every
    per-section checksum; any mismatch, truncation, version or word-size
    difference is an [Error] describing the first problem found. *)
