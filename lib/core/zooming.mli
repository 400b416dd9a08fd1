(** Zooming sequences (proofs of Theorems 2.1 and 3.4).

    The zooming sequence of a target [t] is a sequence of nodes [f_tj] that
    "zoom in" on [t]: [f_tj] is a j-ring neighbor of [t] within a
    geometrically shrinking distance of [t]. A label cannot afford global
    identifiers for the sequence, so each element is encoded as an index in
    an enumeration belonging to the {e previous} element; the decoder at a
    node [u] recovers its own indices for the elements one at a time through
    [u]'s translation functions, stopping exactly when an element leaves
    [u]'s rings (Claim 2.2). *)

type encoded = {
  first : int;  (** index of [f_t0] in the canonical scale-0 enumeration *)
  rest : int array;
      (** [rest.(j)]: index of [f_(t,j+1)] in the designated enumeration of
          the previous element [f_tj] *)
}

val encode :
  sequence:int array ->
  enum_of_prev:(int -> int -> int option) ->
  first_index:int ->
  encoded
(** [encode ~sequence ~enum_of_prev ~first_index] encodes
    [sequence.(j+1)] as [enum_of_prev j sequence.(j+1)] (the index of the
    next element in the enumeration attached to element [j]). Raises
    [Invalid_argument] if some element is not enumerable where the
    construction promised it would be — that means the structure violates
    Claim 2.3 / Claim 3.5 and must not be shipped. *)

val bits : encoded -> index_bits:int -> int
(** Storage cost: one index per element. *)
