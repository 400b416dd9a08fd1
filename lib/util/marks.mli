(** Per-domain dense marks over node ids, for construction passes that
    flag, rank or position a node set without a hash table.

    The array is all [-1] between uses: a pass sets the entries it needs
    and resets them to [-1] before it returns, raising included, so the
    next pass on the same domain finds it clean. Passes on one domain
    must not nest. *)

val get : int -> int array
(** [get n]: the calling domain's marks, at least [n] entries long (grown,
    all [-1], on demand). *)
