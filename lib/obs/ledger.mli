(** Per-query cost accounting.

    [with_query] installs a mutable cost entry in domain-local storage; the
    instrumented substrate ({!Probe} call sites in the metric index, rings,
    zooming, route loop, labelings, and Meridian) bumps whichever
    entry is current on its domain. This turns "routing decisions use only
    the local table" into an audited quantity: the entry records exactly
    the ring lookups, zoom iterations, hops, header rewrites, and
    table-entry touches the query actually performed.

    Entries merge sorted by [(kind, id)]; give queries deterministic ids
    (e.g. the sampled-pair index) and the ledger is identical at every
    [RON_JOBS]. *)

type entry = {
  kind : string;
  id : int;
  mutable dist_evals : int;  (** metric distance evaluations *)
  mutable ball_queries : int;  (** sorted-row binary searches *)
  mutable ring_lookups : int;  (** rings probed *)
  mutable ring_members : int;  (** ring members scanned across lookups *)
  mutable zoom_steps : int;  (** zooming-sequence decode iterations *)
  mutable hops : int;  (** forwarding decisions taken *)
  mutable header_rewrites : int;  (** hops that rewrote the packet header *)
  mutable header_bits_max : int;  (** header-size high-water mark *)
  mutable table_touches : int;  (** translation/beacon table entries examined *)
}

val with_query : kind:string -> id:int -> (unit -> 'a) -> 'a * entry
(** Run [f] charging a fresh entry (restoring any outer entry after), then
    record the entry in the global ledger and return it. *)

val current : unit -> entry option
(** The entry currently charged on this domain, if any. *)

(** Bump helpers used by {!Probe}; no-ops when no query is active. *)

val bump_dist : unit -> unit
val bump_ball : unit -> unit
val bump_ring : members:int -> unit
val bump_zoom : unit -> unit
val bump_hop : unit -> unit
val bump_header_rewrite : unit -> unit
val note_header_bits : int -> unit
val bump_table : unit -> unit

val entries : unit -> entry list
(** All recorded entries, sorted by [(kind, id)]. *)

val reset : unit -> unit
(** Drop all recorded entries. Do not race with active queries. *)
