(** Shared plumbing for the experiment harness: fixed-width table printing,
    pair sampling, and route-quality aggregation. Every experiment module
    exposes [run : unit -> unit] that prints one paper-artifact section. *)

val section : string -> string -> unit
(** [section id title] prints the experiment banner. *)

val subsection : string -> unit

val row : string list -> unit
(** Print one table row; columns are pre-formatted cells. *)

val header : string list -> unit
(** Print a header row plus a rule. *)

val cell : ?w:int -> string -> string
(** Right-pad/truncate to [w] (default 12). *)

val cell_int : ?w:int -> int -> string
val cell_float : ?w:int -> ?prec:int -> float -> string

val note : string -> unit
(** Indented free-form commentary line. *)

val sample_pairs : Ron_util.Rng.t -> n:int -> count:int -> (int * int) list
(** Up to [count] ordered pairs with distinct endpoints. *)

type route_quality = {
  queries : int;
  failures : int;  (** [truncated + self_forwards + cycled + dropped] *)
  truncated : int;  (** hop budget exhausted *)
  self_forwards : int;  (** scheme forwarded a packet to itself *)
  cycled : int;  (** packet revisited a (node, header) state *)
  dropped : int;  (** packet lost to an injected fault *)
  stretch_max : float;
  stretch_mean : float;
  hops_max : int;
  hops_mean : float;
  ring_lookups_mean : float;  (** observed per query, from the cost ledger *)
  ring_lookups_max : int;
  dist_evals_mean : float;
  zoom_steps_mean : float;
}

val collect_routes :
  route:(int -> int -> Ron_routing.Scheme.result) ->
  dist:(int -> int -> float) ->
  (int * int) list ->
  route_quality
(** Evaluate each pair's route and aggregate. The route calls are spread
    over domains and the aggregation folds in list order, so the result is
    bit-identical to a sequential run; [route] must be safe to call from
    any domain.

    Observability ({!Ron_obs.Probe.on}) is forced on while the routes run
    (and restored after): each pair is charged to a ledger entry keyed by
    its index, and the cost columns ([ring_lookups_*], [dist_evals_mean],
    [zoom_steps_mean], [hops_*]) come from those observed entries. *)

val collect_routes_keyed :
  route:(query:int -> int -> int -> Ron_routing.Scheme.result) ->
  dist:(int -> int -> float) ->
  (int * int) list ->
  route_quality
(** Like {!collect_routes}, but passes [route] the pair's index as
    [~query]. The fault layer keys its deterministic draws by (query, hop),
    so the index — stable across RON_JOBS and list order — is the right
    query identity. *)

val pp_quality : route_quality -> string

val pp_observed : route_quality -> string
(** One-line summary of the observed per-query costs (and the failure
    breakdown when any query failed). *)
