(** Process-wide gauges: current-level readings (cache occupancy, batch
    sizes) sharded per domain like {!Counter}. Each domain's shard keeps
    the last value that domain wrote; the merged reading sums all written
    shards, which commutes, so a gauge written only from the orchestrating
    domain is bit-identical at any [RON_JOBS]. *)

type t

type Registry.metric += Gauge of t

(** [make ?env name] declares (or retrieves — idempotent per name) a
    gauge. [env] marks gauges whose value reflects the execution
    environment (worker count, per-domain cache sizes): they are excluded
    from deterministic snapshots and only surface next to other
    process-level telemetry fields. Default [false]. Raises
    [Invalid_argument] when the name is declared under another kind. *)
val make : ?env:bool -> string -> t

val name : t -> string
val env : t -> bool

(** Last-write-wins on the calling domain's shard. *)
val set : t -> float -> unit

val set_int : t -> int -> unit

(** Adjust the calling domain's shard in place (e.g. +1/-1 level
    tracking). *)
val add : t -> float -> unit

(** Has any domain written this gauge since the last reset? *)
val written : t -> bool

(** Sum over written shards; [0.0] when never written. *)
val value : t -> float

(** Max over written shards; [neg_infinity] when never written. *)
val max_value : t -> float

val reset : t -> unit

(** Every declared gauge, sorted by name. *)
val all : unit -> t list

(** [{name: value}] of every written gauge, sorted by name; env gauges
    only when [env]. The snapshot's and telemetry's gauge section. *)
val to_json : env:bool -> Json.t
