(** Process-wide event counters, sharded per domain ({!Shard}).

    Bumps touch only the calling domain's shard (no locks, no contention);
    [value] merges the shards by integer addition, so totals are identical
    at every [RON_JOBS] for a deterministic workload. Counters live in the
    one {!Registry} from creation (intended pattern: create once at module
    initialization, as [Probe] does) and are never unregistered. *)

type t

type Registry.metric += Counter of t

val make : string -> t
(** Declare a counter, or retrieve the one declared under the same name.
    Raises [Invalid_argument] when the name is declared under another
    kind. *)

val name : t -> string

val incr : t -> unit
(** Add 1 to the calling domain's shard. *)

val add : t -> int -> unit
(** Add an arbitrary amount. *)

val value : t -> int
(** Sum over all shards (including those of finished domains). *)

val reset : t -> unit
(** Zero every shard. Do not race with concurrent bumps. *)

val all : unit -> t list
(** Every declared counter, sorted by name. *)
