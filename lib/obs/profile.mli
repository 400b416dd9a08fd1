(** Hierarchical phase profiler with GC accounting.

    [phase name f] runs [f], recording wall time (from the one injected
    source, {!Clock.read}) and [Gc.quick_stat] deltas under the phase's {e path} — phase
    names joined with ["/"] down the nesting chain on the current domain.
    Aggregation is per-domain (like {!Counter} shards) with a deterministic
    merge: {!stats} sums per path and sorts by path, so the report's shape
    is identical at every [RON_JOBS].

    Off by default: when {!on} is [false], [phase] is one global load and a
    branch around calling [f] — the repo's deterministic outputs and
    bit-identity tests are untouched. The default source is the logical
    tick (deterministic, allocation-free); the CLI's [--profile] and the
    bench inject a real nanosecond clock.

    Self time is total minus directly nested phases {e on the same
    domain}; a phase entered on a pool worker is its own root, so worker
    time (concurrent with the orchestrating phase) is never subtracted.
    Within one domain the self times of a phase tree sum exactly to the
    root's total. GC words are [Gc.quick_stat] deltas observed by the
    calling domain — allocation on concurrently running domains is charged
    to their own phases (or nowhere), not to the caller's. *)

val on : bool ref
(** The master switch, [Probe.on]-style: call sites pay a single branch
    when off. Prefer {!enable}/{!disable} over setting it directly — they
    also manage the injected clock. *)

val enable : ?clock:(unit -> int64) -> unit -> unit
(** Turn profiling on, holding the clock source ({!Clock.hold}) and
    installing [clock] ([unit -> int64] nanoseconds, expected monotonic)
    when given. Without [?clock] the current source is kept. *)

val disable : unit -> unit
(** Turn profiling off and release the clock source: the logical tick
    comes back once no trace or telemetry holds the source either, so a
    sampler still running keeps its clock. *)

val enabled : unit -> bool

val phase : string -> (unit -> 'a) -> 'a
(** [phase name f] runs [f] under [name], nested inside the innermost
    enclosing phase on this domain. Exceptions still record the sample and
    re-raise. When {!on} is false, exactly [f ()]. When a {!Trace} sink is
    also active, the phase writes a B record at entry and an E record at
    exit, stamped with the readings the profile charges; an E record that
    unwinds on an exception carries it as a string ["error"] arg. So trace
    files carry the same span structure the profile table aggregates. *)

type stat = {
  path : string;  (** "outer/inner" phase path, the sort key *)
  count : int;
  total_ns : int64;
  self_ns : int64;  (** total minus directly nested same-domain phases *)
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

val stats : unit -> stat list
(** Merged across domains, sorted by path. *)

val reset : unit -> unit
(** Drop all recorded samples (and any dangling frames). *)

val to_json : unit -> Json.t
(** [{"schema":"ron-profile/1","phases":[{...}, ...]}], phases sorted by
    path. *)

val write : string -> unit
(** Write {!to_json} as pretty JSON to a file. *)

val pp : out_channel -> unit
(** Human-readable table: count, total/self ms, minor/major Mwords,
    collection counts per phase. *)
