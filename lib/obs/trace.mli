(** Trace events written as JSONL through a pluggable sink.

    Each record is one line: [{"ts":<int>,"dom":<domain>,"ph":"B"|"E"|"i",
    "name":<string>,"args":{...}?}]. The timestamp is a reading of the
    one injected source ({!Clock.read}): the logical tick by default, a
    real clock when the CLI injects one. With no sink configured,
    [event] costs one load and a branch. Instants come from {!event};
    spans from {!Profile.phase}, which writes their B/E records. *)

type sink = { write : string -> unit; close : unit -> unit }

val null_sink : sink

val channel_sink : out_channel -> sink
(** Line-at-a-time writes under a mutex (safe from multiple domains);
    [close] closes the channel. *)

val memory_sink : unit -> sink * (unit -> string list)
(** In-memory sink for tests; the thunk returns the lines written so far in
    order. *)

val configure : ?clock:(unit -> int64) -> sink -> unit
(** Install a sink and activate tracing, holding the clock source
    ({!Clock.hold}, installing [clock] when given). *)

val stop : unit -> unit
(** Deactivate tracing, close the previous sink and release the clock
    source. *)

val active : unit -> bool

val event : ?args:(string * Json.t) list -> string -> unit
(** Emit one instant event (no-op when inactive). *)

val emit : ts:int64 -> ph:string -> ?args:(string * Json.t) list -> string -> unit
(** Write one record stamped [ts] to the current sink, active or not.
    {!Profile.phase} writes its B/E pairs through it. *)
