(** The clocks of the observability stack: the monotonic clock latencies
    and elapsed times are read on, and the one injected source trace,
    profile and telemetry records are stamped with. *)

(** {1 Monotonic clock}

    [CLOCK_MONOTONIC] in integer nanoseconds, allocation-free. A
    difference of two reads is exact to the nanosecond, where one of two
    float epoch-second reads is a multiple of 2^-22 s (about 238 ns). The
    origin is arbitrary: a read is not a date. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary origin. *)

val ns : unit -> int64
(** The same, as the [unit -> int64] source {!Trace.configure},
    {!Profile.enable} and {!Telemetry.start} take. *)

val since_s : int -> float
(** [since_s t0]: seconds elapsed since the {!now_ns} read [t0]. *)

(** {1 The injected source}

    One source for {!Trace}, {!Profile} and {!Telemetry}. By default it
    is the logical clock, a process-wide atomic tick — deterministic and
    allocation-free, so tests and reproducible runs need no wall clock;
    the CLI and the bench inject {!ns}. *)

val logical : unit -> int64
(** The logical clock: one tick per read. *)

type holder

val holder : unit -> holder
(** A new holder; each of {!Trace}, {!Profile} and {!Telemetry} makes
    one at initialization. *)

val hold : holder -> ?source:(unit -> int64) -> unit -> unit
(** Hold the source while on, installing [source] when given. Without
    one, the current source stays, and when nothing held it the logical
    clock restarts at 0, so every default-clock run stamps the same
    values. Holding twice is holding once. *)

val release : holder -> unit
(** Stop holding; the last release restores the logical clock, so a
    later hold without [?source] never inherits a stale injected one. *)

val read : unit -> int64
(** One reading of the current source. *)
