(** The monotonic clock latencies and elapsed times are read on:
    [CLOCK_MONOTONIC] in integer nanoseconds, allocation-free. A
    difference of two reads is exact to the nanosecond, where one of two
    float epoch-second reads is a multiple of 2^-22 s (about 238 ns). The
    origin is arbitrary: a read is not a date. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary origin. *)

val ns : unit -> int64
(** The same, as the [unit -> int64] clock {!Trace.configure},
    {!Profile.enable} and {!Telemetry.start} take. *)

val since_s : int -> float
(** [since_s t0]: seconds elapsed since the {!now_ns} read [t0]. *)
