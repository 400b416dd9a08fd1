(** Chunked parallel-for over OCaml 5 domains.

    Iterations [0..n-1] are split into [jobs] contiguous chunks, one domain
    per chunk. The chunk boundaries depend only on [n] and [jobs], never on
    scheduling, so a body whose iterations are independent and deterministic
    produces {e identical} results at every job count — the repo's builds
    rely on this for reproducible experiment output.

    Job count resolution: the [?jobs] argument, else the [RON_JOBS]
    environment variable, else [Domain.recommended_domain_count ()].
    [jobs = 1] runs inline with no domain spawned; nested calls (from inside
    a pool worker) also degrade to sequential, so callers may parallelize
    freely at any layer. *)

val jobs : unit -> int
(** The default job count (the {!set_default_jobs} override, else
    [RON_JOBS], else the hardware recommendation). *)

val jobs_of_env : string option -> int option
(** The job count a [RON_JOBS] value asks for: [None] when absent or
    empty. Raises [Invalid_argument] naming the variable and the value on
    anything but an integer [>= 1] — {!jobs} does, the first time it reads
    a malformed [RON_JOBS]. *)

val set_default_jobs : int option -> unit
(** Process-wide override of the default job count — what the CLI's
    [--jobs N] flag sets. [Some j] requires [j >= 1]; [None] restores the
    [RON_JOBS]/hardware resolution. Explicit [?jobs] arguments still win. *)

val set_observer : (jobs:int -> items:int -> unit) -> unit
(** Install the batch observer, fired once per top-level {!parallel_for}
    call (nested, inside-pool calls do not fire) with the effective job
    count and the item count. One observer; installing replaces the
    previous one. The obs layer installs its gauge/counter hook here at
    module initialization — regular user code should not need this. *)

val inside_chunk : unit -> bool
(** Is the calling domain currently executing a pool chunk? True on
    workers, and on the calling domain while it works its own chunk —
    including the whole body of a top-level [jobs = 1] run, so the answer
    at a given call site never depends on the job count. The telemetry
    sampler gates on this to keep its sample points chunk-free. *)

val parallel_for : ?jobs:int -> int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f 0 .. f (n-1)], in parallel chunks when
    [jobs > 1]. If any iteration raises, every domain is still joined and
    the first exception (in chunk order) is re-raised. *)

val init : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [Array.init], parallel over chunks. [f 0] runs first on the calling
    domain (it seeds the result array); the remaining indices run in
    parallel. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [Array.map], parallel over chunks. *)
