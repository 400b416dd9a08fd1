(** Prometheus text-format exposition of the observability snapshot.

    A [ron_build_info] gauge leads; then one name-ordered walk of the one
    {!Registry} renders every counter (as [*_total]), every written gauge
    (env gauges included — this is an operational surface, not a
    deterministic one) and every non-empty histogram (cumulative
    le-buckets, [+Inf], [_sum], [_count]; [_sum] is the deterministic
    bucket-midpoint approximation). Metric names are the registry names
    with non-Prometheus characters mapped to ['_'] and a ["ron_"]
    prefix. *)

val sanitize : string -> string
(** Registry name to Prometheus name (["ron_"] prefix, ['.'] → ['_']). *)

val render : unit -> string
(** The full exposition as one text blob. *)

val write : string -> unit
(** [write file] renders and publishes by atomic rename ([file ^ ".tmp"]
    then [Sys.rename]): a concurrent reader sees the old exposition or
    the new one, never a torn one. Raises [Sys_error] when the target
    is not writable. *)

val validate_string : string -> (int, string) result
(** Line-oriented validation: HELP/TYPE syntax, metric and label name
    syntax, every sample declared by a preceding TYPE, histogram
    invariants (le bounds increasing, cumulative counts non-decreasing,
    [+Inf] present, [_count] = [+Inf] bucket, [_sum] present). Returns
    the number of sample lines, or the first error with its line
    number. *)
