(** Bounded log-bucketed histograms (HDR/DDSketch-style): O(occupied
    buckets) memory regardless of observation count, quantiles within one
    bucket — a factor of [gamma = 1.01/0.99], a 1% relative error — of
    the exact raw-sample quantile under the
    {!Ron_util.Stats.percentile} rank rule; min and max are exact. Finite
    positive values are log-bucketed; zeros and negatives count in a
    dedicated zero bucket with representative [0.0]; non-finite values
    (nan, infinities) are rejected — tallied in {!nonfinite_count}
    without touching buckets, counts, or min/max. Sharded per domain with
    commutative merges, so summaries are bit-identical at every
    [RON_JOBS]. *)

type t

type Registry.metric += Histogram of t

type summary = {
  count : int;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val relative_error : float
(** [0.01]. *)

val gamma : float
(** The bucket ratio [(1 + relative_error) / (1 - relative_error)]. *)

val make : string -> t
(** Declare a histogram, or retrieve the one declared under the same
    name. Raises [Invalid_argument] when the name is declared under
    another kind. *)

val name : t -> string

val observe : t -> float -> unit

val observe_int : t -> int -> unit
(** Allocation-free: the int never becomes a boxed float. *)

val count : t -> int
(** Total accepted (finite) observations across shards. Rejected
    non-finite inputs are not included; see {!nonfinite_count}. *)

val nonfinite_count : t -> int
(** Rejected observations (nan, +/-infinity) across shards. These never
    enter the buckets or min/max, so a stray non-finite sample cannot
    corrupt quantiles. *)

val bucket_count : t -> int
(** Occupied (merged) log buckets — the memory footprint proxy. *)

val buckets : t -> (float * int) array
(** Merged occupied buckets as [(inclusive upper bound, count)] sorted
    ascending; the zero bucket appears first as [(0.0, count)] when
    occupied. Bit-identical at every [RON_JOBS]. Feeds the Prometheus
    cumulative-bucket exposition ({!Ron_obs.Expo}) and the SLO
    fraction-over-limit computation ({!Ron_obs.Slo}). *)

val approx_sum : t -> float
(** Deterministic approximate sum of the accepted observations: counts
    times geometric bucket midpoints (clamped to the observed extrema),
    folded in bucket order — within a factor of [gamma] of the exact
    sum, and independent of sharding (an exact per-shard float
    accumulator would not be). [0.0] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1]; [nan] when empty. [q = 1.0]
    returns the exact recorded maximum, not a bucket representative. *)

val summary : t -> summary
(** count/min/max/p50/p95/p99; min/max are exact, quantiles within one
    bucket. All [nan] except [count] when empty. *)

val reset : t -> unit
(** Drop every observation. Do not race with concurrent observes. *)

val all : unit -> t list
(** Every declared histogram, sorted by name. *)

val to_json : unit -> Json.t
(** [{name: {count, min, max, p50, p95, p99}}] of every non-empty
    histogram, sorted by name: the snapshot's and telemetry's histogram
    section. *)
