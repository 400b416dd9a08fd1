(** Small summary-statistics toolkit used by the experiment harness. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on an empty array. *)

val stddev : float array -> float
(** Population standard deviation; [nan] on an empty array. *)

val minimum : float array -> float
(** Smallest element; [nan] on an empty array (not [infinity]). *)

val maximum : float array -> float
(** Largest element; [nan] on an empty array (not [neg_infinity]). *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100]: nearest-rank percentile of the
    (internally sorted, input untouched) sample. *)

val percentile_sorted : float array -> float -> float
(** [percentile_sorted xs p] is {!percentile} for a sample that is already
    sorted ascending: no copy, no re-sort. [nan] on an empty array. The
    rank rule (rank = ceil(p/100*n), element at rank-1) is the one the
    report tool and {!Ron_obs.Histogram} share. *)

val median : float array -> float

val of_ints : int array -> float array
(** Convenience conversion for integer samples. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

(** On an empty array, [summarize] yields [count = 0] and [nan] in every
    float field. *)
val summarize : float array -> summary
val pp_summary : Format.formatter -> summary -> unit
