(** The one name registry of counters, gauges and histograms: every
    metric is declared here by name, whatever its kind. {!Counter},
    {!Gauge} and {!Histogram} each add their constructor to {!metric}. *)

type metric = ..

val declare : string -> (unit -> metric) -> metric
(** [declare name fresh]: the metric already declared under [name], or
    [fresh ()] registered under it. The caller checks the kind. *)

val clash : string -> string -> 'a
(** [clash kind name] raises [Invalid_argument]: [name] is declared under
    another kind than [kind]'s. *)

val all : unit -> metric list
(** Every declared metric, sorted by name. *)
