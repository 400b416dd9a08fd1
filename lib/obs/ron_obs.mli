(** Observability for the rings-of-neighbors stack: process-wide counters
    and histograms (per-domain shards, deterministic merge), JSONL trace
    events with an injected clock, and a per-query cost ledger.

    The snapshot is byte-identical across [RON_JOBS] settings: counters are
    commutative sums, histogram buckets merge by addition and extrema, and
    ledger entries sort by caller-assigned [(kind, id)]. It contains no
    wall-clock data. *)

module Json = Json
module Registry = Registry
module Counter = Counter
module Gauge = Gauge
module Histogram = Histogram
module Ledger = Ledger
module Trace = Trace
module Trace_read = Trace_read
module Probe = Probe
module Profile = Profile
module Telemetry = Telemetry
module Rss = Rss
module Flight = Flight
module Slo = Slo
module Expo = Expo
module Sparkline = Sparkline
module Clock = Clock

val enable : unit -> unit
(** Turn the probes on ([Probe.on := true]). *)

val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero every counter, gauge and histogram of the one {!Registry}, and
    the ledger entries. *)

val snapshot : unit -> Json.t
(** Deterministic summary: [{"schema":"ron-obs/2","counters":{...},
    "gauges":{...},"histograms":{...},"queries":{...}}]. Each section
    sorts by name. Gauges include only written, non-env ones; each
    non-empty histogram reports its {!Histogram.summary} (count, min,
    max, p50, p95, p99); ledger entries group by kind with exact
    per-field {!Ron_util.Stats.summary}s. *)

val write_snapshot : string -> unit
(** Write [snapshot ()] as pretty JSON to a file. *)
