(** Observability for the rings-of-neighbors stack: process-wide counters
    and histograms (per-domain shards, deterministic merge), JSONL trace
    events with an injected clock, and a per-query cost ledger.

    The snapshot is byte-identical across [RON_JOBS] settings: counters are
    commutative sums, histogram values are sorted before summarizing, and
    ledger entries sort by caller-assigned [(kind, id)]. It contains no
    wall-clock data. *)

module Json = Json
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
(** Zero all counters, gauges, histograms (raw and bucketed), and ledger
    entries. *)

val snapshot : unit -> Json.t
(** Deterministic summary: [{"schema":"ron-obs/1","counters":{...},
    "gauges":{...},"histograms":{...},"bucketed_histograms":{...},
    "queries":{...}}]. Counters sort by name; gauges include only written,
    non-env ones; each histogram reports a {!Ron_util.Stats.summary} (and
    each bucketed histogram its {!Histogram.Bucketed.summary}); ledger
    entries group by kind with per-field summaries. *)

val write_snapshot : string -> unit
(** Write [snapshot ()] as pretty JSON to a file. *)
