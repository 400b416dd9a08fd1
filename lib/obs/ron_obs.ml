(* Top-level faucet for the observability stack: enable/disable the probes
   and render everything recorded so far as one deterministic JSON value.

   Determinism contract (tested): the snapshot contains no wall-clock data
   and every aggregate is computed over deterministically ordered inputs —
   counters are commutative int sums, histogram buffers are sorted before
   summarizing, ledger entries sort by (kind, id) with caller-assigned ids.
   Hence a run at RON_JOBS=4 snapshots byte-identically to RON_JOBS=1. *)

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

let enable () = Probe.on := true
let disable () = Probe.on := false
let enabled () = !Probe.on

let reset () =
  Counter.reset_all ();
  Gauge.reset_all ();
  Histogram.reset_all ();
  Histogram.Bucketed.reset_all ();
  Ledger.reset ()

let summary_json (s : Ron_util.Stats.summary) =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("mean", Json.Float s.mean);
      ("stddev", Json.Float s.stddev);
      ("min", Json.Float s.min);
      ("p50", Json.Float s.p50);
      ("p90", Json.Float s.p90);
      ("p99", Json.Float s.p99);
      ("max", Json.Float s.max);
    ]

let counters_json () =
  Json.Obj
    (List.map (fun c -> (Counter.name c, Json.Int (Counter.value c))) (Counter.all ()))

(* Env gauges (worker counts, per-domain cache occupancy) depend on
   RON_JOBS by nature; the deterministic snapshot carries only the rest. *)
let gauges_json () =
  Json.Obj
    (List.filter_map
       (fun g ->
         if Gauge.written g && not (Gauge.env g) then
           Some (Gauge.name g, Json.Float (Gauge.value g))
         else None)
       (Gauge.all ()))

let bucketed_json () =
  Json.Obj
    (List.filter_map
       (fun h ->
         let s = Histogram.Bucketed.summary h in
         if s.Histogram.Bucketed.count = 0 then None
         else
           Some
             ( Histogram.Bucketed.name h,
               Json.Obj
                 [
                   ("count", Json.Int s.Histogram.Bucketed.count);
                   ("min", Json.Float s.Histogram.Bucketed.min);
                   ("max", Json.Float s.Histogram.Bucketed.max);
                   ("p50", Json.Float s.Histogram.Bucketed.p50);
                   ("p95", Json.Float s.Histogram.Bucketed.p95);
                   ("p99", Json.Float s.Histogram.Bucketed.p99);
                 ] ))
       (Histogram.Bucketed.all ()))

let histograms_json () =
  Json.Obj
    (List.filter_map
       (fun h ->
         let xs = Histogram.values h in
         if Array.length xs = 0 then None
         else Some (Histogram.name h, summary_json (Ron_util.Stats.summarize xs)))
       (Histogram.all ()))

(* One summary per ledger field, over all entries of the same kind. The
   field arrays are built in (kind, id) order and sorted again before
   summarizing so the mean's fold order is fixed. *)
let queries_json () =
  let entries = Ledger.entries () in
  let kinds =
    List.sort_uniq String.compare (List.map (fun (e : Ledger.entry) -> e.kind) entries)
  in
  let field name get group =
    let xs = Array.of_list (List.map (fun e -> float_of_int (get e)) group) in
    Ron_util.Fsort.sort_floats xs;
    (name, summary_json (Ron_util.Stats.summarize xs))
  in
  Json.Obj
    (List.map
       (fun kind ->
         let group =
           List.filter (fun (e : Ledger.entry) -> String.equal e.kind kind) entries
         in
         let header_max =
           List.fold_left
             (fun acc (e : Ledger.entry) -> max acc e.header_bits_max)
             0 group
         in
         ( kind,
           Json.Obj
             [
               ("count", Json.Int (List.length group));
               field "dist_evals" (fun e -> e.Ledger.dist_evals) group;
               field "ball_queries" (fun e -> e.Ledger.ball_queries) group;
               field "ring_lookups" (fun e -> e.Ledger.ring_lookups) group;
               field "ring_members" (fun e -> e.Ledger.ring_members) group;
               field "zoom_steps" (fun e -> e.Ledger.zoom_steps) group;
               field "hops" (fun e -> e.Ledger.hops) group;
               field "header_rewrites" (fun e -> e.Ledger.header_rewrites) group;
               field "table_touches" (fun e -> e.Ledger.table_touches) group;
               ("header_bits_max", Json.Int header_max);
             ] ))
       kinds)

let snapshot () =
  Json.Obj
    [
      ("schema", Json.String "ron-obs/1");
      ("counters", counters_json ());
      ("gauges", gauges_json ());
      ("histograms", histograms_json ());
      ("bucketed_histograms", bucketed_json ());
      ("queries", queries_json ());
    ]

let write_snapshot file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (snapshot ())))
