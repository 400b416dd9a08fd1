(* Measurement helpers of the end-to-end benchmark, kept apart from the
   workloads so that the arithmetic the reported numbers rest on is unit
   tested: nearest-rank percentiles that carry their sample count, span
   self time, and the metric catalogue with its name syntax. *)

(* ---------------------------------------------------------- percentiles *)

type percentile = {
  value : int;  (** the sample at the nearest rank *)
  samples : int;  (** size of the sample it was read from *)
  beyond : int;  (** samples ranked above it *)
}

(* Nearest rank [ceil (p * n)], computed from an integer per-mille rank so
   that 0.99 * 1000 lands on rank 990, not 991 through rounding. *)
let percentile sorted ~per_mille =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Benchkit.percentile: empty sample";
  if per_mille < 1 || per_mille > 1000 then
    invalid_arg "Benchkit.percentile: per_mille must be in [1, 1000]";
  let rank = ((per_mille * n) + 999) / 1000 in
  { value = sorted.(rank - 1); samples = n; beyond = n - rank }

(* ---------------------------------------------------------------- spans *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  run : string;  (** one id per workload run *)
  start_ns : int64;
  stop_ns : int64;
}

let duration_ns s = Int64.to_int (Int64.sub s.stop_ns s.start_ns)

(* Length of the union of [intervals], each clipped to [lo, hi). *)
let covered_ns ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Int64.max a lo and b = Int64.min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if Int64.compare a cb <= 0 then (total, Some (ca, Int64.max cb b))
          else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  let total = match last with Some (a, b) -> Int64.add total (Int64.sub b a) | None -> total in
  Int64.to_int total

(* A span's self time: its duration minus the part of its interval that
   its direct children cover. *)
let self_ns spans s =
  let kids =
    List.filter_map
      (fun c -> if c.parent = s.id then Some (c.start_ns, c.stop_ns) else None)
      spans
  in
  duration_ns s - covered_ns ~lo:s.start_ns ~hi:s.stop_ns kids

(* In-memory span recorder. Spans stay in memory until the run writes
   them out; a disabled recorder runs the body and records nothing. *)
type recorder = {
  enabled : bool;
  run_id : string;
  clock : unit -> int64;
  mutable next : int;
  mutable open_ : int list;
  mutable closed : span list;
}

let recorder ~enabled ~run_id ~clock =
  { enabled; run_id; clock; next = 0; open_ = []; closed = [] }

let with_span r name f =
  if not r.enabled then f ()
  else begin
    let id = r.next in
    r.next <- id + 1;
    let parent = match r.open_ with p :: _ -> p | [] -> -1 in
    r.open_ <- id :: r.open_;
    let start_ns = r.clock () in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = r.clock () in
        r.open_ <- List.tl r.open_;
        r.closed <- { id; parent; name; run = r.run_id; start_ns; stop_ns } :: r.closed)
      f
  end

let spans r = List.sort (fun a b -> compare a.id b.id) r.closed

(* Summed self time of every span called [name]. *)
let self_ns_named spans name =
  List.fold_left (fun acc s -> if s.name = name then acc + self_ns spans s else acc) 0 spans

(* -------------------------------------------------------------- catalogue *)

let name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-'

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16 && String.for_all (fun c -> name_char c || c = '/' || c = '%') s

(* End-to-end metrics: every workload reports each, with tracing off. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_ns", "ns");
    ("delivered_frac", "ratio");
    ("stretch_mean", "ratio");
    ("peak_rss_mb", "MB");
  ]

(* Per-layer metrics from the traced run. A layer a workload does not
   touch reads 0 on that workload. Throughput and p99 latency are here, not
   end to end: on a shared 2-vCPU host they moved by up to 29% and 28%
   (interquartile range over median, ten seeds) with the neighbours' load. *)
let per_layer =
  [
    ("bench.qps", "queries/s");
    ("bench.latency_p99_ns", "ns");
    ("graph.sp_metric_s", "s");
    ("metric.indexed_s", "s");
    ("routing.structure_s", "s");
    ("routing.build_s", "s");
    ("labeling.build_s", "s");
    ("smallworld.build_s", "s");
    ("routing.export_s", "s");
    ("labeling.export_s", "s");
    ("smallworld.export_s", "s");
    ("serve.freeze_s", "s");
    ("serve.save_s", "s");
    ("serve.load_s", "s");
    ("serve.view_s", "s");
    ("serve.snapshot_bytes_per_node", "B");
    ("serve.query_ns", "ns");
    ("serve.hops_mean", "count");
    ("serve.minor_words_per_query", "count");
    ("serve.loop_overhead_frac", "ratio");
    ("serve.batches", "count");
    ("util.pool_scaling", "ratio");
    ("obs.overhead_frac", "ratio");
    ("churn.repair_create_s", "s");
    ("churn.repair_events_per_s", "events/s");
    ("churn.leave_ns", "ns");
    ("churn.join_ns", "ns");
    ("churn.updates_per_event", "count");
    ("churn.refills_per_event", "count");
    ("routing.live_route_ns", "ns");
    ("routing.live_minor_words_per_route", "count");
    ("churn.stale_hits_per_route", "count");
    ("churn.detours_per_route", "count");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
  ]
  (* Traced over untraced, minus 1, for each end-to-end metric. *)
  @ List.map (fun (name, _) -> ("trace.overhead." ^ name, "ratio")) end_to_end
