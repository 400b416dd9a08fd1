(* Tests for ron_obs: JSON round-trips, trace sinks, shard-merge
   determinism across domain counts, and the ledger agreeing with the
   routing simulator. *)

module Json = Ron_obs.Json
module Counter = Ron_obs.Counter
module Gauge = Ron_obs.Gauge
module Histogram = Ron_obs.Histogram
module Telemetry = Ron_obs.Telemetry
module Ledger = Ron_obs.Ledger
module Trace = Ron_obs.Trace
module Trace_read = Ron_obs.Trace_read
module Probe = Ron_obs.Probe
module Profile = Ron_obs.Profile
module Scheme = Ron_routing.Scheme

let check_bool msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Every test runs in one process and the obs state is global, so each test
   starts from a clean slate. *)
let fresh () =
  Ron_obs.disable ();
  Ron_obs.reset ();
  Profile.disable ();
  Profile.reset ();
  Telemetry.stop ()

(* ------------------------------------------------------------------ JSON *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("int", Json.Int 42);
        ("neg", Json.Int (-7));
        ("float", Json.Float 1.5);
        ("string", Json.String "line\nbreak \"quoted\" back\\slash \t tab");
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  (match Json.of_string (Json.to_line v) with
  | Ok v' -> check_bool "compact round-trip" (v = v')
  | Error e -> Alcotest.failf "compact parse failed: %s" e);
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> check_bool "pretty round-trip" (v = v')
  | Error e -> Alcotest.failf "pretty parse failed: %s" e)

let test_json_escaping () =
  (* Keys and values with every escape class survive a round-trip — the
     bug class the bench emitter had (unescaped keys) stays fixed. *)
  let nasty = "a\"b\\c\nd\re\tf\bg\012h\001i" in
  let v = Json.Obj [ (nasty, Json.String nasty) ] in
  match Json.of_string (Json.to_line v) with
  | Ok v' -> check_bool "nasty key/value round-trip" (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_nonfinite () =
  check_string "nan is null" "null" (Json.to_line (Json.Float nan));
  check_string "inf is null" "null" (Json.to_line (Json.Float infinity))

let test_json_rejects_garbage () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "{\"a\":1,}";
  bad "[1 2]";
  bad "{\"a\":1} trailing"

(* ----------------------------------------------------------------- trace *)

let test_noop_sink_emits_nothing () =
  fresh ();
  (* Inactive tracing: events vanish and cost nothing observable. *)
  check_bool "inactive" (not (Trace.active ()));
  Trace.event "ignored";
  let sink, lines = Trace.memory_sink () in
  Trace.configure sink;
  Trace.stop ();
  Trace.event "after-stop" ~args:[ ("x", Json.Int 1) ];
  check_int "nothing written" 0 (List.length (lines ()))

let test_memory_sink_captures_events () =
  fresh ();
  let sink, lines = Trace.memory_sink () in
  Trace.configure sink;
  Trace.event "one";
  Profile.enable ();
  Profile.phase "outer" (fun () -> Trace.event "two" ~args:[ ("k", Json.String "v") ]);
  Profile.disable ();
  Trace.stop ();
  let parsed =
    List.map
      (fun line ->
        match Json.of_string line with
        | Ok j -> j
        | Error e -> Alcotest.failf "bad JSONL line %S: %s" line e)
      (lines ())
  in
  check_int "B + E + 2 instants" 4 (List.length parsed);
  List.iter
    (fun j ->
      check_bool "has ts" (Json.member "ts" j <> None);
      check_bool "has name" (Json.member "name" j <> None))
    parsed;
  let phases =
    List.map
      (fun j -> match Json.member "ph" j with Some (Json.String p) -> p | _ -> "?")
      parsed
  in
  Alcotest.(check (list string)) "phases in order" [ "i"; "B"; "i"; "E" ] phases

let test_stop_resets_clock () =
  fresh ();
  (* A stale injected wall clock must not leak into the next configure:
     stop() restores the logical tick along with the null sink. *)
  let sink1, _ = Trace.memory_sink () in
  Trace.configure ~clock:(fun () -> 999_999_999L) sink1;
  Trace.stop ();
  let sink2, lines = Trace.memory_sink () in
  Trace.configure sink2;
  Trace.event "tick";
  Trace.stop ();
  match lines () with
  | [ line ] -> (
    match Json.of_string line with
    | Ok j -> (
      match Json.member "ts" j with
      | Some (Json.Int ts) ->
        check_bool "ts is a logical tick, not the stale injected clock" (ts < 999_999_999)
      | _ -> Alcotest.fail "event has no integer ts")
    | Error e -> Alcotest.failf "bad JSONL line: %s" e)
  | l -> Alcotest.failf "expected 1 line, got %d" (List.length l)

let test_span_unwind_emits_error () =
  fresh ();
  let sink, lines = Trace.memory_sink () in
  Trace.configure sink;
  Profile.enable ();
  (try Profile.phase "boom" (fun () -> failwith "kaput") with Failure _ -> ());
  Profile.disable ();
  Trace.stop ();
  let events =
    match Trace_read.parse_lines (lines ()) with
    | Ok evs -> evs
    | Error e -> Alcotest.failf "parse: %s" e
  in
  check_int "B then E" 2 (List.length events);
  (match List.rev events with
  | last :: _ -> (
    check_bool "unwind event is E" (last.Trace_read.ph = Trace_read.E);
    match List.assoc_opt "error" last.Trace_read.args with
    | Some (Json.String msg) ->
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
        go 0
      in
      check_bool "error carries the exception" (contains msg "kaput")
    | _ -> Alcotest.fail "E event lacks a string error arg")
  | [] -> Alcotest.fail "no events");
  match Trace_read.validate events with
  | Ok n -> check_int "validator accepts the unwind shape" 2 n
  | Error e -> Alcotest.failf "validator rejected span unwind: %s" e

let test_trace_read_parse_line () =
  let bad s =
    match Trace_read.parse_line s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "{}";
  bad "{\"ts\":1,\"dom\":0,\"name\":\"x\"}";
  bad "{\"ts\":\"1\",\"dom\":0,\"ph\":\"B\",\"name\":\"x\"}";
  bad "{\"ts\":1,\"dom\":0,\"ph\":\"Q\",\"name\":\"x\"}";
  bad "{\"ts\":1,\"dom\":0,\"ph\":\"B\",\"name\":7}";
  bad "{\"ts\":1,\"dom\":0,\"ph\":\"B\",\"name\":\"x\",\"args\":3}";
  match Trace_read.parse_line "{\"ts\":1,\"dom\":2,\"ph\":\"i\",\"name\":\"x\",\"args\":{\"k\":1}}" with
  | Ok e ->
    check_int "ts" 1 e.Trace_read.ts;
    check_int "dom" 2 e.Trace_read.dom;
    check_bool "ph" (e.Trace_read.ph = Trace_read.I);
    check_bool "args" (e.Trace_read.args = [ ("k", Json.Int 1) ])
  | Error e -> Alcotest.failf "rejected a valid line: %s" e

let test_validator_structural_rules () =
  let ev ts dom ph name args = { Trace_read.ts; dom; ph; name; args } in
  let reject what evs =
    match Trace_read.validate evs with
    | Ok _ -> Alcotest.failf "validator accepted %s" what
    | Error _ -> ()
  in
  reject "an unclosed span" [ ev 0 0 Trace_read.B "a" [] ];
  reject "E without B" [ ev 0 0 Trace_read.E "a" [] ];
  reject "a mismatched close"
    [ ev 0 0 Trace_read.B "a" []; ev 1 0 Trace_read.E "b" [] ];
  reject "an error arg on B"
    [ ev 0 0 Trace_read.B "a" [ ("error", Json.String "x") ]; ev 1 0 Trace_read.E "a" [] ];
  reject "an error arg on i" [ ev 0 0 Trace_read.I "a" [ ("error", Json.String "x") ] ];
  reject "a non-string error arg"
    [ ev 0 0 Trace_read.B "a" []; ev 1 0 Trace_read.E "a" [ ("error", Json.Int 3) ] ];
  (* Domains balance independently: interleaved B/E across two domains. *)
  match
    Trace_read.validate
      [
        ev 0 0 Trace_read.B "a" [];
        ev 1 1 Trace_read.B "a" [];
        ev 2 0 Trace_read.E "a" [];
        ev 3 1 Trace_read.E "a" [];
      ]
  with
  | Ok n -> check_int "interleaved domains validate" 4 n
  | Error e -> Alcotest.failf "rejected a valid stream: %s" e

(* ---------------------------------------------- shard-merge determinism *)

let workload ~jobs =
  fresh ();
  Ron_obs.enable ();
  let c = Counter.make "test.det.counter" in
  let h = Histogram.make "test.det.hist" in
  Ron_util.Pool.parallel_for ~jobs 500 (fun i ->
      Counter.add c (i mod 7);
      Histogram.observe h (float_of_int (i mod 13) /. 4.0));
  (* Per-query ledger entries with deterministic ids, filled in parallel. *)
  ignore
    (Ron_util.Pool.init ~jobs 64 (fun i ->
         Ledger.with_query ~kind:"det" ~id:i (fun () ->
             for _ = 1 to (i mod 5) + 1 do
               Probe.dist_eval ()
             done)));
  let s = Json.to_string (Ron_obs.snapshot ()) in
  Ron_obs.disable ();
  s

let test_snapshot_deterministic_across_jobs () =
  let s1 = workload ~jobs:1 in
  let s4 = workload ~jobs:4 in
  check_string "RON_JOBS=1 and =4 snapshots byte-identical" s1 s4

(* ------------------------------------------------------------ histogram *)

let test_histogram_growth_and_empty () =
  fresh ();
  let h = Histogram.make "test.hist.growth" in
  check_int "empty count" 0 (Histogram.count h);
  check_bool "empty has no buckets" (Histogram.buckets h = [||]);
  for i = 1 to 100 do
    Histogram.observe_int h (i mod 10)
  done;
  check_int "100 observations" 100 (Histogram.count h);
  let s = Histogram.summary h in
  check_bool "exact min and max" (s.Histogram.min = 0.0 && s.Histogram.max = 9.0);
  let bs = Histogram.buckets h in
  check_int "bucket counts add up" 100 (Array.fold_left (fun a (_, c) -> a + c) 0 bs);
  let sorted = ref true in
  for i = 1 to Array.length bs - 1 do
    if fst bs.(i - 1) >= fst bs.(i) then sorted := false
  done;
  check_bool "buckets ascending" !sorted;
  Histogram.reset h;
  check_int "reset drops everything" 0 (Histogram.count h);
  check_bool "reset drops the buckets" (Histogram.buckets h = [||])

let hist_snapshot ~jobs =
  let h = Histogram.make "test.hist.reobserve" in
  Histogram.reset h;
  Ron_util.Pool.parallel_for ~jobs 500 (fun i ->
      Histogram.observe h (float_of_int (i mod 13) /. 8.0));
  (Histogram.summary h, Histogram.buckets h)

let test_histogram_reset_reobserve_across_jobs () =
  fresh ();
  (* reset + re-observe: the merged buckets depend only on the observed
     multiset, so jobs=1 and jobs=4 are bit-identical. *)
  let s1, b1 = hist_snapshot ~jobs:1 in
  let s4, b4 = hist_snapshot ~jobs:4 in
  check_int "same count" s1.Histogram.count s4.Histogram.count;
  check_bool "summaries and buckets bit-identical at jobs 1 and 4" (s1 = s4 && b1 = b4)

(* A name names one metric: a second kind under it raises, and the first
   declaration stays. *)
let test_registry_one_kind_per_name () =
  fresh ();
  let c = Counter.make "test.registry.clash" in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "a gauge under a counter's name raises"
    (raises (fun () -> Gauge.make "test.registry.clash"));
  check_bool "a histogram under a counter's name raises"
    (raises (fun () -> Histogram.make "test.registry.clash"));
  ignore (Histogram.make "test.registry.hist");
  check_bool "a counter under a histogram's name raises"
    (raises (fun () -> Counter.make "test.registry.hist"));
  check_bool "the first declaration stays" (Counter.make "test.registry.clash" == c)

(* -------------------------------------------------------------- profile *)

let test_profile_off_is_noop () =
  fresh ();
  check_bool "off by default" (not (Profile.enabled ()));
  check_int "phase returns its result" 42 (Profile.phase "nope" (fun () -> 41 + 1));
  check_int "nothing recorded" 0 (List.length (Profile.stats ()))

let test_profile_nesting_and_self_time () =
  fresh ();
  (* A +1-per-read clock makes the arithmetic exact: each phase consumes
     one tick on entry and one on exit, so  a { b {} b {} }  gives
     a: total 5 (ticks 1..6), children 2, self 3; b: count 2, total 2. *)
  let t = ref 0L in
  let clock () =
    t := Int64.add !t 1L;
    !t
  in
  Profile.enable ~clock ();
  Profile.phase "a" (fun () ->
      Profile.phase "b" (fun () -> ());
      Profile.phase "b" (fun () -> ()));
  Profile.disable ();
  match Profile.stats () with
  | [ a; ab ] ->
    check_string "root path" "a" a.Profile.path;
    check_string "nested path" "a/b" ab.Profile.path;
    check_int "a count" 1 a.Profile.count;
    check_int "b count" 2 ab.Profile.count;
    check_bool "a total = 5 ticks" (a.Profile.total_ns = 5L);
    check_bool "a self = total - children" (a.Profile.self_ns = 3L);
    check_bool "b total = 2 ticks" (ab.Profile.total_ns = 2L);
    check_bool "b self = b total" (ab.Profile.self_ns = 2L)
  | l -> Alcotest.failf "expected 2 phase rows, got %d" (List.length l)

let test_profile_exception_unwind () =
  fresh ();
  Profile.enable ();
  (try Profile.phase "outer" (fun () -> Profile.phase "inner" (fun () -> failwith "x"))
   with Failure _ -> ());
  (* The stack unwound: a later phase is a fresh root, not "outer/...". *)
  Profile.phase "after" (fun () -> ());
  Profile.disable ();
  let paths = List.map (fun (s : Profile.stat) -> s.Profile.path) (Profile.stats ()) in
  Alcotest.(check (list string))
    "both raising phases recorded and the stack unwound"
    [ "after"; "outer"; "outer/inner" ] paths

let test_profile_disable_resets_clock () =
  fresh ();
  Profile.enable ~clock:(fun () -> 1_000_000_000L) ();
  Profile.phase "w" (fun () -> ());
  Profile.disable ();
  Profile.reset ();
  (* Re-enable without a clock: must be back on logical ticks, not the
     stale constant clock (the Trace.stop leak, applied here). *)
  Profile.enable ();
  Profile.phase "w" (fun () -> ());
  Profile.disable ();
  match Profile.stats () with
  | [ s ] -> check_bool "total is one logical tick" (s.Profile.total_ns = 1L)
  | l -> Alcotest.failf "expected 1 phase row, got %d" (List.length l)

let profile_shape ~jobs =
  Profile.reset ();
  Profile.enable ();
  Profile.phase "par" (fun () ->
      Ron_util.Pool.parallel_for ~jobs 64 (fun i -> Profile.phase "work" (fun () -> ignore (Sys.opaque_identity i))));
  Profile.disable ();
  Profile.stats ()

let test_profile_merge_across_domains () =
  fresh ();
  (* Phases on pool workers land in per-domain shards; the merge must see
     all 64 of them at any job count, and report sorted by path. A phase
     on a worker is its own root, so only paths/counts are compared — not
     which domain they nested under. *)
  let work_count stats =
    List.fold_left
      (fun acc (s : Profile.stat) ->
        let p = s.Profile.path in
        let l = String.length p in
        if l >= 4 && String.sub p (l - 4) 4 = "work" then acc + s.Profile.count else acc)
      0 stats
  in
  let s1 = profile_shape ~jobs:1 in
  let s4 = profile_shape ~jobs:4 in
  check_int "64 work phases merged at jobs=1" 64 (work_count s1);
  check_int "64 work phases merged at jobs=4" 64 (work_count s4);
  let paths = List.map (fun (s : Profile.stat) -> s.Profile.path) s4 in
  check_bool "report sorted by path" (List.sort String.compare paths = paths);
  let shape st = List.map (fun (s : Profile.stat) -> (s.Profile.path, s.Profile.count)) st in
  let s4' = profile_shape ~jobs:4 in
  check_bool "jobs=4 shape reproducible run-to-run" (shape s4 = shape s4')

let test_profile_mirrors_trace_span () =
  fresh ();
  let sink, lines = Trace.memory_sink () in
  Trace.configure sink;
  Profile.enable ();
  Profile.phase "mirrored" (fun () -> ());
  Profile.disable ();
  Trace.stop ();
  match Trace_read.parse_lines (lines ()) with
  | Ok [ b; e ] ->
    check_bool "B span" (b.Trace_read.ph = Trace_read.B && b.Trace_read.name = "mirrored");
    check_bool "E span" (e.Trace_read.ph = Trace_read.E && e.Trace_read.name = "mirrored")
  | Ok l -> Alcotest.failf "expected B+E, got %d events" (List.length l)
  | Error e -> Alcotest.failf "parse: %s" e

(* ------------------------------------------- simulator <-> obs agreement *)

(* A hand-rolled route along the line 0 -> 4, unit cost per hop. *)
let line_route () =
  let r = Scheme.live () in
  Scheme.route r ~header_bits:3 ~max_hops:10 ~src:0 ~dst:4 0 (fun u s ->
      if u = r.Scheme.target then Scheme.deliver
      else Scheme.forward_to r (u + 1) s 1.0)

let test_simulate_hops_match_trace_and_ledger () =
  fresh ();
  let sink, lines = Trace.memory_sink () in
  Trace.configure sink;
  Ron_obs.enable ();
  let (r, e) = Ledger.with_query ~kind:"route" ~id:0 line_route in
  Ron_obs.disable ();
  Trace.stop ();
  check_bool "delivered" (r.Scheme.outcome = Scheme.Delivered);
  check_int "ledger hops = result hops" r.Scheme.hops e.Ledger.hops;
  check_int "ledger header bits" r.Scheme.max_header_bits e.Ledger.header_bits_max;
  let events =
    List.filter_map
      (fun line ->
        match Json.of_string line with
        | Ok j -> Some j
        | Error e -> Alcotest.failf "bad line: %s" e)
      (lines ())
  in
  let hops =
    List.filter (fun j -> Json.member "name" j = Some (Json.String "route.hop")) events
  in
  check_int "one route.hop event per hop" r.Scheme.hops (List.length hops);
  (* The from/to chain of the hop events is exactly the result path. *)
  let edge j field =
    match Json.member "args" j with
    | Some args -> (
      match Json.member field args with
      | Some (Json.Int v) -> v
      | _ -> Alcotest.failf "missing %s" field)
    | None -> Alcotest.fail "missing args"
  in
  let traced = List.concat_map (fun j -> [ edge j "from"; edge j "to" ]) hops in
  let rec path_edges = function
    | a :: (b :: _ as rest) -> a :: b :: path_edges rest
    | _ -> []
  in
  Alcotest.(check (list int)) "hop events follow the path" (path_edges r.Scheme.path) traced;
  match List.rev events with
  | last :: _ ->
    check_bool "final event is route.done"
      (Json.member "name" last = Some (Json.String "route.done"))
  | [] -> Alcotest.fail "no events"

let test_probe_off_records_nothing () =
  fresh ();
  (* Probes off: the instrumented route loop leaves no footprint. *)
  ignore (line_route ());
  let counters =
    match Ron_obs.snapshot () with
    | Json.Obj fields -> (
      match List.assoc "counters" fields with
      | Json.Obj cs -> cs
      | _ -> Alcotest.fail "counters not an object")
    | _ -> Alcotest.fail "snapshot not an object"
  in
  List.iter
    (fun (name, v) -> check_bool (name ^ " stays 0") (v = Json.Int 0))
    counters

(* ----------------------------------------------------------------- gauge *)

let test_gauge_basics () =
  fresh ();
  let g = Gauge.make "test.gauge.basic" in
  check_bool "same name yields the same gauge" (Gauge.make "test.gauge.basic" == g);
  check_bool "unwritten" (not (Gauge.written g));
  check_bool "value 0 when unwritten" (Gauge.value g = 0.0);
  Gauge.set g 3.0;
  Gauge.set g 7.0;
  check_bool "last write wins" (Gauge.value g = 7.0);
  Gauge.add g 2.0;
  check_bool "add adjusts in place" (Gauge.value g = 9.0);
  Gauge.set_int g 4;
  check_bool "set_int" (Gauge.value g = 4.0);
  check_bool "written after a set" (Gauge.written g);
  Gauge.reset g;
  check_bool "reset unwrites" (not (Gauge.written g));
  check_bool "reset zeroes the reading" (Gauge.value g = 0.0)

let test_gauge_merge_sums_domains () =
  fresh ();
  (* Two domains, one item each: both shards are written, and the merged
     reading is their sum (the per-domain-cache-occupancy use case). *)
  let g = Gauge.make "test.gauge.merge" in
  Ron_util.Pool.parallel_for ~jobs:2 2 (fun _ -> Gauge.set g 1.0);
  check_bool "merged value sums the shards" (Gauge.value g = 2.0);
  check_bool "max over shards" (Gauge.max_value g = 1.0)

let test_gauge_env_excluded_from_snapshot () =
  fresh ();
  let vis = Gauge.make "test.gauge.visible" in
  let env = Gauge.make ~env:true "test.gauge.envonly" in
  check_bool "env flag recorded" (Gauge.env env && not (Gauge.env vis));
  Gauge.set vis 5.0;
  Gauge.set env 5.0;
  let gauges =
    match Ron_obs.snapshot () with
    | Json.Obj fields -> (
      match List.assoc "gauges" fields with
      | Json.Obj gs -> gs
      | _ -> Alcotest.fail "gauges not an object")
    | _ -> Alcotest.fail "snapshot not an object"
  in
  check_bool "written non-env gauge surfaces"
    (List.assoc_opt "test.gauge.visible" gauges = Some (Json.Float 5.0));
  check_bool "env gauge is excluded from the deterministic snapshot"
    (List.assoc_opt "test.gauge.envonly" gauges = None)

(* ---------------------------------------------------- bucketed histogram *)

let test_bucketed_empty_zero_and_registry () =
  fresh ();
  let h = Histogram.make "test.bucketed.basic" in
  check_bool "same name yields the same histogram"
    (Histogram.make "test.bucketed.basic" == h);
  check_int "empty count" 0 (Histogram.count h);
  check_bool "empty quantile is nan" (Float.is_nan (Histogram.quantile h 0.5));
  let s = Histogram.summary h in
  check_bool "empty summary is nan except count"
    (s.Histogram.count = 0 && Float.is_nan s.Histogram.min && Float.is_nan s.Histogram.p99);
  (* Non-positive observations land in the zero bucket: counted, bounded
     memory, quantile 0. Non-finite inputs are rejected into a separate
     tally and must not shift counts, ranks, or min/max. *)
  Histogram.observe h 0.0;
  Histogram.observe h (-3.5);
  Histogram.observe h nan;
  Histogram.observe h infinity;
  Histogram.observe h neg_infinity;
  check_int "zero-bucket observations counted" 2 (Histogram.count h);
  check_int "non-finite observations tallied apart" 3 (Histogram.nonfinite_count h);
  check_int "zero bucket occupies no log bucket" 0 (Histogram.bucket_count h);
  check_bool "all-zero quantile" (Histogram.quantile h 0.99 = 0.0);
  let s = Histogram.summary h in
  check_bool "non-finite inputs do not corrupt min/max"
    (s.Histogram.min = 0.0 && s.Histogram.max = 0.0);
  Histogram.reset h;
  check_int "reset drops everything" 0 (Histogram.count h);
  check_int "reset drops the non-finite tally" 0 (Histogram.nonfinite_count h)

let test_bucketed_bounded_memory () =
  fresh ();
  (* 100k observations over 6 decades: the footprint stays O(buckets),
     bounded by log-range / log-gamma, not by the observation count. *)
  let h = Histogram.make "test.bucketed.memory" in
  let rng = Ron_util.Rng.create 42 in
  for _ = 1 to 100_000 do
    Histogram.observe h (exp (Ron_util.Rng.float rng 13.8))
  done;
  check_int "100k observations" 100_000 (Histogram.count h);
  let bound = int_of_float (13.8 /. log (Histogram.gamma)) + 2 in
  check_bool
    (Printf.sprintf "buckets %d <= log-range bound %d" (Histogram.bucket_count h) bound)
    (Histogram.bucket_count h <= bound)

let prop_bucketed_quantiles_within_one_bucket =
  QCheck.Test.make ~name:"bucketed p50/p95/p99 within one bucket of exact" ~count:60
    QCheck.(pair (int_range 1 400) (int_range 0 1_000_000))
    (fun (n, seed) ->
      fresh ();
      let h = Histogram.make "test.bucketed.prop" in
      let rng = Ron_util.Rng.create seed in
      (* Spread over ~7 decades so many distinct buckets are exercised. *)
      let xs = Array.init n (fun _ -> exp (Ron_util.Rng.float rng 16.0 -. 8.0)) in
      Array.iter (Histogram.observe h) xs;
      let s = Histogram.summary h in
      let g = Histogram.gamma in
      let within q est =
        let exact = Ron_util.Stats.percentile xs (q *. 100.0) in
        (* Same nearest-rank rule on both sides, so the estimate is the
           representative of the bucket holding the exact rank element:
           off by at most one bucket width. *)
        est >= (exact /. g) *. (1.0 -. 1e-9) && est <= exact *. g *. (1.0 +. 1e-9)
      in
      s.Histogram.count = n
      && s.Histogram.min = Ron_util.Stats.minimum xs
      && s.Histogram.max = Ron_util.Stats.maximum xs
      && within 0.50 s.Histogram.p50
      && within 0.95 s.Histogram.p95
      && within 0.99 s.Histogram.p99)

let prop_bucketed_q1_is_exact_max =
  QCheck.Test.make ~name:"bucketed quantile at q=1.0 is the exact recorded max"
    ~count:100
    QCheck.(pair (int_range 1 300) (int_range 0 1_000_000))
    (fun (n, seed) ->
      fresh ();
      let h = Histogram.make "test.bucketed.qmax" in
      let rng = Ron_util.Rng.create seed in
      let xs = Array.init n (fun _ -> exp (Ron_util.Rng.float rng 16.0 -. 8.0)) in
      Array.iter (Histogram.observe h) xs;
      (* Bit-for-bit, not within-a-bucket: q=1.0 must bypass the bucket
         midpoint estimate. *)
      Histogram.quantile h 1.0 = Ron_util.Stats.maximum xs)

let prop_bucketed_nonfinite_does_not_corrupt =
  QCheck.Test.make
    ~name:"bucketed summary ignores interleaved nan/inf observations" ~count:100
    QCheck.(triple (int_range 1 200) (int_range 0 1_000_000) (int_range 1 50))
    (fun (n, seed, bad) ->
      fresh ();
      let rng = Ron_util.Rng.create seed in
      let xs = Array.init n (fun _ -> exp (Ron_util.Rng.float rng 16.0 -. 8.0)) in
      let clean = Histogram.make "test.bucketed.clean" in
      Array.iter (Histogram.observe clean) xs;
      let dirty = Histogram.make "test.bucketed.dirty" in
      let junk = [| nan; infinity; neg_infinity |] in
      Array.iteri
        (fun i x ->
          Histogram.observe dirty junk.(i mod 3);
          Histogram.observe dirty x)
        xs;
      for i = 0 to bad - 1 do
        Histogram.observe dirty junk.(i mod 3)
      done;
      (* The dirty histogram saw every finite value plus interleaved junk:
         identical summary, junk visible only in the separate tally. *)
      Histogram.summary dirty = Histogram.summary clean
      && Histogram.count dirty = n
      && Histogram.nonfinite_count dirty = n + bad
      && Histogram.quantile dirty 1.0 = Histogram.quantile clean 1.0)

let bucketed_summary_of_run ~jobs =
  let h = Histogram.make "test.bucketed.jobs" in
  Histogram.reset h;
  Ron_util.Pool.parallel_for ~jobs 500 (fun i ->
      Histogram.observe h (float_of_int ((i mod 37) + 1) *. 0.81));
  (Histogram.summary h, Histogram.bucket_count h)

let test_bucketed_merge_across_jobs () =
  fresh ();
  (* The shard merge is a commutative sum/extrema, so the summary depends
     only on the observed multiset — identical at any job count. *)
  let s1, b1 = bucketed_summary_of_run ~jobs:1 in
  let s4, b4 = bucketed_summary_of_run ~jobs:4 in
  check_bool "summaries bit-identical at jobs 1 and 4" (s1 = s4);
  check_int "bucket count identical" b1 b4

(* ------------------------------------------------------------- telemetry *)

let telemetry_lines ~jobs ~process_stats =
  fresh ();
  Ron_obs.enable ();
  let sink, lines = Trace.memory_sink () in
  Telemetry.start ~process_stats sink;
  let c = Counter.make "test.tel.counter" in
  let b = Histogram.make "test.tel.hist" in
  let g = Gauge.make "test.tel.gauge" in
  for round = 1 to 5 do
    Ron_util.Pool.parallel_for ~jobs 200 (fun i ->
        Counter.add c ((i mod 5) + 1);
        Histogram.observe b (float_of_int ((i mod 17) + 1)));
    Gauge.set_int g round;
    Telemetry.tick ()
  done;
  Telemetry.stop ();
  Ron_obs.disable ();
  lines ()

let test_telemetry_series_bit_identical_across_jobs () =
  (* The headline contract: default logical clock + process_stats:false
     gives a JSONL series that is byte-identical at RON_JOBS=1 and 4 —
     counters merge commutatively, sampling is chunk-free, and worker
     ticks never touch the clock. *)
  let l1 = telemetry_lines ~jobs:1 ~process_stats:false in
  let l4 = telemetry_lines ~jobs:4 ~process_stats:false in
  check_int "baseline + 5 ticks + stop" 7 (List.length l1);
  Alcotest.(check (list string)) "series bit-identical at jobs 1 and 4" l1 l4

let test_telemetry_in_chunk_tick_is_noop () =
  fresh ();
  let sink, _ = Trace.memory_sink () in
  Telemetry.start ~process_stats:false sink;
  check_int "baseline emitted by start" 1 (Telemetry.snapshots_emitted ());
  (* Ticks inside a pool chunk never sample — including the whole body of
     a top-level jobs=1 run, so the answer matches any other job count. *)
  Ron_util.Pool.parallel_for ~jobs:1 50 (fun _ -> Telemetry.tick ());
  check_int "in-chunk ticks are no-ops" 1 (Telemetry.snapshots_emitted ());
  Ron_util.Pool.parallel_for ~jobs:4 50 (fun _ -> Telemetry.tick ());
  check_int "worker ticks are no-ops" 1 (Telemetry.snapshots_emitted ());
  Telemetry.tick ();
  check_int "a chunk-free tick samples" 2 (Telemetry.snapshots_emitted ());
  Telemetry.stop ()

let test_telemetry_start_contract () =
  fresh ();
  let sink, _ = Trace.memory_sink () in
  Telemetry.start sink;
  check_bool "active after start" !Telemetry.active;
  (match Telemetry.start sink with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double start accepted");
  Telemetry.stop ();
  Telemetry.stop ();
  check_bool "stop is idempotent and deactivates" (not !Telemetry.active);
  let sink2, _ = Trace.memory_sink () in
  (match Telemetry.start ~interval:0L sink2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "interval < 1 accepted");
  (* Counter deltas are measured from start: a counter bumped before
     start must not leak into the first post-start delta. *)
  let c = Counter.make "test.tel.prestart" in
  Counter.add c 5;
  let sink3, lines3 = Trace.memory_sink () in
  Telemetry.start ~process_stats:false sink3;
  Telemetry.tick ();
  Telemetry.stop ();
  List.iter
    (fun line ->
      match Trace_read.parse_snapshot_line line with
      | Ok s ->
        check_bool "pre-start counts never appear as a delta"
          (List.assoc_opt "test.tel.prestart" s.Trace_read.counters = None)
      | Error e -> Alcotest.failf "bad snapshot line: %s" e)
    (lines3 ())

let test_telemetry_interval_throttles () =
  fresh ();
  let sink, _ = Trace.memory_sink () in
  Telemetry.start ~process_stats:false ~interval:10L sink;
  (* Logical clock: one tick per read; 30 reads / interval 10 = 3 samples
     past the baseline. *)
  for _ = 1 to 30 do
    Telemetry.tick ()
  done;
  check_int "interval thins the tick stream" 4 (Telemetry.snapshots_emitted ());
  Telemetry.stop ()

(* Trace, Profile and Telemetry share one source, and the last release
   restores the logical tick: Profile disabled before Telemetry.stop (the
   CLI's order) leaves the injected clock to the sampler, so the final
   sample's ts does not go backwards. *)
let test_shared_clock_outlives_early_release () =
  fresh ();
  let t = ref 1_000_000L in
  let clock () =
    t := Int64.add !t 1L;
    !t
  in
  let sink, lines = Trace.memory_sink () in
  Telemetry.start ~clock ~process_stats:false sink;
  Profile.enable ~clock ();
  Profile.phase "p" (fun () -> ());
  Profile.disable ();
  Telemetry.stop ();
  match Trace_read.parse_snapshot_lines (lines ()) with
  | Error e -> Alcotest.failf "bad sample: %s" e
  | Ok snaps -> (
    check_bool "every sample on the injected clock"
      (List.for_all (fun (s : Trace_read.snapshot) -> s.Trace_read.sts > 1_000_000) snaps);
    match Trace_read.validate_snapshots snaps with
    | Ok n -> check_int "baseline + final sample" 2 n
    | Error e -> Alcotest.failf "series rejected: %s" e)

let test_telemetry_series_parses_and_validates () =
  fresh ();
  let lines = telemetry_lines ~jobs:2 ~process_stats:true in
  match Trace_read.parse_snapshot_lines lines with
  | Error e -> Alcotest.failf "emitted series does not parse: %s" e
  | Ok snaps -> (
    match Trace_read.validate_snapshots snaps with
    | Error e -> Alcotest.failf "emitted series does not validate: %s" e
    | Ok n ->
      check_int "every line validates" (List.length lines) n;
      let with_gc =
        List.filter (fun (s : Trace_read.snapshot) -> s.Trace_read.gc <> None) snaps
      in
      check_int "process_stats:true carries gc on every sample" n
        (List.length with_gc))

(* ---------------------------------------------------- snapshot validator *)

let test_snapshot_line_parser () =
  let bad s =
    match Trace_read.parse_snapshot_line s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "{}";
  bad "{\"kind\":\"event\",\"ts\":1,\"seq\":0,\"counters\":{},\"gauges\":{},\"hists\":{}}";
  bad "{\"kind\":\"sample\",\"seq\":0,\"counters\":{},\"gauges\":{},\"hists\":{}}";
  bad "{\"kind\":\"sample\",\"ts\":1,\"seq\":\"0\",\"counters\":{},\"gauges\":{},\"hists\":{}}";
  bad "{\"kind\":\"sample\",\"ts\":1,\"seq\":0,\"counters\":3,\"gauges\":{},\"hists\":{}}";
  match
    Trace_read.parse_snapshot_line
      "{\"kind\":\"sample\",\"ts\":7,\"seq\":0,\"counters\":{\"c\":2},\"gauges\":{\"g\":1.5},\"hists\":{},\"rss_kb\":12}"
  with
  | Ok s ->
    check_int "ts" 7 s.Trace_read.sts;
    check_int "seq" 0 s.Trace_read.seq;
    check_bool "counters" (s.Trace_read.counters = [ ("c", Json.Int 2) ]);
    check_bool "rss" (s.Trace_read.rss_kb = Some 12)
  | Error e -> Alcotest.failf "rejected a valid line: %s" e

let test_snapshot_validator_rules () =
  let parse s =
    match Trace_read.parse_snapshot_line s with
    | Ok snap -> snap
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  let sample ?(extra = "") ts seq =
    parse
      (Printf.sprintf
         "{\"kind\":\"sample\",\"ts\":%d,\"seq\":%d,\"counters\":{},\"gauges\":{},\"hists\":{}%s}"
         ts seq extra)
  in
  let reject what snaps =
    match Trace_read.validate_snapshots snaps with
    | Ok _ -> Alcotest.failf "validator accepted %s" what
    | Error _ -> ()
  in
  reject "a seq gap" [ sample 0 0; sample 1 2 ];
  reject "a series not starting at seq 0" [ sample 0 1 ];
  reject "time going backwards" [ sample 5 0; sample 4 1 ];
  reject "a float counter delta"
    [ parse "{\"kind\":\"sample\",\"ts\":0,\"seq\":0,\"counters\":{\"c\":1.5},\"gauges\":{},\"hists\":{}}" ];
  reject "a non-numeric gauge"
    [ parse "{\"kind\":\"sample\",\"ts\":0,\"seq\":0,\"counters\":{},\"gauges\":{\"g\":\"x\"},\"hists\":{}}" ];
  reject "a histogram summary without count"
    [ parse
        "{\"kind\":\"sample\",\"ts\":0,\"seq\":0,\"counters\":{},\"gauges\":{},\"hists\":{\"h\":{\"min\":1,\"max\":2,\"p50\":1,\"p95\":2,\"p99\":2}}}" ];
  reject "an empty histogram summary in a sample"
    [ parse
        "{\"kind\":\"sample\",\"ts\":0,\"seq\":0,\"counters\":{},\"gauges\":{},\"hists\":{\"h\":{\"count\":0,\"min\":1,\"max\":2,\"p50\":1,\"p95\":2,\"p99\":2}}}" ];
  reject "negative rss" [ sample ~extra:",\"rss_kb\":-4" 0 0 ];
  (* Equal timestamps are fine (a forced sample right after a tick), and
     ts non-decreasing across the whole series. *)
  match Trace_read.validate_snapshots [ sample 3 0; sample 3 1; sample 9 2 ] with
  | Ok n -> check_int "well-formed series validates" 3 n
  | Error e -> Alcotest.failf "rejected a valid series: %s" e

(* ---------------------------------------------------------------- flight *)

module Flight = Ron_obs.Flight
module Slo = Ron_obs.Slo
module Expo = Ron_obs.Expo
module Sparkline = Ron_obs.Sparkline

let rec_lat fr ~qid ~lat =
  Flight.record fr ~qid ~scheme:1 ~kind:0 ~src:0 ~dst:1 ~outcome:0 ~hops:2 ~lat
    ~trace:[||] ~trace_len:(-1)

let test_flight_topk_tie_order () =
  (* Ties rank by lower qid; the newcomer evicts the end of the ranking,
     never the middle. *)
  let fr = Flight.create ~window:100 ~per_window:3 ~retain:2 ~trace_every:0 () in
  List.iter
    (fun (qid, lat) -> rec_lat fr ~qid ~lat)
    [ (5, 10); (1, 10); (3, 10); (2, 10); (4, 20) ];
  (match Flight.dump fr with
  | [ (0, es) ] ->
    check_bool "ranked (lat desc, qid asc)"
      (List.map (fun (x : Flight.exemplar) -> (x.Flight.x_qid, x.Flight.x_lat)) es
      = [ (4, 20); (1, 10); (2, 10) ])
  | d -> Alcotest.failf "expected one window, got %d" (List.length d));
  check_int "recorded counts every call" 5 (Flight.recorded fr)

let test_flight_retention () =
  (* retain=2: after touching windows 0..3 only the last two survive, and
     a recycled slot never leaks an older window's entries. *)
  let fr = Flight.create ~window:100 ~per_window:2 ~retain:2 ~trace_every:0 () in
  List.iter
    (fun qid -> rec_lat fr ~qid ~lat:(1000 - qid))
    [ 10; 150; 250; 310; 305 ];
  match Flight.dump fr with
  | [ (2, e2); (3, e3) ] ->
    check_bool "window 2" (List.map (fun (x : Flight.exemplar) -> x.Flight.x_qid) e2 = [ 250 ]);
    check_bool "window 3 ranked" (List.map (fun (x : Flight.exemplar) -> x.Flight.x_qid) e3 = [ 305; 310 ])
  | d ->
    Alcotest.failf "expected windows [2;3], got [%s]"
      (String.concat ";" (List.map (fun (w, _) -> string_of_int w) d))

let test_flight_trace_sampling () =
  (* want_trace is a pure hash of the qid, and a recorded trace is copied
     (capped) into the exemplar. *)
  let fr = Flight.create ~window:64 ~per_window:4 ~retain:2 ~trace_every:2 ~trace_cap:3 () in
  let qid =
    let rec find q = if Flight.want_trace fr q then q else find (q + 1) in
    find 0
  in
  Flight.record fr ~qid ~scheme:1 ~kind:0 ~src:0 ~dst:1 ~outcome:0 ~hops:5 ~lat:9
    ~trace:[| 7; 8; 9; 10; 11 |] ~trace_len:5;
  match List.concat_map snd (Flight.dump fr) with
  | [ x ] -> (
    match x.Flight.x_trace with
    | Some tr -> check_bool "trace capped at trace_cap" (tr = [| 7; 8; 9 |])
    | None -> Alcotest.fail "trace dropped")
  | _ -> Alcotest.fail "expected exactly one exemplar"

(* ------------------------------------------------------------------- slo *)

let test_slo_parse () =
  let ok spec canon =
    match Slo.parse spec with
    | Ok objs -> check_string (spec ^ " canonical") canon (Slo.describe objs)
    | Error e -> Alcotest.failf "parse %S: %s" spec e
  in
  let bad spec =
    match Slo.parse spec with
    | Ok _ -> Alcotest.failf "parse %S: accepted a malformed spec" spec
    | Error _ -> ()
  in
  ok "p99<=2us,delivery>=0.999" "p99<=2000,delivery>=0.999";
  ok "p50<=10ms" "p50<=1e+07";
  ok " p999<=1s , delivery>=0.5 " "p999<=1e+09,delivery>=0.5";
  ok "p95<=4096" "p95<=4096";
  bad "";
  bad ",";
  bad "p99<=";
  bad "p0<=5";
  bad "p99<5";
  bad "q99<=5";
  bad "p99<=-3us";
  bad "delivery>=1.5";
  bad "delivery>=0";
  bad "delivery<=0.9";
  bad "p99<=2us,delivery>=nope"

let test_slo_window_arithmetic () =
  (* Hand-computed windows of 10. Window 0: one of ten above the p90
     limit — exactly the budget, burn 1.0; two undelivered against
     delivery>=0.8 — also exactly the budget. Window 1: five above —
     5x the budget and a violation. Burns are integer-count ratios, but
     the budget goes through [1.0 -. q], so allow one ulp of slack. *)
  let near msg expect got =
    check_bool
      (Printf.sprintf "%s (expected %g, got %.17g)" msg expect got)
      (Float.abs (got -. expect) <= 1e-9 *. expect)
  in
  let objs =
    match Slo.parse "p90<=100,delivery>=0.8" with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let s = Slo.create ~window:10 ~name:"slo.test.arith" objs in
  for i = 0 to 9 do
    Slo.observe s ~lat:(if i = 0 then 200 else 50) ~ok:(i > 1)
  done;
  for i = 0 to 9 do
    Slo.observe s ~lat:(if i < 5 then 200 else 50) ~ok:true
  done;
  Slo.finish s;
  check_int "two closed windows" 2 (Slo.windows_closed s);
  (match Slo.windows s with
  | [ w0; w1 ] ->
    check_int "w0 count" 10 w0.Slo.w_count;
    check_int "w0 delivered" 8 w0.Slo.w_ok;
    let lat0 = w0.Slo.w_results.(0) and del0 = w0.Slo.w_results.(1) in
    check_bool "w0 p90 near 50 (bucket midpoint)"
      (Float.abs (lat0.Slo.value -. 50.0) <= 2.0);
    near "w0 latency burn" 1.0 lat0.Slo.burn;
    check_bool "w0 latency not violated" (not lat0.Slo.violated);
    near "w0 delivery burn" 1.0 del0.Slo.burn;
    check_bool "w0 delivery not violated (0.8 >= 0.8)" (not del0.Slo.violated);
    let lat1 = w1.Slo.w_results.(0) in
    check_bool "w1 p90 near 200" (Float.abs (lat1.Slo.value -. 200.0) <= 5.0);
    near "w1 latency burn" 5.0 lat1.Slo.burn;
    check_bool "w1 violated" lat1.Slo.violated
  | ws -> Alcotest.failf "expected 2 windows, got %d" (List.length ws));
  check_int "one violated window" 1 (Slo.violated_windows s);
  near "max burn" 5.0 (Slo.max_burn s);
  check_bool "overall verdict false" (not (Slo.ok s))

let test_slo_partial_window_and_empty () =
  let objs = match Slo.parse "p50<=10" with Ok o -> o | Error e -> Alcotest.fail e in
  let s = Slo.create ~window:100 ~name:"slo.test.partial" objs in
  check_int "no windows before any observation" 0 (Slo.windows_closed s);
  Slo.finish s;
  check_int "finish on empty closes nothing" 0 (Slo.windows_closed s);
  Slo.observe s ~lat:5 ~ok:true;
  Slo.finish s;
  check_int "finish closes the trailing partial window" 1 (Slo.windows_closed s);
  check_bool "partial window evaluated" (Slo.ok s)

(* The SLO feed and the histogram's int path allocate nothing outside a
   window close: 10^5 calls of each, read with [Gc.minor_words], which
   counts the minor heap's current words too. The window outlasts the
   calls, and every bucket exists before the count starts. *)
let test_slo_feed_allocates_nothing () =
  let calls = 100_000 in
  let objs = match Slo.parse "p99<=2us,delivery>=0.99" with Ok o -> o | Error e -> Alcotest.fail e in
  let s = Slo.create ~window:(2 * calls) ~name:"slo.test.alloc" objs in
  let h = Histogram.make "test.hist.alloc" in
  for i = 0 to 99 do
    Histogram.observe_int h (1000 + i)
  done;
  let per_call f =
    let w0 = Gc.minor_words () in
    for i = 0 to calls - 1 do
      f i
    done;
    (Gc.minor_words () -. w0) /. float_of_int calls
  in
  let slo = per_call (fun i -> Slo.observe s ~lat:(1000 + (i mod 100)) ~ok:(i land 7 <> 0)) in
  let hist = per_call (fun i -> Histogram.observe_int h (1000 + (i mod 100))) in
  check_int "no window closed" 0 (Slo.windows_closed s);
  check_bool (Printf.sprintf "%.2f minor words per Slo.observe" slo) (slo < 0.01);
  check_bool (Printf.sprintf "%.2f minor words per Histogram.observe_int" hist) (hist < 0.01)

(* ------------------------------------------------------------------ expo *)

let test_expo_roundtrip_through_validator () =
  fresh ();
  Ron_obs.enable ();
  let c = Counter.make "expo.test_total_queries" in
  Counter.add c 7;
  let g = Gauge.make "expo.test_level" in
  Gauge.set g 2.5;
  let h = Histogram.make "expo.test_latency" in
  List.iter (Histogram.observe h) [ 0.0; 1.0; 10.0; 100.0; 1000.0 ];
  let text = Expo.render () in
  (match Expo.validate_string text with
  | Ok n -> check_bool "several samples" (n > 5)
  | Error e -> Alcotest.failf "rendered exposition rejected: %s\n%s" e text);
  (* The file writer is atomic (tmp + rename) and produces the same body. *)
  let file = Filename.temp_file "ron_expo_test" ".prom" in
  Expo.write file;
  (match Expo.validate_string (In_channel.with_open_bin file In_channel.input_all) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "written exposition rejected: %s" e);
  check_bool "no tmp litter" (not (Sys.file_exists (file ^ ".tmp")));
  Sys.remove file;
  fresh ()

let test_expo_validator_rejects () =
  let reject what text =
    match Expo.validate_string text with
    | Ok _ -> Alcotest.failf "validator accepted %s" what
    | Error _ -> ()
  in
  reject "an empty exposition" "";
  reject "a sample without TYPE" "ron_x 1\n";
  reject "a bad metric name" "# TYPE 9bad counter\n9bad 1\n";
  reject "a non-numeric value" "# TYPE ron_x counter\nron_x one\n";
  reject "a duplicate TYPE" "# TYPE ron_x counter\n# TYPE ron_x counter\nron_x 1\n";
  reject "a histogram without +Inf"
    "# TYPE ron_h histogram\nron_h_bucket{le=\"1\"} 1\nron_h_sum 1\nron_h_count 1\n";
  reject "a non-cumulative histogram"
    "# TYPE ron_h histogram\n\
     ron_h_bucket{le=\"1\"} 5\n\
     ron_h_bucket{le=\"2\"} 3\n\
     ron_h_bucket{le=\"+Inf\"} 5\n\
     ron_h_sum 9\nron_h_count 5\n";
  reject "a histogram whose count disagrees with +Inf"
    "# TYPE ron_h histogram\n\
     ron_h_bucket{le=\"+Inf\"} 5\n\
     ron_h_sum 9\nron_h_count 4\n";
  match
    Expo.validate_string
      "# HELP ron_x a counter\n# TYPE ron_x counter\nron_x 1\n# TYPE ron_g gauge\nron_g -2.5\n"
  with
  | Ok n -> check_int "valid exposition sample count" 2 n
  | Error e -> Alcotest.failf "rejected a valid exposition: %s" e

(* One name in every format: the snapshot's counters, gauges and
   histograms are the exposition's families (sanitized, counters with
   _total), apart from ron_build_info and the env gauges the snapshot
   leaves out; and every name a telemetry sample carries is one of the
   snapshot's. Routes, a Meridian locate and an SLO window feed it. *)
let test_one_name_in_every_format () =
  fresh ();
  Ron_obs.enable ();
  let sink, lines = Trace.memory_sink () in
  Telemetry.start ~process_stats:false sink;
  for _ = 1 to 3 do
    ignore (line_route ())
  done;
  let module Meridian = Ron_smallworld.Meridian in
  let idx =
    Ron_metric.Indexed.create
      (Ron_metric.Generators.random_cloud (Ron_util.Rng.create 4) ~n:40 ~dim:2)
  in
  let m =
    Meridian.build idx (Ron_util.Rng.create 5) ~ring_size:4 ~members:(Array.init 30 Fun.id)
  in
  ignore (Meridian.closest m ~start:0 ~target:35);
  let objs = match Slo.parse "p99<=2us" with Ok o -> o | Error e -> Alcotest.fail e in
  let slo = Slo.create ~window:4 ~name:"slo.test.names" objs in
  (* A window closes, and the next one holds a sample. *)
  for i = 1 to 5 do
    Slo.observe slo ~lat:(100 * i) ~ok:true
  done;
  Telemetry.tick ();
  Telemetry.stop ();
  let snapshot = Ron_obs.snapshot () in
  Ron_obs.disable ();
  let section name =
    match Json.member name snapshot with
    | Some (Json.Obj fields) -> List.map fst fields
    | _ -> Alcotest.failf "snapshot has no %s section" name
  in
  let counters = section "counters" and gauges = section "gauges" in
  let hists = section "histograms" in
  let env =
    List.filter_map
      (fun g -> if Gauge.env g then Some (Expo.sanitize (Gauge.name g)) else None)
      (Gauge.all ())
  in
  let families =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "#"; "TYPE"; f; _ ] when f <> "ron_build_info" && not (List.mem f env) -> Some f
        | _ -> None)
      (String.split_on_char '\n' (Expo.render ()))
  in
  let sorted = List.sort_uniq String.compare in
  Alcotest.(check (list string))
    "snapshot names = exposition families"
    (sorted (List.map (fun c -> Expo.sanitize c ^ "_total") counters
             @ List.map Expo.sanitize (gauges @ hists)))
    (sorted families);
  List.iter
    (fun h -> check_bool (h ^ " is a snapshot histogram") (List.mem h hists))
    [ "route.hops_per_query"; "route.header_bits_per_query"; "meridian.probes_per_query";
      "slo.test.names.window_latency" ];
  let names = counters @ gauges @ hists in
  List.iter
    (fun line ->
      match Trace_read.parse_snapshot_line line with
      | Ok s ->
        List.iter
          (fun (n, _) -> check_bool (n ^ " in a sample is a snapshot name") (List.mem n names))
          (s.Trace_read.counters @ s.Trace_read.gauges @ s.Trace_read.hists)
      | Error e -> Alcotest.failf "bad sample: %s" e)
    (lines ())

(* ------------------------------------------------------------- sparkline *)

let test_sparkline_flat_and_single () =
  let mid = Sparkline.levels.(Sparkline.mid_level) in
  let rep n = String.concat "" (List.init n (fun _ -> mid)) in
  (* A constant series must not degenerate into all-low or all-high. *)
  check_string "flat series renders mid blocks" (rep 3)
    (Sparkline.render ~samples:3 [ (0, 5.0); (1, 5.0); (2, 5.0) ]);
  (* A single sample has no range at all. *)
  check_string "single sample renders one mid block" (rep 1)
    (Sparkline.render ~samples:1 [ (0, 42.0) ]);
  (* A late-starting constant series carries the first value backward —
     no fabricated zero cliff. *)
  check_string "late-starting flat series stays flat" (rep 4)
    (Sparkline.render ~samples:4 [ (2, 10.0); (3, 10.0) ]);
  check_string "empty series" "" (Sparkline.render ~samples:0 []);
  (* A genuine ramp uses the full level range. *)
  let ramp = Sparkline.render ~samples:4 [ (0, 0.0); (1, 1.0); (2, 2.0); (3, 3.0) ] in
  check_bool "ramp starts low" (String.length ramp >= 6
    && String.sub ramp 0 3 = Sparkline.levels.(0));
  check_bool "ramp ends high"
    (String.sub ramp (String.length ramp - 3) 3 = Sparkline.levels.(7))

let () =
  Alcotest.run "ron_obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "trace",
        [
          Alcotest.test_case "no-op sink emits nothing" `Quick test_noop_sink_emits_nothing;
          Alcotest.test_case "memory sink captures JSONL" `Quick test_memory_sink_captures_events;
          Alcotest.test_case "stop resets the injected clock" `Quick test_stop_resets_clock;
          Alcotest.test_case "span unwind carries the error" `Quick test_span_unwind_emits_error;
          Alcotest.test_case "reader rejects malformed lines" `Quick test_trace_read_parse_line;
          Alcotest.test_case "validator enforces B/E structure" `Quick
            test_validator_structural_rules;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "growth, empty, reset" `Quick test_histogram_growth_and_empty;
          Alcotest.test_case "reset + re-observe identical across jobs" `Quick
            test_histogram_reset_reobserve_across_jobs;
        ] );
      ( "registry",
        [
          Alcotest.test_case "one kind per name" `Quick test_registry_one_kind_per_name;
          Alcotest.test_case "one name in every format" `Quick test_one_name_in_every_format;
        ] );
      ( "gauge",
        [
          Alcotest.test_case "last write wins, add, reset" `Quick test_gauge_basics;
          Alcotest.test_case "merge sums written shards" `Quick test_gauge_merge_sums_domains;
          Alcotest.test_case "env gauges stay out of the snapshot" `Quick
            test_gauge_env_excluded_from_snapshot;
        ] );
      ( "bucketed",
        [
          Alcotest.test_case "empty, zero bucket, registry" `Quick
            test_bucketed_empty_zero_and_registry;
          Alcotest.test_case "memory bounded by log range" `Quick test_bucketed_bounded_memory;
          QCheck_alcotest.to_alcotest prop_bucketed_quantiles_within_one_bucket;
          QCheck_alcotest.to_alcotest prop_bucketed_q1_is_exact_max;
          QCheck_alcotest.to_alcotest prop_bucketed_nonfinite_does_not_corrupt;
          Alcotest.test_case "merge identical across jobs" `Quick
            test_bucketed_merge_across_jobs;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "series bit-identical at jobs 1 and 4" `Quick
            test_telemetry_series_bit_identical_across_jobs;
          Alcotest.test_case "in-chunk ticks are no-ops" `Quick
            test_telemetry_in_chunk_tick_is_noop;
          Alcotest.test_case "start/stop contract" `Quick test_telemetry_start_contract;
          Alcotest.test_case "interval throttles the tick stream" `Quick
            test_telemetry_interval_throttles;
          Alcotest.test_case "emitted series parses and validates" `Quick
            test_telemetry_series_parses_and_validates;
          Alcotest.test_case "shared clock outlives an early release" `Quick
            test_shared_clock_outlives_early_release;
        ] );
      ( "snapshot-validator",
        [
          Alcotest.test_case "line parser rejects malformed records" `Quick
            test_snapshot_line_parser;
          Alcotest.test_case "series rules" `Quick test_snapshot_validator_rules;
        ] );
      ( "profile",
        [
          Alcotest.test_case "off is a no-op" `Quick test_profile_off_is_noop;
          Alcotest.test_case "nesting paths and self time" `Quick
            test_profile_nesting_and_self_time;
          Alcotest.test_case "exception unwinds the stack" `Quick test_profile_exception_unwind;
          Alcotest.test_case "disable resets the clock" `Quick test_profile_disable_resets_clock;
          Alcotest.test_case "merge across domains" `Quick test_profile_merge_across_domains;
          Alcotest.test_case "phase mirrors a trace span" `Quick test_profile_mirrors_trace_span;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "snapshot identical at jobs 1 and 4" `Quick
            test_snapshot_deterministic_across_jobs;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "hop events match result" `Quick
            test_simulate_hops_match_trace_and_ledger;
          Alcotest.test_case "probes off record nothing" `Quick test_probe_off_records_nothing;
        ] );
      ( "flight",
        [
          Alcotest.test_case "top-k tie eviction order" `Quick test_flight_topk_tie_order;
          Alcotest.test_case "window retention" `Quick test_flight_retention;
          Alcotest.test_case "trace sampling and cap" `Quick test_flight_trace_sampling;
        ] );
      ( "slo",
        [
          Alcotest.test_case "spec parsing" `Quick test_slo_parse;
          Alcotest.test_case "window arithmetic" `Quick test_slo_window_arithmetic;
          Alcotest.test_case "partial and empty windows" `Quick
            test_slo_partial_window_and_empty;
          Alcotest.test_case "feed allocates nothing" `Quick test_slo_feed_allocates_nothing;
        ] );
      ( "expo",
        [
          Alcotest.test_case "render round-trips through validator" `Quick
            test_expo_roundtrip_through_validator;
          Alcotest.test_case "validator rejects malformed expositions" `Quick
            test_expo_validator_rejects;
        ] );
      ( "sparkline",
        [
          Alcotest.test_case "flat, single-sample, late-start" `Quick
            test_sparkline_flat_and_single;
        ] );
    ]
