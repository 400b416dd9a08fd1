(* Tests for the ron_util library: Rng, Bits, Qfloat, Stats. *)

module Rng = Ron_util.Rng
module Bits = Ron_util.Bits
module Qfloat = Ron_util.Qfloat
module Stats = Ron_util.Stats

let check_bool msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)
let check_float msg = Alcotest.(check (float 1e-9)) msg

(* ------------------------------------------------------------------ Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different seeds differ" (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    check_bool "in range" (x >= 0 && x < 17)
  done

let test_rng_int_covers () =
  let rng = Rng.create 11 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 8) <- true
  done;
  check_bool "all residues hit" (Array.for_all Fun.id seen)

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng 2.5 in
    check_bool "in range" (x >= 0.0 && x < 2.5)
  done

let test_rng_float_mean () =
  let rng = Rng.create 5 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng 1.0
  done;
  let m = !acc /. float_of_int n in
  check_bool "mean near 1/2" (Float.abs (m -. 0.5) < 0.01)

let test_rng_split_independent () =
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  (* Consuming the child must not change the parent's future stream relative
     to a parent that split and discarded the child. *)
  let parent2 = Rng.create 9 in
  let _ = Rng.split parent2 in
  for _ = 1 to 50 do
    ignore (Rng.bits64 child)
  done;
  check_bool "parent unaffected by child use" (Rng.bits64 parent = Rng.bits64 parent2)

let test_rng_copy () =
  let a = Rng.create 123 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check_bool "copy replays" (Rng.bits64 a = Rng.bits64 b)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 77 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "is permutation" (sorted = Array.init 100 Fun.id)

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let n = 50_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  check_bool "mean ~ 0" (Float.abs mean < 0.02);
  check_bool "var ~ 1" (Float.abs (var -. 1.0) < 0.05)

let test_weighted_index () =
  let rng = Rng.create 21 in
  (* Weights 1, 2, 1 -> cumulative 1, 3, 4. *)
  let cum = [| 1.0; 3.0; 4.0 |] in
  let counts = Array.make 3 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = Rng.weighted_index rng cum in
    counts.(i) <- counts.(i) + 1
  done;
  let f i = float_of_int counts.(i) /. float_of_int n in
  check_bool "w0 ~ 1/4" (Float.abs (f 0 -. 0.25) < 0.02);
  check_bool "w1 ~ 1/2" (Float.abs (f 1 -. 0.5) < 0.02);
  check_bool "w2 ~ 1/4" (Float.abs (f 2 -. 0.25) < 0.02)

let test_weighted_index_zero_weight () =
  let rng = Rng.create 22 in
  (* Middle weight zero: cumulative 1, 1, 2. Index 1 must never be drawn. *)
  let cum = [| 1.0; 1.0; 2.0 |] in
  for _ = 1 to 1000 do
    check_bool "zero weight never sampled" (Rng.weighted_index rng cum <> 1)
  done

let test_rng_invalid_args () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

(* [Rng.mix] against SplitMix64's finalizer over [a + gamma * b], top bit
   cleared: values computed outside OCaml. *)
let test_rng_mix_values () =
  List.iter
    (fun (a, b, want) -> check_int (Printf.sprintf "mix %d %d" a b) want (Rng.mix a b))
    [ (0, 0, 0); (1, 2, 4533873174211652711); (42, -7, 2778372008050299607);
      (-1, 123456789, 1913290225796706421) ]

(* [Rng.mix] keeps its int64s unboxed: 10^5 calls allocate no minor
   word, read with [Gc.minor_words], which counts the minor heap's
   current words too. *)
let test_rng_mix_allocates_nothing () =
  let calls = 100_000 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to calls - 1 do
    acc := !acc lxor Rng.mix i !acc
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int calls in
  check_bool (Printf.sprintf "%.3f minor words per Rng.mix (hash %d)" words !acc) (words < 0.01)

(* ----------------------------------------------------------------- Bits *)

let test_bits_values () =
  check_int "bits_for 1" 0 (Bits.bits_for 1);
  check_int "bits_for 2" 1 (Bits.bits_for 2);
  check_int "bits_for 3" 2 (Bits.bits_for 3);
  check_int "bits_for 1024" 10 (Bits.bits_for 1024);
  check_int "bits_for 1025" 11 (Bits.bits_for 1025);
  check_int "index_bits 1" 1 (Bits.index_bits 1);
  check_int "ilog2_floor 1" 0 (Bits.ilog2_floor 1);
  check_int "ilog2_floor 7" 2 (Bits.ilog2_floor 7);
  check_int "ilog2_ceil 7" 3 (Bits.ilog2_ceil 7);
  check_int "ilog2_ceil 8" 3 (Bits.ilog2_ceil 8)

let prop_bits_consistent =
  QCheck.Test.make ~name:"bits_for names k values" ~count:500
    QCheck.(int_range 2 1_000_000)
    (fun k ->
      let b = Bits.bits_for k in
      (1 lsl b) >= k && (1 lsl (b - 1)) < k)

(* --------------------------------------------------------------- Qfloat *)

let test_qfloat_zero () =
  let c = Qfloat.codec ~mantissa_bits:4 ~max_exponent:10 in
  check_float "zero roundtrip" 0.0 (Qfloat.quantize c 0.0)

let test_qfloat_exact_powers () =
  let c = Qfloat.codec ~mantissa_bits:6 ~max_exponent:20 in
  List.iter
    (fun e ->
      let x = Float.of_int (1 lsl e) in
      check_float (Printf.sprintf "2^%d exact" e) x (Qfloat.quantize c x))
    [ 0; 1; 5; 13; 20 ]

let test_qfloat_bits_positive () =
  let c = Qfloat.codec_for ~delta:0.25 ~aspect_ratio:1024.0 in
  check_bool "bits positive" (Qfloat.bits c > 0)

let prop_qfloat_upper_bound =
  QCheck.Test.make ~name:"quantize never contracts" ~count:2000
    QCheck.(float_range 1.0 1_000_000.0)
    (fun x ->
      let c = Qfloat.codec ~mantissa_bits:5 ~max_exponent:40 in
      Qfloat.quantize c x >= x)

let prop_qfloat_relative_error =
  QCheck.Test.make ~name:"quantize relative error bounded" ~count:2000
    QCheck.(float_range 1.0 1_000_000.0)
    (fun x ->
      let c = Qfloat.codec ~mantissa_bits:5 ~max_exponent:40 in
      Qfloat.quantize c x <= x *. (1.0 +. Qfloat.relative_error_bound c) *. (1.0 +. 1e-12))

let prop_qfloat_monotone =
  QCheck.Test.make ~name:"quantize monotone" ~count:1000
    QCheck.(pair (float_range 1.0 100_000.0) (float_range 1.0 100_000.0))
    (fun (a, b) ->
      let c = Qfloat.codec ~mantissa_bits:4 ~max_exponent:30 in
      let lo = Float.min a b and hi = Float.max a b in
      Qfloat.quantize c lo <= Qfloat.quantize c hi)

let test_qfloat_out_of_range () =
  let c = Qfloat.codec ~mantissa_bits:4 ~max_exponent:3 in
  Alcotest.check_raises "overflow rejected"
    (Invalid_argument "Qfloat.encode: value out of range") (fun () ->
      ignore (Qfloat.encode c 100.0));
  Alcotest.check_raises "negative rejected" (Invalid_argument "Qfloat.encode: bad value")
    (fun () -> ignore (Qfloat.encode c (-1.0)))

let test_qfloat_codec_for_range () =
  (* codec_for must accept distances up to 2 * Delta (sums of two). *)
  let c = Qfloat.codec_for ~delta:0.5 ~aspect_ratio:1000.0 in
  let x = 1999.0 in
  check_bool "2*Delta encodable" (Qfloat.quantize c x >= x)

(* ---------------------------------------------------------------- Stats *)

let test_qfloat_sub_one_rounds_up () =
  (* Normalized metrics never store distances in (0,1); the codec still must
     handle them safely by rounding up to 1 (non-contracting). *)
  let c = Qfloat.codec ~mantissa_bits:4 ~max_exponent:8 in
  Alcotest.(check (float 1e-9)) "rounds to 1" 1.0 (Qfloat.quantize c 0.3)

let test_weighted_index_single () =
  let rng = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "single bucket" 0 (Rng.weighted_index rng [| 2.5 |])
  done

let test_stats_of_ints () =
  Alcotest.(check (float 1e-9)) "of_ints mean" 2.0 (Stats.mean (Stats.of_ints [| 1; 2; 3 |]))

let test_stats_empty () =
  check_bool "empty mean is nan" (Float.is_nan (Stats.mean [||]));
  check_bool "empty percentile is nan" (Float.is_nan (Stats.percentile [||] 50.0));
  check_bool "empty minimum is nan" (Float.is_nan (Stats.minimum [||]));
  check_bool "empty maximum is nan" (Float.is_nan (Stats.maximum [||]))

let test_stats_empty_summary () =
  let s = Stats.summarize [||] in
  check_int "count" 0 s.Stats.count;
  check_bool "mean nan" (Float.is_nan s.Stats.mean);
  check_bool "stddev nan" (Float.is_nan s.Stats.stddev);
  check_bool "min nan" (Float.is_nan s.Stats.min);
  check_bool "p50 nan" (Float.is_nan s.Stats.p50);
  check_bool "p90 nan" (Float.is_nan s.Stats.p90);
  check_bool "p99 nan" (Float.is_nan s.Stats.p99);
  check_bool "max nan" (Float.is_nan s.Stats.max)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "min" 1.0 (Stats.minimum xs);
  check_float "max" 4.0 (Stats.maximum xs);
  check_float "median" 2.0 (Stats.median xs);
  check_float "p100" 4.0 (Stats.percentile xs 100.0)

let test_stats_stddev () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "stddev" 2.0 (Stats.stddev xs)

let test_stats_summary () =
  let s = Stats.summarize (Array.init 100 (fun i -> float_of_int (i + 1))) in
  check_int "count" 100 s.Stats.count;
  check_float "p50" 50.0 s.Stats.p50;
  check_float "p90" 90.0 s.Stats.p90;
  check_float "p99" 99.0 s.Stats.p99

(* ----------------------------------------------------------- bench keys *)

module Bench_keys = Ron_util.Bench_keys

let test_bench_keys_classify () =
  let dir = function
    | Bench_keys.Throughput -> "throughput"
    | Bench_keys.Timing -> "timing"
    | Bench_keys.Deterministic -> "det"
  in
  let check key expect = Alcotest.(check string) key expect (dir (Bench_keys.classify key)) in
  check "qps" "throughput";
  check "warm_qps" "throughput";
  check "routes_per_s" "throughput";
  (* The throughput rule must win over the timing "_s" suffix rule. *)
  check "queries_per_s" "throughput";
  check "freeze_s" "timing";
  check "snapshot_load_s" "timing";
  check "latency_p999_ns" "timing";
  check "ns_total" "det";  (* "_ns" must be a real infix, not a prefix *)
  check "stretch_max" "det";
  check "qps_note" "det";  (* "qps" only counts as a suffix or the whole key *)
  check "n" "det";
  check "s" "det";
  (* The churn bench keys are seeded-workload outputs: all deterministic. *)
  check "repair_updates_per_event" "det";
  check "stretch_inflation" "det";
  check "churn_stale_hits" "det";
  check "delivery_rate" "det";
  check "stale_after_repair" "det"

let test_bench_keys_verdict () =
  let name = function
    | Bench_keys.Same -> "same"
    | Bench_keys.Better -> "better"
    | Bench_keys.Worse -> "worse"
    | Bench_keys.Changed -> "changed"
  in
  let v dir ~base ~next =
    Bench_keys.verdict dir ~threshold:0.5 ~det_threshold:1e-9 ~base ~next
  in
  let check msg dir ~base ~next expect_outcome expect_delta =
    let o, d = v dir ~base ~next in
    Alcotest.(check string) msg expect_outcome (name o);
    Alcotest.(check bool) (msg ^ " delta presence") expect_delta (d <> None)
  in
  (* Ordinary relative comparisons on both sides of the threshold. *)
  check "timing within threshold" Bench_keys.Timing ~base:1.0 ~next:1.4 "same" true;
  check "timing past threshold" Bench_keys.Timing ~base:1.0 ~next:1.6 "worse" true;
  check "timing improved" Bench_keys.Timing ~base:1.0 ~next:0.4 "better" true;
  check "throughput drop" Bench_keys.Throughput ~base:100.0 ~next:40.0 "worse" true;
  check "throughput gain" Bench_keys.Throughput ~base:100.0 ~next:160.0 "better" true;
  check "det drift" Bench_keys.Deterministic ~base:2.0 ~next:2.1 "changed" true;
  check "det equal" Bench_keys.Deterministic ~base:2.0 ~next:2.0 "same" true;
  (* Zero baseline: no relative scale — the key's direction decides, and
     no delta is reported. *)
  check "time appears from zero" Bench_keys.Timing ~base:0.0 ~next:1.5 "worse" false;
  check "throughput appears from zero" Bench_keys.Throughput ~base:0.0 ~next:100.0
    "better" false;
  check "det appears from zero" Bench_keys.Deterministic ~base:0.0 ~next:1.2
    "changed" false;
  check "zero baseline unchanged" Bench_keys.Timing ~base:0.0 ~next:0.0 "same" true;
  (* Non-finite values must flag, never silently pass a threshold check. *)
  check "nan next" Bench_keys.Timing ~base:1.0 ~next:nan "changed" false;
  check "nan base" Bench_keys.Deterministic ~base:nan ~next:1.0 "changed" false;
  check "inf next" Bench_keys.Throughput ~base:100.0 ~next:infinity "changed" false;
  (* Equal infinities count as unchanged rather than mismatched. *)
  check "equal inf" Bench_keys.Timing ~base:infinity ~next:infinity "same" true

(* ----------------------------------------------------------------- zipf *)

module Workload = Ron_util.Workload

let test_zipf_analytic () =
  let z = Workload.Zipf.create ~n:4 ~s:1.0 in
  (* Weights 1, 1/2, 1/3, 1/4 normalize over 25/12. *)
  let total = 1.0 +. 0.5 +. (1.0 /. 3.0) +. 0.25 in
  check_float "mass 0" (1.0 /. total) (Workload.Zipf.mass z 0);
  check_float "mass 3" (0.25 /. total) (Workload.Zipf.mass z 3);
  check_float "cdf end" 1.0 (Workload.Zipf.cdf z 3);
  let u = Workload.Zipf.create ~n:8 ~s:0.0 in
  check_float "s=0 uniform mass" 0.125 (Workload.Zipf.mass u 5)

let test_zipf_deterministic () =
  let z = Workload.Zipf.create ~n:1000 ~s:1.2 in
  for i = 0 to 200 do
    check_int "same (seed, i) draw"
      (Workload.Zipf.sample_at z ~seed:31 i)
      (Workload.Zipf.sample_at z ~seed:31 i)
  done;
  let differs = ref false in
  for i = 0 to 200 do
    if Workload.Zipf.sample_at z ~seed:31 i <> Workload.Zipf.sample_at z ~seed:32 i then
      differs := true
  done;
  check_bool "seed sensitivity" !differs

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf sample in [0, n)" ~count:200
    QCheck.(tup3 (int_range 1 50) (float_range 0.0 2.5) small_nat)
    (fun (n, s, i) ->
      let z = Workload.Zipf.create ~n ~s in
      let k = Workload.Zipf.sample_at z ~seed:7 i in
      k >= 0 && k < n)

let prop_zipf_inverts_cdf =
  (* sample must return the smallest rank whose cdf exceeds the deviate. *)
  QCheck.Test.make ~name:"zipf sample inverts cdf" ~count:500
    QCheck.(tup3 (int_range 1 40) (float_range 0.0 2.0) (float_range 0.0 0.9999))
    (fun (n, s, u) ->
      let z = Workload.Zipf.create ~n ~s in
      let k = Workload.Zipf.cdf z (Workload.Zipf.sample z u) in
      let ok_above = k > u in
      let ok_least =
        Workload.Zipf.sample z u = 0
        || Workload.Zipf.cdf z (Workload.Zipf.sample z u - 1) <= u
      in
      ok_above && ok_least)

(* Empirical head and tail mass over a large seeded draw must pin the
   analytic CDF: the head (rank 0) within 10% relative, the tail
   (ranks >= n/2) within 10% relative of its analytic mass. *)
let test_zipf_empirical_mass () =
  let n = 100 and draws = 200_000 in
  let z = Workload.Zipf.create ~n ~s:1.1 in
  let counts = Array.make n 0 in
  for i = 0 to draws - 1 do
    let k = Workload.Zipf.sample_at z ~seed:91 i in
    counts.(k) <- counts.(k) + 1
  done;
  let freq k = float_of_int counts.(k) /. float_of_int draws in
  let head_analytic = Workload.Zipf.mass z 0 in
  check_bool "head mass within 10%"
    (Float.abs (freq 0 -. head_analytic) < 0.1 *. head_analytic);
  let tail_emp = ref 0.0 in
  for k = n / 2 to n - 1 do
    tail_emp := !tail_emp +. freq k
  done;
  let tail_analytic = 1.0 -. Workload.Zipf.cdf z ((n / 2) - 1) in
  check_bool "tail mass within 10%"
    (Float.abs (!tail_emp -. tail_analytic) < 0.1 *. tail_analytic);
  (* And the skew is real: the hottest rank beats the whole tail. *)
  check_bool "head outweighs tail" (freq 0 > !tail_emp)

let test_u01_range () =
  for i = 0 to 10_000 do
    let u = Workload.u01 ~seed:5 i in
    check_bool "in [0,1)" (u >= 0.0 && u < 1.0)
  done

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ron_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int covers residues" `Quick test_rng_int_covers;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "weighted index frequencies" `Quick test_weighted_index;
          Alcotest.test_case "weighted index zero weight" `Quick test_weighted_index_zero_weight;
          Alcotest.test_case "invalid arguments" `Quick test_rng_invalid_args;
          Alcotest.test_case "mix values" `Quick test_rng_mix_values;
          Alcotest.test_case "mix allocates nothing" `Quick test_rng_mix_allocates_nothing;
        ] );
      ( "bits",
        [
          Alcotest.test_case "known values" `Quick test_bits_values;
          qt prop_bits_consistent;
        ] );
      ( "qfloat",
        [
          Alcotest.test_case "zero" `Quick test_qfloat_zero;
          Alcotest.test_case "powers of two exact" `Quick test_qfloat_exact_powers;
          Alcotest.test_case "bit cost positive" `Quick test_qfloat_bits_positive;
          Alcotest.test_case "out-of-range rejected" `Quick test_qfloat_out_of_range;
          Alcotest.test_case "codec_for covers 2*Delta" `Quick test_qfloat_codec_for_range;
          qt prop_qfloat_upper_bound;
          qt prop_qfloat_relative_error;
          qt prop_qfloat_monotone;
        ] );
      ( "bench_keys",
        [
          Alcotest.test_case "classify directions" `Quick test_bench_keys_classify;
          Alcotest.test_case "verdict edge cases" `Quick test_bench_keys_verdict;
        ] );
      ( "workload",
        [
          Alcotest.test_case "zipf analytic mass/cdf" `Quick test_zipf_analytic;
          Alcotest.test_case "zipf deterministic draws" `Quick test_zipf_deterministic;
          Alcotest.test_case "zipf empirical head/tail mass" `Quick test_zipf_empirical_mass;
          Alcotest.test_case "u01 range" `Quick test_u01_range;
          qt prop_zipf_in_range;
          qt prop_zipf_inverts_cdf;
        ] );
      ( "stats",
        [
          Alcotest.test_case "sub-one rounds up" `Quick test_qfloat_sub_one_rounds_up;
          Alcotest.test_case "weighted index single bucket" `Quick test_weighted_index_single;
          Alcotest.test_case "of_ints" `Quick test_stats_of_ints;
          Alcotest.test_case "empty samples" `Quick test_stats_empty;
          Alcotest.test_case "empty summary" `Quick test_stats_empty_summary;
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "summary" `Quick test_stats_summary;
        ] );
    ]
