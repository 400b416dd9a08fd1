.PHONY: all build test check bench bench-json bench-diff scale-smoke trace-smoke fault-smoke churn-smoke mer-smoke tri-smoke route-smoke profile-smoke telemetry-smoke serve-smoke slo-smoke clean

# Relative slowdown tolerated by bench-diff before a timing key fails
# (0.5 = 50% slower); override per-run: make bench-diff RON_BENCH_DIFF_THRESHOLD=1.0
RON_BENCH_DIFF_THRESHOLD ?= 0.5
export RON_BENCH_DIFF_THRESHOLD

# Committed baseline that bench-diff compares against.
BENCH_BASELINE ?= BENCH_2026-08-08.json

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate plus a smoke run of the JSON perf pipeline (tiny sizes so it
# stays fast; the committed BENCH_*.json files use the default 500,1000,2000).
# The bench exits 1 when any boolean invariant in its report is false.
check: build test
	dune exec bench/main.exe -- esub --json /tmp/ron_bench_smoke.json --sizes 100,200

bench:
	dune exec bench/main.exe

bench-json:
	dune exec bench/main.exe -- --json BENCH_$$(date +%Y-%m-%d).json

# Regression gate: measure a fresh (small) report and diff it against the
# committed baseline. Timing keys use RON_BENCH_DIFF_THRESHOLD; the
# deterministic keys (stretch, hops, counter deltas, table bits) must
# match exactly; sizes missing from either file are skipped.
bench-diff: build
	dune exec bench/main.exe -- esub --json /tmp/ron_bench_fresh.json --sizes 200,400
	dune exec bin/bench_diff.exe -- $(BENCH_BASELINE) /tmp/ron_bench_fresh.json \
	  --out /tmp/ron_bench_diff_verdict.json

# Scaling smoke: the near-linear pipeline (streamed torus -> on-demand
# oracle -> landmark labels -> sampled stretch) at n = 10^5, under a hard
# wall-clock budget, then diffed warn-only against the committed baseline
# (timing keys use the threshold; the deterministic label/stretch keys must
# match exactly; peak_rss_kb is recorded but not diffed).
SCALE_SMOKE_N ?= 100000
SCALE_SMOKE_BUDGET_S ?= 300
scale-smoke: build
	timeout $(SCALE_SMOKE_BUDGET_S) dune exec bench/main.exe -- \
	  --json /tmp/ron_scale_smoke.json --scale-only --scale $(SCALE_SMOKE_N)
	dune exec bin/bench_diff.exe -- $(BENCH_BASELINE) /tmp/ron_scale_smoke.json \
	  --warn-only --out /tmp/ron_scale_smoke_verdict.json

# `$(call refused,FILE)`: `ron_obs check` must refuse the deliberately
# broken FILE with exit 1, so each smoke shows that its checker can fail.
refused = status=0; dune exec bin/ron_obs.exe -- check $(1) || status=$$?; \
	if [ $$status -ne 1 ]; then echo "ron_obs check gave exit $$status on $(1), expected 1"; exit 1; \
	else echo "ron_obs check refused $(1) with exit 1"; fi

# Observability smoke: trace a routing run, then validate every JSONL event;
# the same trace with its last line cut short must be refused.
trace-smoke: build
	dune exec bin/ron_cli.exe -- route -m grid -n 64 -p 200 \
	  --trace /tmp/ron_trace_smoke.jsonl --metrics-out /tmp/ron_metrics_smoke.json
	dune exec bin/ron_obs.exe -- check /tmp/ron_trace_smoke.jsonl
	head -c -20 /tmp/ron_trace_smoke.jsonl > /tmp/ron_trace_smoke_cut.jsonl
	@$(call refused,/tmp/ron_trace_smoke_cut.jsonl)

# Fault smoke: a small fault-injection sweep (crashed nodes + drops + dead
# links with graceful-degradation fallbacks), then validate every JSONL
# trace event the faulty run emitted; a copy cut short must be refused.
fault-smoke: build
	dune exec bin/ron_cli.exe -- fault -m grid -n 64 -p 200 \
	  --crash 0.08 --drop 0.02 --dead-links 0.02 \
	  --trace /tmp/ron_fault_smoke.jsonl --metrics-out /tmp/ron_fault_metrics.json
	dune exec bin/ron_obs.exe -- check /tmp/ron_fault_smoke.jsonl
	head -c -20 /tmp/ron_fault_smoke.jsonl > /tmp/ron_fault_smoke_cut.jsonl
	@$(call refused,/tmp/ron_fault_smoke_cut.jsonl)

# Churn smoke: the dynamic-membership sweep at a reduced landmark size,
# run at RON_JOBS=1 and 4 — the outputs must be byte-identical (the
# schedule and every repair are sequential seeded hashes) and the repair
# must stay incremental (churn.rebuilds = 0). Then one CLI run composing
# churn with per-hop drops. Outputs land in /tmp for CI to archive.
CHURN_SMOKE_N ?= 2000
churn-smoke: build
	RON_CHURN_N=$(CHURN_SMOKE_N) RON_JOBS=1 dune exec bench/main.exe -- churn \
	  > /tmp/ron_churn_smoke_j1.txt
	RON_CHURN_N=$(CHURN_SMOKE_N) RON_JOBS=4 dune exec bench/main.exe -- churn \
	  > /tmp/ron_churn_smoke_j4.txt
	cmp /tmp/ron_churn_smoke_j1.txt /tmp/ron_churn_smoke_j4.txt
	grep -q 'churn.rebuilds = 0' /tmp/ron_churn_smoke_j1.txt
	dune exec bin/ron_cli.exe -- churn -m grid -n 100 -p 300 \
	  --join-rate 0.05 --leave-rate 0.05 --crash 0 --drop 0.0125 --dead-links 0 \
	  | tee /tmp/ron_churn_smoke_cli.txt
	grep -q 'repair:' /tmp/ron_churn_smoke_cli.txt

# Meridian smoke: the closest-node and multi-range experiment and the
# fault sweep (whose last section runs Meridian's walk under faults), at
# RON_JOBS=1 and 4 — the outputs must be byte-identical. churn-smoke
# compares the third Meridian section, ring repair under churn. Outputs
# land in /tmp for CI to archive.
mer-smoke: build
	RON_JOBS=1 dune exec bench/main.exe -- mer fault > /tmp/ron_mer_smoke_j1.txt
	RON_JOBS=4 dune exec bench/main.exe -- mer fault > /tmp/ron_mer_smoke_j4.txt
	cmp /tmp/ron_mer_smoke_j1.txt /tmp/ron_mer_smoke_j4.txt

# Triangulation smoke: Theorem 3.2's experiment (the beacon rows, their
# merge-join estimate and the common-beacon baseline), Theorem 3.4's labels
# built on the rows, and Figure 1, at RON_JOBS=1 and 4 — the outputs must
# be byte-identical. Outputs land in /tmp for CI to archive.
tri-smoke: build
	RON_JOBS=1 dune exec bench/main.exe -- e32 e34 fig1 > /tmp/ron_tri_smoke_j1.txt
	RON_JOBS=4 dune exec bench/main.exe -- e32 e34 fig1 > /tmp/ron_tri_smoke_j4.txt
	cmp /tmp/ron_tri_smoke_j1.txt /tmp/ron_tri_smoke_j4.txt

# Route smoke: Tables 1-3, Theorem 2.1's stretch sweep and Theorem 4.1's
# headers, which route all six live schemes (Basic, Labelled, Full_table,
# On_metric, Labelled_m, Two_mode) through the one route loop, at
# RON_JOBS=1 and 4 — the outputs must be byte-identical, and the RON_JOBS=1
# output must equal the committed test/route_smoke.golden, so a change that
# moves a table or sweep line fails here unless it updates that file too.
# Then the observed counters (decode steps, translation lookups, hops) of
# Theorem 2.1's routes on a grid and of the metric scheme's on a cloud:
# each --metrics-out file must be equal at RON_JOBS=1 and 4 and equal to
# its committed test/route_metrics_*.golden. Fault and churn routes run
# under mer-smoke and churn-smoke. Outputs land in /tmp for CI to archive.
route-smoke: build
	RON_JOBS=1 dune exec bench/main.exe -- t1 t2 t3 e21 e41 > /tmp/ron_route_smoke_j1.txt
	RON_JOBS=4 dune exec bench/main.exe -- t1 t2 t3 e21 e41 > /tmp/ron_route_smoke_j4.txt
	cmp test/route_smoke.golden /tmp/ron_route_smoke_j1.txt
	cmp /tmp/ron_route_smoke_j1.txt /tmp/ron_route_smoke_j4.txt
	@set -e; for spec in "grid 64 thm21" "cloud 128 metric"; do \
	  set -- $$spec; \
	  for j in 1 4; do \
	    RON_JOBS=$$j dune exec bin/ron_cli.exe -- route -m $$1 -n $$2 -p 200 --scheme $$3 \
	      --metrics-out /tmp/ron_route_metrics_$$1_j$$j.json > /dev/null; \
	  done; \
	  cmp /tmp/ron_route_metrics_$$1_j1.json /tmp/ron_route_metrics_$$1_j4.json; \
	  cmp test/route_metrics_$$1$$2_$$3.golden /tmp/ron_route_metrics_$$1_j1.json; \
	  echo "route-smoke: $$3 on $$1 $$2: --metrics-out equal at RON_JOBS=1 and 4 and to its golden"; \
	done

# Telemetry smoke: the n = 10^5 scale run with the runtime sampler on,
# then validate the snapshot series (seq/ts monotone, typed sections) and
# render the per-series report; the series without its second sample (a
# seq gap) must be refused. The JSONL lands in /tmp for CI to archive.
TELEMETRY_SMOKE_N ?= 100000
TELEMETRY_SMOKE_INTERVAL_MS ?= 200
telemetry-smoke: build
	timeout $(SCALE_SMOKE_BUDGET_S) dune exec bench/main.exe -- \
	  --json /tmp/ron_telemetry_smoke_bench.json --scale-only \
	  --scale $(TELEMETRY_SMOKE_N) \
	  --telemetry /tmp/ron_telemetry_smoke.jsonl \
	  --telemetry-interval $(TELEMETRY_SMOKE_INTERVAL_MS)
	dune exec bin/ron_obs.exe -- check /tmp/ron_telemetry_smoke.jsonl
	dune exec bin/ron_obs.exe -- report /tmp/ron_telemetry_smoke.jsonl
	dune exec bin/ron_obs.exe -- report /tmp/ron_telemetry_smoke.jsonl --json \
	  > /tmp/ron_telemetry_smoke_report.json
	sed '2d' /tmp/ron_telemetry_smoke.jsonl > /tmp/ron_telemetry_smoke_gap.jsonl
	@$(call refused,/tmp/ron_telemetry_smoke_gap.jsonl)
	grep -q '"rss_kb"' /tmp/ron_telemetry_smoke_report.json
	grep -q '"gc.major_words"' /tmp/ron_telemetry_smoke_report.json
	grep -q '"gauge:oracle.rows_cached"' /tmp/ron_telemetry_smoke_report.json

# Serving smoke: freeze a scheme into an off-heap snapshot, serve a seeded
# Zipf-skewed batch workload from it twice — once warm (built in-process
# at RON_JOBS=1, saving the snapshot) and once cold (reloaded from the
# file) — and assert the two runs produced byte-identical results (same
# workload digest). RON_JOBS=4 on the cold run doubles as a jobs-invariance
# check, and the warm snapshot saved again at RON_JOBS=4 must equal the
# first byte for byte (cmp). Every scheme's snapshot runs the check, so the
# columns each scheme builds round-trip through save and load; the DLS
# schemes (labelled, two_mode) serve fewer queries, at fixed sizes, because
# their per-query cost is far higher. Basic runs twice more, on the 20x20
# grid, where the rings of the finer scales differ by node, so a hop
# decodes to fewer levels than j_ut and its ring positions index first-hop
# rows of different lengths. Each warm run's digest and its snapshot's
# cksum must equal the committed test/serve_smoke.golden (written at the
# default sizes), so a change that moves a served answer or a snapshot
# byte fails here unless it updates that file too. Last, a truncated copy
# of each of the five snapshots, and a copy of the basic one whose version
# word reads 1, must each be refused with the loader's message and exit 1.
SERVE_SMOKE_N ?= 100
SERVE_SMOKE_QUERIES ?= 20000
serve-smoke: build
	@set -e; \
	: > /tmp/ron_serve_smoke_golden.txt; \
	for spec in "basic $(SERVE_SMOKE_N) $(SERVE_SMOKE_QUERIES) ron_serve_smoke" \
	            "basic 400 $(SERVE_SMOKE_QUERIES) ron_serve_smoke_basic400" \
	            "labelled 49 2000 ron_serve_smoke_labelled" \
	            "two_mode 64 2000 ron_serve_smoke_two_mode" \
	            "meridian $(SERVE_SMOKE_N) $(SERVE_SMOKE_QUERIES) ron_serve_smoke_meridian" \
	            "landmark $(SERVE_SMOKE_N) $(SERVE_SMOKE_QUERIES) ron_serve_smoke_landmark"; do \
	  set -- $$spec; \
	  RON_JOBS=1 dune exec bin/ron_cli.exe -- serve --scheme $$1 -n $$2 --queries $$3 \
	    --snapshot /tmp/$$4.snap | tee /tmp/$$4_warm.txt; \
	  RON_JOBS=4 dune exec bin/ron_cli.exe -- serve --scheme $$1 -n $$2 --queries 10 \
	    --snapshot /tmp/$${4}_j4.snap > /dev/null; \
	  if ! cmp /tmp/$$4.snap /tmp/$${4}_j4.snap; then \
	    echo "serve-smoke: $$1 snapshots saved at RON_JOBS=1 and 4 differ"; exit 1; \
	  else echo "serve-smoke: $$1 snapshots saved at RON_JOBS=1 and 4 are equal"; fi; \
	  RON_JOBS=4 dune exec bin/ron_cli.exe -- serve --load /tmp/$$4.snap --queries $$3 \
	    | tee /tmp/$$4_cold.txt; \
	  warm=$$(grep -o 'digest=[0-9a-f]*' /tmp/$$4_warm.txt); \
	  cold=$$(grep -o 'digest=[0-9a-f]*' /tmp/$$4_cold.txt); \
	  if [ -z "$$warm" ] || [ "$$warm" != "$$cold" ]; then \
	    echo "serve-smoke: $$1 warm/cold digests differ ($$warm vs $$cold)"; exit 1; \
	  else echo "serve-smoke: $$1 warm/cold digests match ($$warm)"; fi; \
	  echo "$$1 n=$$2 queries=$$3 $$warm $$(cksum < /tmp/$$4.snap | \
	    awk '{print "snapshot_cksum=" $$1 " bytes=" $$2}')" >> /tmp/ron_serve_smoke_golden.txt; \
	done; \
	if ! diff test/serve_smoke.golden /tmp/ron_serve_smoke_golden.txt; then \
	  echo "serve-smoke: digests or snapshot checksums differ from test/serve_smoke.golden"; exit 1; \
	else echo "serve-smoke: digests and snapshot checksums match test/serve_smoke.golden"; fi; \
	for kind in route dist; do \
	  if ! grep -q "^latency kind=$$kind p50=" /tmp/ron_serve_smoke_labelled_warm.txt; then \
	    echo "serve-smoke: labelled's mixed workload reports no $$kind latency line"; exit 1; \
	  else echo "serve-smoke: labelled reports its $$kind latency"; fi; \
	done; \
	for snap in ron_serve_smoke ron_serve_smoke_labelled ron_serve_smoke_two_mode \
	            ron_serve_smoke_meridian ron_serve_smoke_landmark; do \
	  head -c 4096 /tmp/$$snap.snap > /tmp/$${snap}_truncated.snap; \
	  status=0; \
	  dune exec bin/ron_cli.exe -- serve --load /tmp/$${snap}_truncated.snap --queries 10 \
	    2> /tmp/$${snap}_truncated.txt || status=$$?; \
	  if [ $$status -ne 1 ] || \
	     ! grep -q 'cannot load snapshot .*truncated' /tmp/$${snap}_truncated.txt; then \
	    echo "serve-smoke: truncated $$snap gave exit $$status, expected 1 and the loader's message"; \
	    cat /tmp/$${snap}_truncated.txt; exit 1; \
	  else echo "serve-smoke: truncated $$snap rejected with exit 1"; fi; \
	done; \
	cp /tmp/ron_serve_smoke.snap /tmp/ron_serve_smoke_v1.snap; \
	printf '\001' | dd of=/tmp/ron_serve_smoke_v1.snap bs=1 seek=8 conv=notrunc 2> /dev/null; \
	status=0; \
	dune exec bin/ron_cli.exe -- serve --load /tmp/ron_serve_smoke_v1.snap --queries 10 \
	  2> /tmp/ron_serve_smoke_v1.txt || status=$$?; \
	if [ $$status -ne 1 ] || \
	   ! grep -q 'cannot load snapshot .*unsupported snapshot version 1' /tmp/ron_serve_smoke_v1.txt; then \
	  echo "serve-smoke: version-1 snapshot gave exit $$status, expected 1 and the loader's message"; \
	  cat /tmp/ron_serve_smoke_v1.txt; exit 1; \
	else echo "serve-smoke: version-1 snapshot rejected with exit 1"; fi

# SLO smoke: serve a batch with the burn-rate monitor, flight recorder,
# and Prometheus exposition all on; validate the exposition file and the
# verdict, render the verdict (human + JSON), and assert the verdict
# carries windows and a burn rate. An exposition whose cumulative bucket
# counts decrease, and the verdict under another schema, must be refused.
SLO_SMOKE_N ?= 100
SLO_SMOKE_QUERIES ?= 20000
slo-smoke: build
	dune exec bin/ron_cli.exe -- serve --scheme basic -n $(SLO_SMOKE_N) \
	  --queries $(SLO_SMOKE_QUERIES) \
	  --slo "p99<=50us,delivery>=0.99" --slo-out /tmp/ron_slo_smoke.json \
	  --flight 4 --expo /tmp/ron_slo_smoke.prom \
	  | tee /tmp/ron_slo_smoke_serve.txt
	grep -q '^flight recorded=' /tmp/ron_slo_smoke_serve.txt
	grep -q '^slo ' /tmp/ron_slo_smoke_serve.txt
	dune exec bin/ron_obs.exe -- check /tmp/ron_slo_smoke.prom
	dune exec bin/ron_obs.exe -- check /tmp/ron_slo_smoke.json
	dune exec bin/ron_obs.exe -- report /tmp/ron_slo_smoke.json
	dune exec bin/ron_obs.exe -- report /tmp/ron_slo_smoke.json --json \
	  > /tmp/ron_slo_smoke_report.json
	grep -q '"max_burn_rate"' /tmp/ron_slo_smoke_report.json
	grep -q '"windows"' /tmp/ron_slo_smoke_report.json
	awk '/_bucket\{le="[0-9]/ && prev ~ /_bucket\{le="[0-9]/ && !done { sub(/ [^ ]*$$/, " 0"); done = 1 } \
	  { print; prev = $$0 }' /tmp/ron_slo_smoke.prom > /tmp/ron_slo_smoke_decreasing.prom
	@$(call refused,/tmp/ron_slo_smoke_decreasing.prom)
	sed 's|"ron-slo/1"|"ron-slo/0"|' /tmp/ron_slo_smoke.json > /tmp/ron_slo_smoke_schema.json
	@$(call refused,/tmp/ron_slo_smoke_schema.json)

# Profiler smoke: a profiled + traced routing run; validate the profile
# and the trace, aggregate the trace into the per-span table / folded
# stacks and assert the phase profile is non-empty (construct.* and
# query.* phases must have fired). The trace cut short must be refused.
profile-smoke: build
	dune exec bin/ron_cli.exe -- route -m grid -n 64 -p 200 \
	  --profile /tmp/ron_profile_smoke.json --trace /tmp/ron_profile_trace.jsonl
	dune exec bin/ron_obs.exe -- check /tmp/ron_profile_smoke.json
	dune exec bin/ron_obs.exe -- check /tmp/ron_profile_trace.jsonl
	dune exec bin/ron_obs.exe -- report /tmp/ron_profile_trace.jsonl \
	  --folded /tmp/ron_profile_folded.txt
	head -c -20 /tmp/ron_profile_trace.jsonl > /tmp/ron_profile_trace_cut.jsonl
	@$(call refused,/tmp/ron_profile_trace_cut.jsonl)
	grep -q '"construct.basic"' /tmp/ron_profile_smoke.json
	grep -q 'construct.structure/zetas' /tmp/ron_profile_smoke.json
	grep -q '"query.routes"' /tmp/ron_profile_smoke.json

clean:
	dune clean
