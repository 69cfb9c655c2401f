# Convenience targets; everything assumes the in-tree layout (PYTHONPATH=src)
# so no install step is needed.

PY ?= python
PYTEST = PYTHONPATH=src $(PY) -m pytest

.PHONY: test coverage chaos soak soak-tests bench bench-perf \
    bench-perf-check bench-gate trace obs-smoke analyze-smoke \
    encounters-smoke convert-smoke serve-smoke prof-smoke perfbench-selftest \
    examples-smoke clean

# Chaos-soak knobs (override on the command line: make soak EPISODES=10).
EPISODES ?= 25
SEED ?= 1
SOAK_DIR ?= soak-run

PERF_MODULES = benchmarks/test_perf_engine.py benchmarks/test_perf_io.py \
    benchmarks/test_perf_primitives.py benchmarks/test_perf_analysis.py \
    benchmarks/test_perf_serve.py benchmarks/test_perf_encounters.py

## Tier-1 suite: unit / integration / property tests (the CI gate).
test:
	$(PYTEST) tests/ -q

## Tier-1 suite under coverage with a hard floor (requires pytest-cov).
coverage:
	$(PYTEST) tests/ -q --cov=repro --cov-report=term-missing \
	    --cov-fail-under=80

## Fault-injection suite: corrupt the small preset with every fault class
## and prove quarantine-and-continue ingestion survives it end to end.
chaos:
	$(PYTEST) tests/logs/test_faults.py tests/logs/test_quarantine.py \
	    tests/logs/test_roundtrip_property.py tests/test_chaos.py \
	    tests/chaos/ -q

## Continuous chaos soak: EPISODES seeded episodes of simulate ->
## corrupt -> lenient-analyze per wire format (csv.gz and bin) under the
## default time-varying fault schedule, checking invariants each episode
## (exact quarantine accounting, no crash, report panels within bands,
## serial == sharded lenient equality).  Failing episodes leave shrunk
## replay capsules in $(SOAK_DIR)/replays/; re-run one with
## `PYTHONPATH=src python -m repro replay <capsule.json>`.
soak:
	rm -rf $(SOAK_DIR)
	PYTHONPATH=src $(PY) -m repro soak --out $(SOAK_DIR) \
	    --episodes $(EPISODES) --seed $(SEED)

## Soak-marked pytest tier: multi-episode campaigns + the deliberate
## failure -> shrink -> replay acceptance path (excluded from tier-1).
soak-tests:
	$(PYTEST) tests/ -q -m soak

## Regenerate every paper figure into benchmarks/reports/ (slow: runs a
## paper-scale simulation once).
bench:
	$(PYTEST) benchmarks/ --benchmark-only

## Performance benchmarks only: engine throughput, CSV I/O, kernels.
## A perf session also refreshes the canonical BENCH_repro.json at the
## repo root and appends one record to benchmarks/reports/history.jsonl.
bench-perf:
	$(PYTEST) $(PERF_MODULES)

## Perf modules with timing disabled — fast correctness pass for CI.  The
## encounter module's medium-preset checks (streaming join and 4-way
## sector-sharded join + merge equal the batch panel) run here too.
bench-perf-check:
	$(PYTEST) benchmarks/test_perf_engine.py benchmarks/test_perf_io.py \
	    benchmarks/test_perf_encounters.py -q --benchmark-disable

## Perf-regression gate: stash the committed BENCH_repro.json baseline,
## re-run the perf benchmarks (rewriting BENCH_repro.json), then diff the
## fresh run against the baseline with the compare engine.  Exits 3 (and
## fails the target) when any aligned span got >15% slower.  The gate
## only weighs spans >=0.25s (stricter than the CLI's 50ms default) so
## scheduler noise on sub-100ms spill spans cannot flake CI.  First-ever
## run (no committed baseline) records the fresh report and passes.
bench-gate:
	@mkdir -p benchmarks/reports
	@if [ -f BENCH_repro.json ]; then \
	    cp BENCH_repro.json benchmarks/reports/BENCH_baseline.json; \
	    echo "bench-gate: baseline = committed BENCH_repro.json"; \
	else \
	    rm -f benchmarks/reports/BENCH_baseline.json; \
	    echo "bench-gate: no committed baseline; will seed one"; \
	fi
	$(PYTEST) $(PERF_MODULES) -q
	@if [ -f benchmarks/reports/BENCH_baseline.json ]; then \
	    PYTHONPATH=src $(PY) -m repro obs compare \
	        benchmarks/reports/BENCH_baseline.json BENCH_repro.json \
	        --threshold 0.15 --min-wall 0.25 --fail-on-regression; \
	else \
	    echo "bench-gate: fresh BENCH_repro.json recorded; commit it as the baseline"; \
	fi

## Observability smoke: simulate the small preset sharded with metrics,
## chrome-trace and timeline-event artifacts, validate all three against
## their schemas, self-compare the run report (must exit 0), and render
## the stage table.  Artifacts land in obs-smoke/ (gitignored; CI uploads
## them).
obs-smoke:
	rm -rf obs-smoke && mkdir -p obs-smoke
	PYTHONPATH=src $(PY) -m repro simulate --preset small --seed 7 \
	    --shards 4 --workers 2 --out obs-smoke/trace \
	    --metrics-out obs-smoke/run-report.json \
	    --trace-out obs-smoke/perfetto-trace.json \
	    --events-out obs-smoke/events.jsonl
	PYTHONPATH=src $(PY) -c "\
	from repro.obs.export import validate_run_report_file, \
	    validate_chrome_trace_file; \
	from repro.obs.timeline import validate_events_file; \
	validate_run_report_file('obs-smoke/run-report.json'); \
	validate_chrome_trace_file('obs-smoke/perfetto-trace.json'); \
	events = validate_events_file('obs-smoke/events.jsonl'); \
	shards = sorted({e.get('shard') for e in events \
	    if e['type'] == 'progress' and 'shard' in e}); \
	assert shards == [0, 1, 2, 3], shards; \
	print('obs-smoke: all three artifacts schema-valid, '\
	    f'{len(events)} events, per-shard progress monotonic')"
	PYTHONPATH=src $(PY) -m repro obs compare obs-smoke/run-report.json \
	    obs-smoke/run-report.json >/dev/null
	PYTHONPATH=src $(PY) -m repro obs summarize obs-smoke/run-report.json

## Parallel-analysis smoke: export the small preset, map-reduce it over
## 4 account shards (metrics + timeline artifacts), then
## validate the artifacts: every shard must report aggregate progress,
## the run report must carry the analyze.parallel -> analyze.load (the
## one parent load) -> analyze.shard -> analyze.merge span chain, and
## its log rows-read counter must equal the data rows of the two CSV
## logs (each log decoded once, not once per shard).  Artifacts land in
## analyze-smoke/ (gitignored; CI uploads them).
analyze-smoke:
	rm -rf analyze-smoke && mkdir -p analyze-smoke
	PYTHONPATH=src $(PY) -m repro simulate --preset small --seed 7 \
	    --out analyze-smoke/trace
	PYTHONPATH=src $(PY) -m repro analyze analyze-smoke/trace \
	    --shards 4 --figures fig2a,fig8 \
	    --out analyze-smoke/figures \
	    --metrics-out analyze-smoke/run-report.json \
	    --events-out analyze-smoke/events.jsonl
	PYTHONPATH=src $(PY) -c "\
	from repro.obs.compare import span_index; \
	from repro.obs.export import validate_run_report_file; \
	from repro.obs.timeline import validate_events_file; \
	report = validate_run_report_file('analyze-smoke/run-report.json'); \
	paths = set(span_index(report)); \
	needed = ('analyze.parallel', 'analyze.load', 'analyze.shard[', \
	    'analyze.merge', 'analyze.finalize'); \
	missing = [n for n in needed if not any(n in p for p in paths)]; \
	assert not missing, missing; \
	read = sum(c['value'] for c in report['metrics']['counters'] \
	    if c['name'] == 'repro_io_rows_read_total' \
	    and c['labels'].get('category') == 'log'); \
	rows = sum(sum(1 for _ in open(f'analyze-smoke/trace/{n}.csv')) - 1 \
	    for n in ('proxy', 'mme')); \
	assert read == rows, f'log rows read {read:.0f} != {rows} trace rows'; \
	events = validate_events_file('analyze-smoke/events.jsonl'); \
	shards = sorted({e.get('shard') for e in events \
	    if e['type'] == 'progress' and e.get('stage') == 'aggregate'}); \
	assert shards == [0, 1, 2, 3], shards; \
	print('analyze-smoke: run report + timeline schema-valid, ' \
	    f'{len(events)} events, all 4 shards aggregated, ' \
	    f'{rows} log rows read once')"
	PYTHONPATH=src $(PY) -m repro obs summarize analyze-smoke/run-report.json

## Encounter-join smoke: export the small preset, run the encounters
## figure through the batch pipeline and through the 4-shard map-reduce,
## and require the JSON panel and the rendered figure to be
## byte-identical (the encounter join sits in the bit-exact merge tier).
## Artifacts land in encounters-smoke/ (gitignored; CI uploads them).
encounters-smoke:
	rm -rf encounters-smoke && mkdir -p encounters-smoke
	PYTHONPATH=src $(PY) -m repro simulate --preset small --seed 7 \
	    --out encounters-smoke/trace
	PYTHONPATH=src $(PY) -m repro analyze encounters-smoke/trace \
	    --figures encounters --out encounters-smoke/batch \
	    --json encounters-smoke/batch.json
	PYTHONPATH=src $(PY) -m repro analyze encounters-smoke/trace \
	    --shards 4 --figures encounters \
	    --out encounters-smoke/par --json encounters-smoke/par.json
	PYTHONPATH=src $(PY) -c "\
	import json, pathlib, sys; \
	base = pathlib.Path('encounters-smoke'); \
	batch = json.loads((base / 'batch.json').read_text())['encounters']; \
	par = json.loads((base / 'par.json').read_text())['encounters']; \
	sys.exit('encounters-smoke: JSON panel diverged') \
	    if batch != par else None; \
	a = (base / 'batch' / 'encounters.txt').read_bytes(); \
	b = (base / 'par' / 'encounters.txt').read_bytes(); \
	sys.exit('encounters-smoke: rendered figure diverged') \
	    if a != b else None; \
	assert batch['n_pairs'] > 0 and batch['n_events'] >= batch['n_pairs']; \
	print('encounters-smoke: batch == 4-shard, ' \
	    f\"{batch['n_pairs']} pairs / {batch['n_events']} events\")"

## Format-conversion smoke: export the small preset as CSV, convert it to
## the binary columnar format and back, and require the round trip to be
## byte-identical (SHA-256 over both log files).  Proves the shipped
## trace encoding is lossless end to end through the real CLI.  Then
## analyze the CSV trace and the .bin copy and require byte-identical
## --json reports: the two column-table producers (rows from CSV, blocks
## decoded from .bin) must give one report.  Artifacts land in
## convert-smoke/ (gitignored).
convert-smoke:
	rm -rf convert-smoke && mkdir -p convert-smoke
	PYTHONPATH=src $(PY) -m repro simulate --preset small --seed 7 \
	    --out convert-smoke/trace
	PYTHONPATH=src $(PY) -m repro convert convert-smoke/trace \
	    --out convert-smoke/bin --to bin
	PYTHONPATH=src $(PY) -m repro convert convert-smoke/bin \
	    --out convert-smoke/back --to csv
	PYTHONPATH=src $(PY) -c "\
	import hashlib, pathlib, sys; \
	sha = lambda p: hashlib.sha256(p.read_bytes()).hexdigest(); \
	base = pathlib.Path('convert-smoke'); \
	bad = [n for n in ('proxy.csv', 'mme.csv') \
	    if sha(base / 'trace' / n) != sha(base / 'back' / n)]; \
	sys.exit(f'convert-smoke: round trip NOT lossless: {bad}') if bad \
	    else print('convert-smoke: csv -> bin -> csv byte-identical')"
	PYTHONPATH=src $(PY) -m repro analyze convert-smoke/trace \
	    --json convert-smoke/report-csv.json
	PYTHONPATH=src $(PY) -m repro analyze convert-smoke/bin \
	    --json convert-smoke/report-bin.json
	cmp convert-smoke/report-csv.json convert-smoke/report-bin.json
	@echo "convert-smoke: analyze --json identical for csv and bin"

## Live-serving smoke: start the daemon over a fresh small trace, check
## ETag caching on a panel endpoint, append rows and watch the ETag
## advance, stop it with SIGTERM, and verify the final served panel is
## identical to a batch analyze of the same trace; then restart it from
## its checkpoint and verify the restored panel too.  Artifacts land in
## serve-smoke/ (gitignored).
serve-smoke:
	rm -rf serve-smoke && mkdir -p serve-smoke
	PYTHONPATH=src $(PY) -m repro simulate --preset small --seed 7 \
	    --out serve-smoke/trace
	PYTHONPATH=src $(PY) tools/serve_smoke.py serve-smoke

## Profiler smoke: run a sharded analyze of the small preset twice under
## the sampling profiler (97 hz for sample density on a sub-second run),
## validate both profile/v1 artifacts, require the top self-time frame to
## sit in the CSV/binfmt decode path, check the collapsed-stack and
## speedscope exports parse with matching totals, and align the two runs
## with `obs compare --hotspots` (must exit 0).  Artifacts land in
## prof-smoke/ (gitignored; CI uploads them).
prof-smoke:
	rm -rf prof-smoke && mkdir -p prof-smoke
	PYTHONPATH=src $(PY) -m repro simulate --preset small --seed 7 \
	    --out prof-smoke/trace
	PYTHONPATH=src $(PY) -m repro analyze prof-smoke/trace \
	    --shards 4 --figures fig2a \
	    --profile-out prof-smoke/p.json --profile-hz 97
	PYTHONPATH=src $(PY) -m repro analyze prof-smoke/trace \
	    --shards 4 --figures fig2a \
	    --profile-out prof-smoke/q.json --profile-hz 97
	PYTHONPATH=src $(PY) -c "\
	import json; \
	from repro.obs.profiler import validate_profile_file, \
	    aggregate_hotspots; \
	docs = [validate_profile_file(f'prof-smoke/{n}.json') \
	    for n in 'pq']; \
	top = [max(((c[0], f) for (s, f), c in \
	    aggregate_hotspots(d).items()), key=lambda r: r[0]) \
	    for d in docs]; \
	bad = [f for _, f in top if not (f.startswith('csv:') \
	    or f.startswith('_csv') or f.startswith('repro.logs.'))]; \
	assert not bad, f'top frame outside decode path: {bad}'; \
	collapsed = open('prof-smoke/p.collapsed.txt').read().splitlines(); \
	folded = sum(int(line.rsplit(' ', 1)[1]) for line in collapsed); \
	ss = json.load(open('prof-smoke/p.speedscope.json')); \
	prof = ss['profiles'][0]; \
	assert sum(prof['weights']) == prof['endValue'] == folded, \
	    (sum(prof['weights']), prof['endValue'], folded); \
	assert all(i < len(ss['shared']['frames']) \
	    for s in prof['samples'] for i in s); \
	print('prof-smoke: both profiles schema-valid, top frames', \
	    [f for _, f in top], f'; {folded} folded self-samples')"
	PYTHONPATH=src $(PY) -m repro obs summarize prof-smoke/p.json --top 10
	PYTHONPATH=src $(PY) -m repro obs compare --hotspots \
	    prof-smoke/p.json prof-smoke/q.json --top 10

## Benchmark harness self-test on the small preset (about half a minute):
## every BENCHMARK.json metric is emitted with its unit, traced and
## untraced, the output checks fire on broken runs, and every program call
## the benchmark drives still exists — so a change that renames or deletes
## one fails here before the benchmark itself does.
perfbench-selftest:
	$(PY) perfbench/selftest.py

## Examples smoke: run every script in examples/ with its default
## arguments and fail if any exits non-zero or leaves anything in its
## temporary directory.  Each script's stdout lands in examples-smoke/
## (gitignored); the scripts run with TMPDIR=examples-smoke/tmp/, which
## must be empty after each one.
examples-smoke:
	rm -rf examples-smoke && mkdir -p examples-smoke/tmp
	for example in examples/*.py; do \
	    echo "examples-smoke: $$example"; \
	    TMPDIR=$$PWD/examples-smoke/tmp PYTHONPATH=src $(PY) $$example \
	        > examples-smoke/$$(basename $$example .py).out || exit 1; \
	    if [ -n "$$(ls -A examples-smoke/tmp)" ]; then \
	        echo "examples-smoke: $$example left in its TMPDIR:" \
	            $$(ls -A examples-smoke/tmp); \
	        exit 1; \
	    fi; \
	done
	rmdir examples-smoke/tmp

## Example end-to-end trace (sharded run, per-shard timings on stderr).
trace:
	PYTHONPATH=src $(PY) -m repro simulate --scale medium --seed 7 \
	    --out trace/ --shards 4

clean:
	rm -rf trace/ obs-smoke/ analyze-smoke/ encounters-smoke/ convert-smoke/ serve-smoke/ \
	    prof-smoke/ examples-smoke/ soak-run/ .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
