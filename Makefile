# Convenience targets for the CRISP branch-folding reproduction.

PYTHON ?= python

.PHONY: install test bench bench-throughput bench-blockspec \
	eval report examples obs obs-overhead \
	campaign-overhead gate annotate trend fuzz fuzz-inject \
	fuzz-engines clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

eval:
	$(PYTHON) -m repro.eval.cli all

report:
	$(PYTHON) -m repro.eval.cli report
	$(PYTHON) -m repro.obs.cli trend

trend:
	$(PYTHON) -m repro.obs.cli trend

obs:
	$(PYTHON) -m repro.obs.cli --workload figure3 \
		--trace obs_trace.json --manifest obs_run.json \
		--metrics obs_metrics.jsonl

obs-overhead:
	$(PYTHON) -m pytest benchmarks/bench_obs_overhead.py -q -s

campaign-overhead:
	$(PYTHON) -m pytest benchmarks/bench_campaign_overhead.py -q -s

bench-throughput:
	$(PYTHON) -m pytest benchmarks/bench_sim_throughput.py -q -s

bench-blockspec:
	$(PYTHON) -m pytest benchmarks/bench_sim_throughput.py -q -s \
		-k blockspec

gate:
	$(PYTHON) -m repro.obs.cli gate --baseline BENCH_obs_baseline.json \
		--threshold 2% --update-trajectory BENCH_table4_trajectory.json

annotate:
	$(PYTHON) -m repro.obs.cli annotate --workload figure3 --spread

# the default fuzz mix already rotates {static, dynamic_fold @ conf 1/2/3}
fuzz:
	$(PYTHON) -m repro.verify.cli fuzz --seed 0 --budget 60 --jobs 0 \
		--coverage-out fuzz_coverage.json \
		--campaign-out fuzz_campaign

# every verified-correct fold forced down the recovery path
fuzz-inject:
	$(PYTHON) -m repro.verify.cli fuzz --seed 1 --budget 30 --jobs 0 \
		--inject always-wrong --coverage-out fuzz_coverage_inject.json \
		--campaign-out fuzz_campaign_inject

# 4-way differential: oracle / reference / fast / blockspec
fuzz-engines:
	$(PYTHON) -m repro.verify.cli fuzz --seed 2 --budget 60 --jobs 0 \
		--engine all --coverage-out fuzz_coverage_engines.json

examples:
	@for example in examples/*.py; do \
		echo "== $$example =="; \
		$(PYTHON) $$example || exit 1; \
	done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks build *.egg-info
	rm -f obs_trace.json obs_run.json obs_metrics.jsonl \
		fuzz_coverage.json fuzz_coverage_inject.json \
		fuzz_coverage_engines.json \
		fuzz_campaign.json fuzz_campaign.jsonl fuzz_campaign_trace.json \
		fuzz_campaign_inject.json fuzz_campaign_inject.jsonl \
		fuzz_campaign_inject_trace.json \
		fuzz_campaign_report.md fuzz_campaign_inject_report.md \
		trend_report.md
