.PHONY: test test-fast check settings bench bench-pairs bench-selftest paper-run

test:
	pytest -v

test-fast:
	pytest -v -m "not slow"

# The tier-1 suite (ROADMAP.md), whose tests/test_trace_targets.py fails when a
# function perfbench traces is gone, then the benchmark output-check self-test.
check:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
	python3 perfbench/selftest.py

# The number of settable values: config keys, CLI flags and defaulted
# parameters (see scripts/count_settings.py).
settings:
	python3 scripts/count_settings.py

# The three benchmark workloads, each timed end to end for 40 s (see perfbench/README.md).
bench:
	for workload in de-protocol cmaes-protocol ppo-train; do \
	  python3 perfbench/run.py --workload $$workload --seed 1 --seconds 40 --trace 0 || exit 1; \
	done

# Alternated perfbench runs of a parent revision and the working tree, e.g.
# make bench-pairs PARENT=HEAD WORKLOAD=ppo-train PAIRS=5 SEED=2 (see scripts/bench_pairs.py).
PARENT ?= HEAD
PAIRS ?= 3
SEED ?= 1
bench-pairs:
	python3 scripts/bench_pairs.py --parent $(PARENT) --workload $(WORKLOAD) --pairs $(PAIRS) \
	  --seed $(SEED)

# Show that every benchmark output check fails on a corrupted output.
bench-selftest:
	python3 perfbench/selftest.py

# One full multi-function training (5000 episodes over the whole registry).
# Took 47-57 s (61 PPO iterations) on a 2-CPU Intel Xeon VM, numpy 2.4.6.
paper-run:
	printf '%s\n' \
	  '{' \
	  '  "algorithm": "de",' \
	  '  "action": "de_uniform",' \
	  '  "training": {"mode": "multi", "episodes": 5000},' \
	  '  "seed": 0,' \
	  '  "out": "results/paper-run"' \
	  '}' > results_paper_run_config.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  python3 -m evoadapt.cli train --config results_paper_run_config.json
