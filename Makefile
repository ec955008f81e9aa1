.PHONY: test test-fast paper-run

test:
	pytest -v

test-fast:
	pytest -v -m "not slow"

# One full multi-function training (5000 episodes over the whole registry).
# Took 342 s (61 PPO iterations) on a 2-CPU Intel Xeon VM, numpy 2.4.6.
paper-run:
	printf '%s\n' \
	  '{' \
	  '  "algorithm": "de",' \
	  '  "action": "de_uniform",' \
	  '  "training": {"mode": "multi", "episodes": 5000},' \
	  '  "seed": 0,' \
	  '  "out": "results/paper-run"' \
	  '}' > results_paper_run_config.json
	evoadapt train --config results_paper_run_config.json
