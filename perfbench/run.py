"""evoadapt benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload de-protocol --seed 1 --seconds 40 --trace 0

Runs whole rounds of the workload, each in a fresh process (worker.py),
until another round would end past --seconds; at least one round runs.
--trace 0 reports the end-to-end metrics as medians over the rounds (wall
time as the sum of each command's median).
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones, plus the tracing overhead. Every round's outputs
are checked and digested; the last line of stdout is the JSON result. Exit
code 0 when every check passed, 1 when one failed, 2 when the benchmark
cannot run at all. Needs only Python and numpy: src/ is put on the import
path, nothing has to be installed. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("de-protocol", "cmaes-protocol", "ppo-train")

RUN_LIMIT_S = 150.0       # no round may start that would end past this
ROUND_TIMEOUT_S = 120.0
MIN_SETUP_SAMPLES = 7

END_TO_END = {"setup_s": "s", "wall_s": "s", "evals_per_s": "evals/s", "peak_rss_mb": "MB"}

# Objective functions whose per-row cost is reported: both protocol slices.
SLICE_FUNCTIONS = ("Sphere-10", "Katsuura-10", "Weierstrass-10", "BuecheRastrigin-5",
                   "GG101me-20", "RosenbrockRotated-20", "SchaffersIllConditioned-20",
                   "GG21hi-20", "LunacekBiR-20", "CompositeGR-5")
PER_LAYER = {
    "benchmarks.objective.calls": "count",
    "benchmarks.objective.rows": "count",
    "benchmarks.objective.rows_per_call": "rows/call",
    "benchmarks.objective.self_s": "s",
    **{f"benchmarks.objective.us_per_row.{f}": "us" for f in SLICE_FUNCTIONS},
    "de.de_generation.calls": "count",
    "de.de_generation.self_s": "s",
    "de.init_population.self_s": "s",
    "cmaes.cma_generation.calls": "count",
    "cmaes.cma_generation.self_s": "s",
    "baselines.ide.self_s": "s",
    "baselines.jde.self_s": "s",
    "baselines.csa.self_s": "s",
    "observe.build_observation.calls": "count",
    "observe.build_observation.self_s": "s",
    "observe.trace.self_s": "s",
    "policy.forward.calls": "count",
    "policy.forward.self_s": "s",
    "policy.decode.self_s": "s",
    "policy.mlp_forward_cache.self_s": "s",
    "policy.mlp_backward.self_s": "s",
    "policy.load_checkpoint.calls": "count",
    "policy.load_checkpoint.self_s": "s",
    "ppo.ppo_loss.calls": "count",
    "ppo.ppo_loss.self_s": "s",
    "ppo.optimizer_step.self_s": "s",
    "ppo.clip_gradients.self_s": "s",
    "ppo.compute_gae.self_s": "s",
    "ppo.train.self_s": "s",
    "envloop.protocol.calls": "count",
    "envloop.protocol.self_s": "s",
    "envloop.episode.self_s": "s",
    "envloop.env.calls": "count",
    "envloop.env.self_s": "s",
    "envloop.export_trace_csv.self_s": "s",
    "stats.self_s": "s",
    "config.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class RoundError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, trace: str | None = None,
               setup_only: bool = False) -> dict:
    """One worker process; returns its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd += ["--trace", trace]
    if setup_only:
        cmd += ["--setup-only"]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_round(workload: str, seed: int, trace: str | None) -> dict:
    shutil.rmtree(os.path.join(OUT, workload), ignore_errors=True)
    return run_worker(workload, seed, trace)


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "evoadapt", "cli.py")):
        print(f"error: no evoadapt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    plain, traced = [], []
    start = time.monotonic()
    limit = min(float(args.seconds), RUN_LIMIT_S)
    try:
        while True:
            cycle_start = time.monotonic()
            plain.append(run_round(args.workload, args.seed, None))
            if args.trace:
                spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}-{len(traced)}.npz")
                traced.append(run_round(args.workload, args.seed, spans))
            now = time.monotonic()
            if now - start + (now - cycle_start) > limit:
                break
        setups = [r["setup_s"] for r in plain]
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_worker(args.workload, args.seed, setup_only=True)["setup_s"])
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rounds = plain + traced
    failures = [f for r in rounds for f in r["failures"]]
    digests = {r["digest"] for r in rounds}
    if len(digests) > 1:
        failures.append(("digest-repeat", f"rounds of one seed wrote different outputs: {digests}"))
    for i, r in enumerate(rounds):
        kind = "traced" if i >= len(plain) else "untraced"
        print(f"round {i} {kind}: wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"evals={r['evals']} failed={r['failed']}/{r['attempted']}")
    print(f"digest {args.workload} seed={args.seed}: {' '.join(sorted(digests))}")
    for check_id, message in failures:
        print(f"CHECK FAILED [{check_id}] {message}")

    if args.trace:
        layers = [r["layers"] for r in traced]
        values = {name: median([l.get(name, 0) for l in layers]) for name in PER_LAYER}
        values["cli.output_bytes"] = median([r["output_bytes"] for r in traced])
        values["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                      - median([r["wall_s"] for r in plain]))
        missing = sorted({t for r in traced for t in r["trace_missing"]})
        if missing:
            print(f"not traced (absent from the program): {' '.join(missing)}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        # Each command's median over the rounds, summed: a burst of outside
        # load that slows part of one round moves this less than a median of
        # whole rounds would.
        wall_s = sum(median(times) for times in zip(*(r["op_wall_s"] for r in plain)))
        values = {
            "setup_s": median(setups),
            "wall_s": wall_s,
            "evals_per_s": median([r["evals"] for r in plain]) / wall_s,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
