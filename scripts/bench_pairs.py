"""Alternated benchmark pairs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload ppo-train --pairs 5

Copies the parent revision (with `git archive`) and the working tree's
files (tracked and untracked, less what `.gitignore` lists) into fresh
temporary directories, so both sides run from alike new checkouts. Then runs
`perfbench/run.py --trace 0` of the parent and of the working tree in turn,
swapping which side goes first in every pair. Prints each side's
median and quartiles of every end-to-end metric, how many pairs the working
tree won, whether the gain rule holds (better in at least 9 of every 10
pairs, and the median gap in the better direction larger than the parent's
interquartile range), and whether both sides printed the same output
digests. The temporary directories are removed at the end. Exit code 0 when every run was
correct and the digests match, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_side(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One `perfbench/run.py --trace 0` run: its metrics, digests and verdict."""
    proc = subprocess.run([sys.executable, os.path.join(checkout, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise SystemExit(f"error: perfbench could not run in {checkout}")
    result = json.loads(lines[-1])
    digests = [line.split(": ", 1)[1] for line in lines if line.startswith("digest ")]
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "digests": digests, "correct": result["correct"]}


def export_working_tree(dest: str) -> None:
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, check=True,
                           stdout=subprocess.PIPE, text=True).stdout.split("\0")
    for name in filter(None, names):
        if os.path.isfile(os.path.join(ROOT, name)):  # not a deleted tracked file
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, name), os.path.join(dest, name))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True).stdout.strip()
    tmp = tempfile.mkdtemp(prefix=f"bench-pairs-{rev}-")
    checkouts = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
    try:
        archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                                 check=True, stdout=subprocess.PIPE).stdout
        os.makedirs(checkouts["parent"])
        subprocess.run(["tar", "-x", "-C", checkouts["parent"]], input=archive, check=True)
        export_working_tree(checkouts["change"])
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_side(checkouts[side], args.workload, args.seed,
                                           args.seconds))
            walls = "  ".join(f"{side} {runs[side][-1]['metrics']['wall_s']:.3f} s"
                              for side in order)
            print(f"pair {pair + 1}/{args.pairs}: {walls}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, parent {rev} "
          f"against the working tree (median [q1, q3])")
    for name, direction in better.items():
        values = {side: [r["metrics"][name] for r in runs[side]] for side in runs}
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        stats = {side: quartiles(values[side]) for side in runs}
        cells = [f"{side} {q2:.4g} [{q1:.4g}, {q3:.4g}]" for side, (q1, q2, q3) in stats.items()]
        print(f"  {name:12s} {'  '.join(cells)}  change better in {wins}/{args.pairs}")
        # the gain rule: better in 9 of 10 pairs, and the medians further apart
        # than the parent's quartiles, in the better direction
        gap = stats["parent"][1] - stats["change"][1]
        gap = gap if direction == "lower" else -gap
        iqr = stats["parent"][2] - stats["parent"][0]
        holds = 10 * wins >= 9 * args.pairs and gap > iqr
        print(f"  {'':12s} gain rule {'holds' if holds else 'does not hold'}: "
              f"{wins}/{args.pairs} pairs better (9/10 needed), median gap {gap:.4g} "
              f"against parent IQR {iqr:.4g}")
    digests = {side: {d for r in runs[side] for d in r["digests"]} for side in runs}
    same = digests["parent"] == digests["change"]
    correct = all(r["correct"] for side in runs for r in runs[side])
    print(f"digests {'match' if same else 'differ'}: parent {sorted(digests['parent'])} "
          f"change {sorted(digests['change'])}")
    print(f"every run correct: {correct}")
    return 0 if same and correct else 1


if __name__ == "__main__":
    sys.exit(main())
