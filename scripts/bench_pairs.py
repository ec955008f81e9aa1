"""Alternated benchmark pairs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload ppo-train --pairs 5

Copies the parent revision (with `git archive`) and the working tree's
files (tracked and untracked, less what `.gitignore` lists) into fresh
temporary directories, so both sides run from alike new checkouts. Then runs
`perfbench/run.py --trace 0` of the parent and of the working tree in turn,
swapping which side goes first in every pair, and prints both sides' values
of every end-to-end metric after each pair. At the end it prints each side's
median and quartiles of every metric, how many pairs the working tree won,
whether the gain rule (`gain_rule`) holds, and whether both sides printed the
same output digests; its last line is one JSON object with every run's
metrics and digests at full precision and the per-metric summary. The
temporary directories are removed at the end. Exit code 0 when every run was
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


def gain_rule(parent: list[float], change: list[float], better: str) -> dict:
    """The gain rule on one metric's paired values (`better` is "lower" or
    "higher"): the change is better in at least 9 of every 10 pairs, a tie
    counting for neither side, and the medians lie further apart in the
    better direction than the parent's interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    (q1, parent_median, q3), (_, change_median, _) = quartiles(parent), quartiles(change)
    gap, iqr = sign * (parent_median - change_median), q3 - q1
    return {"wins": wins, "ties": len(parent) - wins - losses, "losses": losses,
            "median_gap": gap, "parent_iqr": iqr,
            "holds": 10 * wins >= 9 * len(parent) and gap > iqr}


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
            print(f"pair {pair + 1}/{args.pairs}:", flush=True)
            for side in order:
                runs[side].append(run_side(checkouts[side], args.workload, args.seed,
                                           args.seconds))
                values = "  ".join(f"{name} {value:.6g}"
                                   for name, value in runs[side][-1]["metrics"].items())
                print(f"  {side:6s} {values}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, parent {rev} "
          f"against the working tree (median [q1, q3])")
    summary = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name] for r in runs[side]] for side in runs}
        stats = {side: quartiles(values[side]) for side in runs}
        rule = gain_rule(values["parent"], values["change"], direction)
        summary[name] = {"better": direction, **stats, **rule}
        cells = [f"{side} {q2:.6g} [{q1:.6g}, {q3:.6g}]" for side, (q1, q2, q3) in stats.items()]
        print(f"  {name:12s} {'  '.join(cells)}  change better in {rule['wins']}/{args.pairs}"
              f" ({rule['ties']} ties)")
        print(f"  {'':12s} gain rule {'holds' if rule['holds'] else 'does not hold'}: "
              f"{rule['wins']}/{args.pairs} pairs better (9/10 needed), median gap "
              f"{rule['median_gap']:.6g} against parent IQR {rule['parent_iqr']:.6g}")
    digests = {side: {d for r in runs[side] for d in r["digests"]} for side in runs}
    same = digests["parent"] == digests["change"]
    correct = all(r["correct"] for side in runs for r in runs[side])
    print(f"digests {'match' if same else 'differ'}: parent {sorted(digests['parent'])} "
          f"change {sorted(digests['change'])}")
    print(f"every run correct: {correct}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "pairs": args.pairs, "parent": rev, "runs": runs, "summary": summary,
                      "digests_match": same, "every_run_correct": correct}))
    return 0 if same and correct else 1


if __name__ == "__main__":
    sys.exit(main())
