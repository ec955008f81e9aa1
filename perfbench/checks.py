"""Output checks. Each one is either recomputed here, apart from the program
(AUC, best of run, win probabilities, random search), or a property the
method must have (DE elitism, action ranges, the shape of the outputs).

A check reports `(check_id, message)` pairs; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random
import statistics

from workloads import (ACTION_BOX, CHECK_FUNCTION, EVALS_PER_RUN, GENERATIONS, POPULATION,
                       STEPS_PER_EPISODE, Op, expected_evals, expected_iterations,
                       observation_size)

AUC_RTOL = 1e-12
FIXED_DE = (0.5, 0.9)       # evoadapt's --fixed-f / --fixed-cr defaults
FIXED_SIGMA = 0.5           # --fixed-sigma default
JDE_BOX = ((0.1, 1.0), (0.0, 1.0))
IDE_BOX = ((0.0, 2.0), (0.0, 1.0))
LOSS_COLUMNS = ("mean_return", "policy_loss", "value_loss", "entropy")


class Outcome:
    """Failures of one op's checks, plus what the workload-level checks and
    the throughput metric need from its outputs."""

    def __init__(self):
        self.failures: list[tuple[str, str]] = []
        self.evals = 0
        self.bests: dict = {}       # evaluate: {(controller, function): [best per run]}
        self.cells: dict = {}       # compare: {(variant, label): cell text}

    def fail(self, check_id: str, message: str) -> None:
        self.failures.append((check_id, message))


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path} is empty")
    return rows[0], rows[1:]


def fn_label(function) -> str:
    return f"{function[0]}_{function[1]}"


def trapezoid(values) -> float:
    total = 0.0
    for a, b in zip(values, values[1:]):
        total += (a + b) / 2.0
    return total


def running_min(values) -> list:
    out, low = [], math.inf
    for v in values:
        low = min(low, v)
        out.append(low)
    return out


def _action_box(op: Op):
    if op.controller in ACTION_BOX:
        return ACTION_BOX[op.controller]
    if op.controller == "jde":
        return JDE_BOX
    if op.controller == "ide":
        return IDE_BOX
    if op.controller == "csa":
        return ((0.0, math.inf),)
    if op.controller == "fixed":
        return tuple((v, v) for v in (FIXED_DE if op.algorithm == "de" else (FIXED_SIGMA,)))
    raise ValueError(f"no action range known for controller {op.controller!r}")


def check_evaluate(op: Op, result: Outcome) -> None:
    (function,) = op.functions
    header, rows = _read_csv(os.path.join(op.out, "metrics.csv"))
    if header != ["run", "auc", "best_of_run"] or len(rows) != op.runs:
        result.fail("metrics-rows", f"{op.out}/metrics.csv: header {header}, {len(rows)} rows, "
                                    f"expected {op.runs}")
        return
    box = _action_box(op)
    bests = []
    trace_dir = os.path.join(op.out, fn_label(function))
    for run, row in enumerate(rows):
        path = os.path.join(trace_dir, f"run_{op.seed + run}.csv")
        if not os.path.exists(path):
            result.fail("trace-files", f"{path} is missing")
            continue
        header, trace = _read_csv(path)
        if len(trace) != GENERATIONS or [r[0] for r in trace] != [str(g) for g in range(GENERATIONS)]:
            result.fail("trace-rows", f"{path}: {len(trace)} rows, expected one per generation "
                                      f"({GENERATIONS})")
            continue
        result.evals += len(trace) * POPULATION
        best = [float(r[1]) for r in trace]
        auc, best_of_run = float(row[1]), float(row[2])
        bests.append(best_of_run)
        if best_of_run != min(best):
            result.fail("best-of-run", f"{path}: best_of_run {best_of_run!r} != min {min(best)!r}")
        own = trapezoid(running_min(best))
        if abs(auc - own) > AUC_RTOL * max(abs(auc), abs(own)):
            result.fail("auc", f"{path}: auc {auc!r} != trapezoid of running minimum {own!r}")
        if op.algorithm == "de" and any(b > a for a, b in zip(best, best[1:])):
            result.fail("de-elitist", f"{path}: best_fitness rises in a DE run")
        actions = [[float(v) for v in r[3:]] for r in trace]
        if header[3:] != [f"action_{i}" for i in range(len(box))] or any(
                not all(lo <= a <= hi for a, (lo, hi) in zip(act, box)) for act in actions):
            result.fail("action-range", f"{path}: recorded actions leave {op.controller}'s range {box}")
    result.bests[(op.controller, function)] = bests


def check_compare(op: Op, result: Outcome) -> None:
    path = os.path.join(op.out, "comparison_best.csv")
    header, rows = _read_csv(path)
    labels = [fn_label(f) for f in op.functions]
    if header != ["variant", "ratio"] + labels or [r[0] for r in rows] != list(op.variants):
        result.fail("compare-shape", f"{path}: header {header}, rows {[r[0] for r in rows]}")
        return
    grid = op.runs * op.runs
    for row in rows:
        if "n/a" in row:
            result.fail("compare-na", f"{path}: variant {row[0]} has an n/a cell")
            continue
        wins = losses = 0
        for label, text in zip(labels, row[2:]):
            result.cells[(row[0], label)] = text
            p = float(text)
            if not 0.0 <= p <= 1.0 or f"{round(p * grid) / grid:.6f}" != text:
                result.fail("compare-grid", f"{path}: {row[0]}/{label} = {text} is not a multiple "
                                            f"of 1/{grid} in [0, 1]")
            wins += p > 0.5
            losses += p < 0.5
        ratio = f"{wins / (wins + losses):.6f}" if wins + losses else "n/a"
        if row[1] != ratio:
            result.fail("compare-ratio", f"{path}: ratio {row[1]} != wins/(wins+losses) {ratio}")
    # one protocol per cell, plus the opponent's protocol per function
    cells = sum(text != "n/a" for row in rows for text in row[2:])
    result.evals += (cells + len(labels)) * op.runs * EVALS_PER_RUN


def check_train(op: Op, result: Outcome) -> None:
    iterations = expected_iterations(op.episodes, op.horizon)
    header, log = _read_csv(os.path.join(op.out, "training_log.csv"))
    if header[:2] != ["iteration", "episodes_done"] or len(log) != iterations:
        result.fail("train-rows", f"training_log.csv has {len(log)} rows, expected {iterations}")
        return
    for i, row in enumerate(log):
        done = (i + 1) * op.horizon // STEPS_PER_EPISODE
        if int(row[0]) != i or int(row[1]) != done:
            result.fail("train-episodes", f"training_log.csv row {i}: {row[:2]}, expected [{i}, {done}]")
        values = dict(zip(header, row))
        if not all(math.isfinite(float(values[c])) for c in LOSS_COLUMNS):
            result.fail("train-finite", f"training_log.csv row {i} has a non-finite loss: {row}")
    episodes_done = iterations * op.horizon // STEPS_PER_EPISODE

    from evoadapt.benchmarks import registry_list
    from evoadapt.policy import load_checkpoint
    registry = {(name, str(dim)) for name, dim in registry_list()}
    header, episodes = _read_csv(os.path.join(op.out, "episodes.csv"))
    if len(episodes) != episodes_done:
        result.fail("train-episode-log", f"episodes.csv has {len(episodes)} rows, "
                                         f"expected {episodes_done}")
    if any(int(r[0]) != i or (r[1], r[2]) not in registry for i, r in enumerate(episodes)):
        result.fail("train-episode-log", "episodes.csv names an entry outside the registry")
    try:
        policy, kind, _obs = load_checkpoint(os.path.join(op.out, "checkpoint.json"))
    except (OSError, ValueError) as exc:
        result.fail("train-checkpoint", f"checkpoint does not reload: {exc}")
    else:
        finite = all(math.isfinite(v) for p in policy.params() for v in p.ravel().tolist())
        if kind != op.controller or policy.in_dim != observation_size(kind) or not finite:
            result.fail("train-checkpoint", f"checkpoint kind {kind}, input size {policy.in_dim}, "
                                            f"finite weights {finite}")
    # each step is one generation and each reset (one per finished episode,
    # plus the first) one initial population
    result.evals += (len(log) * op.horizon + int(log[-1][1]) + 1) * POPULATION


CHECKERS = {"evaluate": check_evaluate, "compare": check_compare, "train": check_train}


def check_op(op: Op) -> Outcome:
    result = Outcome()
    try:
        CHECKERS[op.command](op, result)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        result.fail("unreadable", f"{op.out}: {type(exc).__name__}: {exc}")
        return result
    if result.evals != expected_evals(op):
        result.fail("evals-shape", f"{op.out}: outputs account for {result.evals} evaluations, "
                                   f"the op's shape for {expected_evals(op)}")
    return result


def win_probability(a, b) -> float:
    return sum(x < y for x in a for y in b) / (len(a) * len(b))


def random_search_bests(seed: int, runs: int, dim: int, evals: int = EVALS_PER_RUN,
                        lower: float = -5.0, upper: float = 5.0) -> list:
    """Best sum of squares over `evals` uniform points in the box, per run."""
    rng = random.Random(seed)
    width = upper - lower
    return [min(sum((lower + width * rng.random()) ** 2 for _ in range(dim)) for _ in range(evals))
            for _ in range(runs)]


def check_workload(ops, outcomes) -> list:
    """Checks across ops: controllers against each other and against
    uniform random search on Sphere, and compare cells recomputed from the
    evaluate outputs of the same seeds."""
    failures = []
    bests, cells = {}, {}
    for outcome in outcomes:
        bests.update(outcome.bests)
        cells.update(outcome.cells)
    fn = CHECK_FUNCTION
    median = {c: statistics.median(v) for (c, f), v in bests.items() if f == fn and v}
    seed, runs = ops[0].seed, ops[0].runs
    if "jde" in median and "fixed" in median:
        random_median = statistics.median(random_search_bests(seed, runs, fn[1]))
        for c in ("fixed", "jde"):
            if not median[c] < random_median:
                failures.append(("sphere-vs-random", f"{c} median best {median[c]!r} on {fn} is not "
                                                     f"below random search's {random_median!r}"))
    if "csa" in median and "fixed" in median and not median["csa"] < median["fixed"]:
        failures.append(("csa-vs-fixed", f"CSA median best {median['csa']!r} on {fn} is not below "
                                         f"fixed sigma's {median['fixed']!r}"))
    for op in ops:
        if op.command != "compare":
            continue
        opponent = "csa" if op.algorithm == "cmaes" else "jde"
        for variant in op.variants:
            a, b = bests.get((variant, fn)), bests.get((opponent, fn))
            text = cells.get((variant, fn_label(fn)))
            if a and b and text is not None and f"{win_probability(a, b):.6f}" != text:
                failures.append(("compare-recompute", f"{variant}/{fn_label(fn)} = {text}, but the "
                                                      f"evaluate outputs give {win_probability(a, b):.6f}"))
    return failures


def digest(root: str) -> str:
    """SHA-256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def output_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)
