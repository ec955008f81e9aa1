"""Self-test of the output checks: each check must fail on a corrupted output.

    python3 perfbench/selftest.py

Runs small versions of the three workloads (3 runs per protocol, a two-
iteration training with horizon 245 and 2 epochs), confirms that every
check passes on their outputs, then corrupts one output at a time and
confirms that the intended check reports it. Also confirms that the tracer
skips functions that no longer exist and that BENCHMARK.json lists the
metrics run.py prints. Exit code 0 when all of this holds.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_out", "selftest")
SEED = 5
RUNS = 3


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def edit_csv(path, row, col, change):
    rows = _rows(path)
    rows[row][col] = change(rows[row][col])
    _write(path, rows)


def trace_path(work, controller, function, run=0):
    name, dim = function
    return os.path.join(work, "outputs", f"eval-{controller}-{name}-{dim}", f"{name}_{dim}",
                        f"run_{SEED + run}.csv")


def metrics_path(work, controller, function):
    name, dim = function
    return os.path.join(work, "outputs", f"eval-{controller}-{name}-{dim}", "metrics.csv")


def last_digit(text):
    mantissa, e, exponent = text.partition("e")
    digit = mantissa[-1]
    return mantissa[:-1] + ("1" if digit != "1" else "2") + e + exponent


def drop_row(path, row=-1):
    rows = _rows(path)
    del rows[row]
    _write(path, rows)


def raise_best(path):
    rows = _rows(path)
    rows[10][1] = repr(float(rows[9][1]) + 1.0)
    _write(path, rows)


def swap_dirs(a, b):
    shutil.move(a, a + ".swap")
    shutil.move(b, a)
    shutil.move(a + ".swap", b)


def shift_cell(path, variant, label, grid):
    rows = _rows(path)
    col = rows[0].index(label)
    row = next(r for r in rows if r[0] == variant)
    k = round(float(row[col]) * grid)
    row[col] = f"{(k + 1 if k < grid else k - 1) / grid:.6f}"
    _write(path, rows)


def nan_weight(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc["layers"][0]["weights"][0][0] = float("nan")
    with open(path, "w") as fh:
        json.dump(doc, fh)


SPHERE = workloads.CHECK_FUNCTION
KAT = ("Katsuura", 10)
GRID = RUNS * RUNS


def corruptions(de, cma, ppo):
    """(description, check id that must fire, workload dir, mutation)."""
    d, c, p = de, cma, ppo
    cmp_de = os.path.join(d, "outputs", "compare", "comparison_best.csv")
    train = os.path.join(p, "outputs", "train")
    return [
        ("trace CSV with one row dropped", "trace-rows", d,
         lambda: drop_row(trace_path(d, "fixed", SPHERE))),
        ("trace CSV missing", "trace-files", d,
         lambda: os.remove(trace_path(d, "ide", KAT, 1))),
        ("auc changed in its 11th significant digit", "auc", d,
         lambda: edit_csv(metrics_path(d, "ide", KAT), 1, 1, lambda t: repr(float(t) * (1 + 1e-11)))),
        ("best_of_run changed in its last digit", "best-of-run", d,
         lambda: edit_csv(metrics_path(d, "jde", SPHERE), 2, 2, last_digit)),
        ("DE trace whose best fitness rises once", "de-elitist", d,
         lambda: raise_best(trace_path(d, "jde", SPHERE))),
        ("fixed F recorded as 0.5000001", "action-range", d,
         lambda: edit_csv(trace_path(d, "fixed", KAT), 7, 3, lambda _: "0.5000001")),
        ("jDE F of 1.2", "action-range", d,
         lambda: edit_csv(trace_path(d, "jde", SPHERE), 4, 3, lambda _: "1.2")),
        ("de_direct CR of 1.5", "action-range", d,
         lambda: edit_csv(trace_path(d, "de_direct", SPHERE), 4, 4, lambda _: "1.5")),
        ("fixed sigma recorded as 0.6", "action-range", c,
         lambda: edit_csv(trace_path(c, "fixed", SPHERE), 3, 3, lambda _: "0.6")),
        ("comparison cell set to n/a", "compare-na", d,
         lambda: edit_csv(cmp_de, 1, 3, lambda _: "n/a")),
        ("comparison cell off the 1/runs^2 grid", "compare-grid", d,
         lambda: edit_csv(cmp_de, 2, 4, lambda _: "0.123457")),
        ("comparison ratio changed", "compare-ratio", d,
         lambda: edit_csv(cmp_de, 1, 1, lambda t: "0.250000" if t != "0.250000" else "0.750000")),
        ("comparison cell moved by one grid step", "compare-recompute", d,
         lambda: shift_cell(cmp_de, "de_uniform", "Sphere_10", GRID)),
        ("fixed DE best-of-run no better than random search", "sphere-vs-random", d,
         lambda: [edit_csv(metrics_path(d, "fixed", SPHERE), r, 2, lambda _: "1000000.0")
                  for r in range(1, RUNS + 1)]),
        ("CSA and fixed sigma outputs swapped", "csa-vs-fixed", c,
         lambda: swap_dirs(os.path.dirname(metrics_path(c, "csa", SPHERE)),
                           os.path.dirname(metrics_path(c, "fixed", SPHERE)))),
        ("training log with one row dropped", "train-rows", p,
         lambda: drop_row(os.path.join(train, "training_log.csv"))),
        ("episodes_done off by one", "train-episodes", p,
         lambda: edit_csv(os.path.join(train, "training_log.csv"), 1, 1, lambda t: str(int(t) + 1))),
        ("non-finite policy loss", "train-finite", p,
         lambda: edit_csv(os.path.join(train, "training_log.csv"), 2, 3, lambda _: "nan")),
        ("episode log naming Sphere-5", "train-episode-log", p,
         lambda: [edit_csv(os.path.join(train, "episodes.csv"), 3, col, lambda _, v=v: v)
                  for col, v in ((1, "Sphere"), (2, "5"))]),
        ("episode log with one row dropped", "train-episode-log", p,
         lambda: drop_row(os.path.join(train, "episodes.csv"))),
        ("checkpoint with a NaN weight", "train-checkpoint", p,
         lambda: nan_weight(os.path.join(train, "checkpoint.json"))),
    ]


def run_checks(workload):
    outcomes = [checks.check_op(op) for op in workload.ops]
    failures = [f for o in outcomes for f in o.failures]
    return failures + checks.check_workload(list(workload.ops), outcomes)


def metric_names_match() -> list:
    """BENCHMARK.json must list exactly the metrics run.py prints."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    import run
    with open(path) as fh:
        doc = json.load(fh)
    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in doc[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(table.items()))}")
    if [w["name"] for w in doc["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    return problems


def tracer_survives_refactors() -> list:
    """A traced function that is gone is listed as missing and reads 0
    calls, as does one never called, and patching is undone afterwards."""
    import evoadapt.cli
    import evoadapt.de
    import tracing

    layers = {**tracing.LAYERS, "gone": ("de:no_such_function", "no_such_module:f",
                                         "policy:NoSuchClass.forward")}
    original = evoadapt.de.evaluate
    tracer = tracing.Tracer(layers)
    tracer.install()
    tracer.active = True
    out = os.path.join(WORK, "tracer")
    code = evoadapt.cli.main(["evaluate", "--adaptation", "fixed", "--function", "Sphere",
                              "--dimension", "10", "--runs", "1", "--out", out])
    tracer.active = False
    tracer.uninstall()
    metrics = tracer.metrics()
    problems = []
    if code != 0 or sorted(tracer.missing) != sorted(layers["gone"]):
        problems.append(f"tracer: exit {code}, missing {tracer.missing}")
    if metrics["gone.calls"] != 0 or metrics["ppo.ppo_loss.calls"] != 0:
        problems.append("tracer: an absent or uncalled layer reads non-zero calls")
    if metrics["benchmarks.objective.rows"] != workloads.EVALS_PER_RUN:
        problems.append(f"tracer: {metrics['benchmarks.objective.rows']} objective rows traced, "
                        f"expected {workloads.EVALS_PER_RUN}")
    if evoadapt.de.evaluate is not original:
        problems.append("tracer: uninstall left a wrapper in place")
    if not problems:
        print("ok: tracer skips absent functions, reads 0 for uncalled ones and unpatches")
    return problems


def main() -> int:
    import evoadapt.cli

    shutil.rmtree(WORK, ignore_errors=True)
    built = {}
    for name in workloads.NAMES:
        work = os.path.join(WORK, name)
        if name == "ppo-train":
            op, config = workloads.train_op(work, SEED, 11,
                                            {"horizon": 245, "epochs": 2, "minibatch": 64})
            workload = workloads.Workload(name, (op,), train_config=config)
        else:
            workload = workloads.build(name, work, SEED, runs=RUNS)
        workloads.write_inputs(workload, SEED)
        for op in workload.ops:
            if evoadapt.cli.main(list(op.argv)) != 0:
                print(f"selftest: {' '.join(op.argv)} failed")
                return 1
        failures = run_checks(workload)
        if failures:
            print(f"selftest: checks fail on clean {name} outputs: {failures}")
            return 1
        shutil.copytree(work, work + ".clean")
        built[work] = workload

    de, cma, ppo = (os.path.join(WORK, n) for n in workloads.NAMES)
    problems = []
    cases = corruptions(de, cma, ppo)
    for description, check_id, work, mutate in cases:
        mutate()
        ids = {f[0] for f in run_checks(built[work])}
        verdict = "caught" if check_id in ids else "MISSED"
        print(f"{verdict}: {description} -> [{check_id}] (reported: {', '.join(sorted(ids)) or 'none'})")
        if check_id not in ids:
            problems.append(description)
        shutil.rmtree(work)
        shutil.copytree(work + ".clean", work)

    before = checks.digest(os.path.join(de, "outputs"))
    edit_csv(metrics_path(de, "ide", KAT), 1, 1, last_digit)
    if checks.digest(os.path.join(de, "outputs")) == before:
        problems.append("digest unchanged by a one-digit edit")
    else:
        print("caught: one-digit edit changes the output digest")

    print(f"selftest: {len(cases) + 1 - len(problems)}/{len(cases) + 1} corruptions caught")
    problems += metric_names_match() + tracer_survives_refactors()
    for message in problems:
        print(f"selftest FAILED: {message}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
