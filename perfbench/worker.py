"""One round of one workload, in a process of its own.

Set-up (imports, registry, inputs) runs from process start to the first
timed call; the body runs the workload's `evoadapt` commands through
`evoadapt.cli.main`; then the outputs are checked and digested. Prints one
JSON line with the round's measurements. Started by run.py; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--trace", default=None, help="write spans here and report layer metrics")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    import evoadapt.cli  # builds the benchmark registry on import

    work = os.path.join(".perfbench_out", args.workload)
    workload = workloads.build(args.workload, work, args.seed)
    workloads.write_inputs(workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    failed, op_wall_s = [], []
    if tracer is not None:
        tracer.active = True
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            code = evoadapt.cli.main(list(op.argv))
        except Exception:  # an op that dies is counted, and its traceback shown
            traceback.print_exc()
            code = -1
        op_wall_s.append(time.perf_counter() - start)
        if code != 0:
            failed.append(index)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": sum(op_wall_s), "op_wall_s": op_wall_s,
              "peak_rss_mb": peak_rss_mb, "attempted": len(workload.ops), "failed": len(failed)}
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()
        tracer.write(args.trace)
        result["layers"] = tracer.metrics()
        result["trace_missing"] = tracer.missing

    import checks
    failures, evals = [], 0
    outcomes = []
    for index, op in enumerate(workload.ops):
        if index in failed:
            continue
        outcome = checks.check_op(op)
        outcomes.append(outcome)
        failures += outcome.failures
        evals += outcome.evals
    failures += checks.check_workload(list(workload.ops), outcomes)
    outputs = os.path.join(work, "outputs")
    result.update(evals=evals, failures=failures, digest=checks.digest(outputs),
                  output_bytes=checks.output_bytes(outputs))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
