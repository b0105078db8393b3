"""One iteration of a workload, in a fresh interpreter as a user would run it.

    python3 perfbench/child.py --workload W --seed S --workdir DIR --spawned-at T
                               [--trace] [--setup-only]

``--spawned-at`` is the ``time.monotonic()`` reading the parent took just
before starting this process, so set-up time covers interpreter start,
package import and input generation.  The result goes to DIR/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import somborlab  # noqa: F401
    import somborlab.cli  # noqa: F401

    import spans
    import workloads

    work = workloads.WORKLOADS[args.workload]
    inputs = work.prepare(args.seed, args.workdir)
    levels: list[tuple[int, int]] = []
    spans.observe_levels(levels)
    rec = spans.Recorder(args.workdir) if args.trace else None
    missing = spans.install(rec) if rec else []
    result = {"setup_s": time.monotonic() - args.spawned_at}

    if not args.setup_only:
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        if rec is None:
            outcome = work.run(inputs)
        else:
            frame = rec.enter("bench.run")
            outcome = work.run(inputs)
            rec.exit(frame)
        run_s = perf_counter() - t0
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

        gate = workloads.Gate()
        output_bytes = work.check(outcome, levels, args.workdir, gate)
        result.update({
            "run_s": run_s,
            "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
            "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
            "items_ms": [s * 1000 for s in outcome["items_s"]],
            "attempted": gate.attempted,
            "failures": gate.failures,
        })
        if rec is None:
            # Controls call the library, so they stay out of traced runs.
            result["controls"] = work.controls(args.workdir)
        else:
            result["worker_spills"] = rec.merge_spills()
            result["layers"] = {**spans.layer_metrics(rec), "cli.output_bytes": output_bytes}
            result["spans"] = spans.span_table(rec)
            result["missing_hooks"] = missing

    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
