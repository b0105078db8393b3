"""Repeat the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --workloads verify-11,sample-64 --seeds 1-10 \
        [--trace 0|1] [--out summary.json]

Runs ``run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of BENCHMARK.json.  For every metric it reports the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  Count metrics that differ between runs of one seed are
flagged.  Exit code 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    context = next((json.loads(line[len("# context "):]) for line in lines
                    if line.startswith("# context ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"seed": seed, "exit_code": proc.returncode, "wall_s": wall_s, "context": context,
            "notes": [line for line in lines[:-1] if not line.startswith("# context ")
                      and not line.startswith("# span ")], **result}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    section = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in section}
    units = {m["name"]: m["unit"] for m in section}

    summary = {"trace": args.trace, "run_seconds": spec["run_seconds"], "workloads": {}}
    all_ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, spec["run_seconds"], args.trace)
            ok = run["exit_code"] == 0 and run["correct"]
            all_ok &= ok
            print(f"{workload} seed={seed} exit={run['exit_code']} correct={run['correct']} "
                  f"attempted={run['attempted']} failed={run['failed']} wall_s={run['wall_s']:.1f} "
                  f"calibration_s={run['context'].get('calibration_s', float('nan')):.4f} "
                  f"steal_s={run['context'].get('steal_s', float('nan')):.2f}",
                  flush=True)
            if not ok:
                print("\n".join("  " + note for note in run["notes"]), flush=True)
            runs.append(run)
        metrics = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if not values:
                continue
            metrics[name] = summarize(values)
            by_seed: dict[int, set] = {}
            for r in runs:
                if name in r["metrics"]:
                    by_seed.setdefault(r["seed"], set()).add(r["metrics"][name]["value"])
            if units[name] in ("count", "ratio") and any(len(v) > 1 for v in by_seed.values()):
                metrics[name]["unsteady_count"] = True
                print(f"  {workload} {name}: count differs between runs of one seed")
            s = metrics[name]
            bound = bounds[name]
            if bound is not None or units[name] == "s":
                print(f"  {workload:<14} {name:<28} median={s['median']:<12.6g} "
                      f"spread={s['spread']:.4f}" + (f" bound={bound}" if bound else ""))
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
