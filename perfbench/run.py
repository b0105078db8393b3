"""The somborlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from ``src/``.
Each iteration is a fresh interpreter (``child.py``) making the calls a user
makes; iterations repeat until the next one would end after ``--seconds``
(at least one, two when traced).  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` untraced and traced iterations
alternate and it carries the per-layer metrics of the traced ones.

Times are medians over the run's iterations, and item latencies are
percentiles over the items of all of them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("enumerate-11", "verify-11", "conjecture-11", "sample-64")

SETUP_PROBES = 9  # extra set-ups per run, besides one per iteration
CHILD_TIMEOUT_S = 150


class Iteration:
    def __init__(self, traced: bool, result: dict | None, error: str = ""):
        self.traced = traced
        self.result = result or {}
        self.error = error


def spawn(args, run_dir: str, index: int, traced=False, setup_only=False) -> Iteration:
    workdir = os.path.join(run_dir, f"{index:03d}")
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return Iteration(traced, None, f"iteration {index} timed out")
    finally:
        _reap_group(proc.pid)
    path = os.path.join(workdir, "result.json")
    if code != 0 or not os.path.exists(path):
        return Iteration(traced, None, f"iteration {index} exited with {code}")
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    shutil.rmtree(workdir, ignore_errors=True)
    return Iteration(traced, result)


def _reap_group(pgid: int) -> None:
    """Kill anything the child left behind in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: host context, not a metric."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        times.append(perf_counter() - t0)
    return statistics.median(times)


def git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "somborlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def steal_s() -> float:
    """CPU time the hypervisor gave to others, summed over CPUs (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups, plain) -> dict[str, float]:
    items = [ms for it in plain for ms in it.result["items_ms"]]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(it.result["run_s"] for it in plain),
        "cpu_s": statistics.median(it.result["cpu_s"] for it in plain),
        "peak_rss_mb": statistics.median(it.result["peak_rss_mb"] for it in plain),
        "item_p50_ms": percentile(items, 50),
        "item_p99_ms": percentile(items, 99),
    }


def per_layer(plain, traced, units, problems: list[str]) -> dict[str, float]:
    """Per-layer metrics; a count that differs between traced iterations is
    added to ``problems``."""
    layers = [it.result["layers"] for it in traced]
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            continue
        values = [layer.get(name) for layer in layers]
        if any(v is None for v in values):
            continue
        if unit == "s":
            out[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between traced iterations: {values}")
            out[name] = values[0]
    out["trace.overhead_s"] = (statistics.median(it.result["run_s"] for it in traced)
                               - statistics.median(it.result["run_s"] for it in plain))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="somborlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "somborlab", "__init__.py")):
        print(f"error: no package sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        return measure(args, run_dir, units)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir: str, units: dict[str, str]) -> int:
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "calibration_s": calibration_s(),
    }
    steal_start = steal_s()
    probes = [] if args.trace else [spawn(args, run_dir, i, setup_only=True)
                                    for i in range(SETUP_PROBES)]
    index = len(probes)

    iterations: list[Iteration] = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        iterations.append(spawn(args, run_dir, index, traced=traced))
        index += 1
        if iterations[-1].error:
            break
        elapsed = time.monotonic() - start
        done = len(iterations)
        # a traced run needs one untraced and one traced iteration
        if done >= 1 + args.trace and elapsed * (done + 1) / done > args.seconds:
            break
    context["calibration_end_s"] = calibration_s()
    context["steal_s"] = steal_s() - steal_start
    print("# context " + json.dumps(context), flush=True)

    attempted = failed = 0
    notes = []
    for it in probes + iterations:
        attempted += 1
        if it.error:
            failed += 1
            notes.append(it.error)
            continue
        attempted += it.result.get("attempted", 0)
        failed += len(it.result.get("failures", []))
        notes.extend(it.result.get("failures", [])[:5])
        for control, flagged in it.result.get("controls", {}).items():
            attempted += 1
            failed += 0 if flagged else 1
            if not flagged:
                notes.append(f"negative control {control} was not reported as a failure")

    ok = [it for it in iterations if not it.error]
    plain = [it for it in ok if not it.traced]
    traced = [it for it in ok if it.traced]
    metrics: dict[str, float] = {}
    if plain and (traced or not args.trace):
        if args.trace:
            problems = []
            metrics = per_layer(plain, traced, units, problems)
            attempted += 1
            failed += 1 if problems else 0
            notes.extend(problems)
            for row in traced[0].result["spans"][:30]:
                print("# span {:<20} {:<20} calls={:<8} total_s={:.4f} self_s={:.4f}".format(*row))
            print(f"# worker span files merged: {traced[0].result['worker_spills']}")
            for hook in traced[0].result["missing_hooks"]:
                notes.append(f"hook not found: {hook}")
        else:
            setups = [it.result["setup_s"] for it in probes + plain if not it.error]
            metrics = end_to_end(setups, plain)
        controls = plain[0].result["controls"]
        print("# negative controls reported as failures: "
              + ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in controls.items()))
    missing = sorted(set(units) - set(metrics))
    if missing:
        attempted += 1
        failed += 1
        notes.append(f"metrics not measured: {', '.join(missing)}")
    for note in notes:
        print(f"# {note}")
    print("# run_s per iteration: " + " ".join(f"{it.result['run_s']:.4f}" for it in plain))
    print(f"# iterations={len(iterations)} (traced {len(traced)}) items="
          f"{sum(len(it.result.get('items_ms', [])) for it in plain)} "
          f"attempted={attempted} failed={failed} error_rate={failed / max(attempted, 1):.6g}")

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
