"""The four workloads: their inputs, the timed call, and the correctness gates.

Every expected value below was pinned from the seed commit (f22a973) and is
the same at one and two workers.  A gate that fails counts toward the run's
``failed`` and makes the benchmark exit non-zero.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from time import perf_counter

# The exhaustive workloads stop at order 11.  Order-12 runs take 8-15 s each
# on the reference host, too few per run to hold its speed swings within the
# benchmark's bounds (see README.md).
TOP = 11

# Two-trees of order n = 2..TOP.
LEVEL_COUNTS = {2: 1, 3: 1, 4: 1, 5: 2, 6: 5, 7: 12, 8: 39, 9: 136, 10: 529, 11: 2171}

# sha256 of every file each command writes, pinned from the seed commit.
PINNED = {
    "enumerate-11": {
        "out.g6": "dff421f966af42b118d0531b76cfb57c39230c92daab1deb2531db7942313190",
        "manifest.json": "17b0d9831432afeaab0e27739a8dcb05e9a392cf0a72bde9e9de2b8023508569",
    },
    "verify-11": {
        "out.txt": "27628c12f50d0dd7faf4b1ac854ca15bf0062f90225cb1193f98b8ff2703d4d7",
        "out.json": "221fdd4edca0f4d49d61809a801a8483c05daf8a9afcac109c8fa6d7e61d59fc",
        "out.csv": "ea70fc10483aafa06cda7b70b12fd88b30fa7ed0dfc1485bbb1cce2b4f18a328",
    },
    "conjecture-11": {
        "out.txt": "b8d6b87d1855e23c06f909dcad2cbd508f7d3ce2eb0dd9a62950db06b5871cc4",
        "out.json": "fa2309fe452e8332cbb779fd854de41b4ebe5b5c2ca1a6b62c062c14da7dc746",
        "out.csv": "195345bb7008cf2213c0576f10e0f42a0be1c29b07d3d4950523a014d5a71f59",
    },
}
TOP_LEVEL_SHA256 = "897e5d774ffafbd34c0f532c22bd75211658d95a0b107324d54fa6cca44e4c60"
CLAIMS = 4 * (TOP - 4)  # four claims at each order 5..TOP

# Equal numbers of graphs per order, so the work per sample hardly depends
# on the seed; the seed picks the recipes and the relabelings.
SAMPLE_ORDERS = range(13, 65)
SAMPLE_PER_ORDER = 4


class Gate:
    """Correctness checks of one iteration: each check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def check_digest(gate: Gate, label: str, data: bytes, expected: str) -> bool:
    got = hashlib.sha256(data).hexdigest()
    return gate.check(got == expected, f"{label}: sha256 {got[:12]}..., pinned {expected[:12]}...")


def check_claims(gate: Gate, claims: list[tuple[int, str, bool]], expected: int = CLAIMS) -> None:
    gate.check(len(claims) == expected, f"{len(claims)} claims checked, expected {expected}")
    for order, claim, passed in claims:
        gate.check(passed, f"n={order} {claim}: FAIL")


def check_levels(gate: Gate, levels: list[tuple[int, int]], top: int) -> None:
    seen = dict(levels)
    gate.check(sorted(seen) == list(range(2, top + 1)),
               f"levels observed {sorted(seen)}, expected 2..{top}")
    for order, count in levels:
        gate.check(LEVEL_COUNTS.get(order) == count,
                   f"level {order}: {count} two-trees, expected {LEVEL_COUNTS.get(order)}")


def _corrupt(hexdigest: str) -> str:
    return hexdigest[:-1] + ("0" if hexdigest[-1] != "0" else "1")


class Exhaustive:
    """One CLI invocation over every two-tree up to order ``TOP``."""

    def __init__(self, name: str, argv: list[str], outputs: dict[str, str]):
        self.name = name
        self.argv = argv
        self.outputs = outputs  # CLI flag -> file name

    def prepare(self, seed: int, workdir: str):
        # One fixed input per workload; the seed only drives sample-64.
        argv = list(self.argv)
        for flag, fname in self.outputs.items():
            argv += [flag, os.path.join(workdir, fname)]
        return argv

    def run(self, argv):
        t0 = perf_counter()
        code = sys.modules["somborlab.cli"].run(argv)
        return {"exit_code": code, "items_s": [perf_counter() - t0]}

    def check(self, outcome, levels, workdir: str, gate: Gate) -> int:
        gate.check(outcome["exit_code"] == 0, f"exit code {outcome['exit_code']}")
        check_levels(gate, levels, TOP)
        data = {}
        for fname, expected in PINNED[self.name].items():
            path = os.path.join(workdir, fname)
            data[fname] = _read(path)
            check_digest(gate, fname, data[fname], expected)
        if "manifest.json" in data:
            manifest = json.loads(data["manifest.json"] or b"{}")
            gate.check(manifest.get("count") == LEVEL_COUNTS[TOP], f"manifest count {manifest.get('count')}")
            gate.check(manifest.get("sha256") == TOP_LEVEL_SHA256, "manifest sha256 differs from the pin")
        if self.name == "verify-11":
            reports = json.loads(data["out.json"] or b"[]")
            check_claims(gate, [(r["order"], c["claim"], c["passed"])
                                for r in reports for c in r["claims"]])
            last = data["out.txt"].decode("utf-8", "replace").rstrip("\n").rsplit("\n", 1)[-1]
            gate.check(last == f"claims: {CLAIMS}, failed: 0", f"summary line {last!r}")
        return sum(len(blob) for blob in data.values())

    def controls(self, workdir: str) -> dict[str, bool]:
        """Deliberately wrong expectations; each must be flagged."""
        flagged = {}
        fname, pinned = next(iter(PINNED[self.name].items()))
        gate = Gate()
        check_digest(gate, fname, _read(os.path.join(workdir, fname)), _corrupt(pinned))
        flagged["wrong-checksum"] = gate.failures != []
        if self.name == "verify-11":
            flagged["swapped-families"] = _swapped_family_claims_flagged()
        return flagged


def _swapped_family_claims_flagged() -> bool:
    """Claims at orders 5..8 with the extremal families swapped (the
    negative control the test suite runs through ``attach_claims``) must
    fail the claims gate."""
    lab = sys.modules["somborlab"]
    extremal = sys.modules["somborlab.extremal"]
    claims = []
    for n in range(5, 9):
        level = lab.enumerate_two_trees(n)
        so = extremal.rank_by(n, "so", "max", level=level)
        co = extremal.rank_by(n, "so-bar", "min", level=level)
        x = ("X", lab.canonical_key(lab.x_graph(n)))
        l_ = ("L", lab.canonical_key(lab.l_graph(n)))
        extremal.attach_claims(so, co, expected_first=l_, expected_second=x)
        claims += [(c.order, c.claim, c.passed) for c in so.claim_checks + co.claim_checks]
    gate = Gate()
    check_claims(gate, claims, expected=16)
    return gate.failures != []


class Sample:
    """Seeded random-recipe two-trees of orders 13..64, one at a time."""

    name = "sample-64"

    def prepare(self, seed: int, workdir: str, per_order: int = SAMPLE_PER_ORDER):
        lab = sys.modules["somborlab"]
        rng = random.Random(seed)
        orders = [n for n in SAMPLE_ORDERS for _ in range(per_order)]
        rng.shuffle(orders)
        inputs = []
        for order in orders:
            steps = tuple(rng.randrange(2 * t - 1) for t in range(1, order - 1))
            perm = list(range(order))
            rng.shuffle(perm)
            inputs.append((lab.TwoTreeRecipe(steps), perm))
        return inputs

    def run(self, inputs):
        lab = sys.modules["somborlab"]
        items, so_values, co_values, verdicts = [], [], [], []
        for recipe, perm in inputs:
            t0 = perf_counter()
            g = lab.from_recipe(recipe)
            so = lab.sombor_index(g).exact
            co = lab.sombor_coindex(g).exact
            key = lab.canonical_key(g)
            key_relabeled = lab.canonical_key(g.relabeled(perm))
            back = lab.from_graph6(lab.to_graph6(g))
            two_tree = lab.is_two_tree(g)
            items.append(perf_counter() - t0)
            so_values.append(so)
            co_values.append(co)
            verdicts.append((key, key_relabeled, back == g, two_tree))
        min_so = min(so_values)
        max_co = max(co_values)
        return {"items_s": items, "so": so_values, "co": co_values,
                "min_so": min_so, "max_co": max_co, "verdicts": verdicts}

    def check(self, outcome, levels, workdir: str, gate: Gate) -> int:
        for i, (key, key_relabeled, round_trip, two_tree) in enumerate(outcome["verdicts"]):
            gate.check(key == key_relabeled, f"graph {i}: key changed under relabeling")
            gate.check(round_trip, f"graph {i}: graph6 round trip differs")
            gate.check(two_tree, f"graph {i}: not recognized as a two-tree")
        so = [float(v) for v in outcome["so"]]
        co = [float(v) for v in outcome["co"]]
        gate.check(_close(float(outcome["min_so"]), min(so)), "exact min index disagrees with floats")
        gate.check(_close(float(outcome["max_co"]), max(co)), "exact max coindex disagrees with floats")
        return 0

    def controls(self, workdir: str) -> dict[str, bool]:
        lab = sys.modules["somborlab"]
        (r0, _), (r1, p1) = self.prepare(0, workdir, per_order=1)[:2]
        g0, g1 = lab.from_recipe(r0), lab.from_recipe(r1)
        gate = Gate()
        gate.check(lab.canonical_key(g0) == lab.canonical_key(g1.relabeled(p1)),
                   "wrong expected key")
        return {"wrong-key": gate.failures != []}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


WORKLOADS = {
    "enumerate-11": Exhaustive(
        "enumerate-11", ["enumerate", "--n", str(TOP), "--workers", "1"],
        {"--output": "out.g6", "--manifest": "manifest.json"}),
    "verify-11": Exhaustive(
        "verify-11", ["verify-theorems", "--n", f"5..{TOP}", "--workers", "2"],
        {"--output": "out.txt", "--json": "out.json", "--csv": "out.csv"}),
    "conjecture-11": Exhaustive(
        "conjecture-11", ["conjecture", "--n", f"5..{TOP}", "--workers", "2"],
        {"--output": "out.txt", "--json": "out.json", "--csv": "out.csv"}),
    "sample-64": Sample(),
}
