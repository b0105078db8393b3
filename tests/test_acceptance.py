"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest -s tests/test_acceptance.py`` to watch them).

Everything exact is compared symbolically at zero tolerance; floating
checks carry the tolerance stated next to them.
"""

import itertools
import json
import math
import random
import time

import pytest

from somborlab import formulas
from somborlab.cli import run
from somborlab.enumeration import (
    count_two_trees,
    enumerate_levels,
    enumerate_two_trees,
    oracle_filter_count,
)
from somborlab.extremal import verify_theorems
from somborlab.families import from_recipe, l_graph, random_recipe, x_graph
from somborlab.graph6 import from_graph6, to_graph6
from somborlab.graphs import are_isomorphic, canonical_key
from somborlab.indices import edge_weight, sombor_coindex, sombor_index, total_pair_sum
from somborlab.radicals import RadicalSum


def _report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})", flush=True)


def test_criterion_1_closed_form_agreement():
    start = time.perf_counter()
    for n in range(3, 21):
        assert sombor_index(x_graph(n)).exact == formulas.so_x_closed(n)
        assert sombor_coindex(x_graph(n)).exact == formulas.so_bar_x_closed(n)
    for n in range(5, 21):
        assert sombor_index(l_graph(n)).exact == formulas.so_l_closed(n)
        assert sombor_coindex(l_graph(n)).exact == formulas.so_bar_l_closed(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1 closed-form agreement",
            f"orders 3..20 book / 5..20 second family, exact, {elapsed:.2f}s")


def test_criterion_2_enumeration_counts():
    start = time.perf_counter()
    assert count_two_trees(2) == 1
    assert count_two_trees(3) == 1
    assert count_two_trees(4) == 1
    assert count_two_trees(5) == 2
    for n in (6, 7):
        assert count_two_trees(n) == oracle_filter_count(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("2 enumeration correctness",
            f"counts 1,1,1,2 then filter-oracle agreement at 6 and 7, {elapsed:.1f}s")


def test_criterion_3_theorem_verification():
    start = time.perf_counter()
    reports = verify_theorems(range(5, 11))
    failures = [c for r in reports for c in r.claim_checks if not c.passed]
    assert failures == []
    claims = [c.claim for r in reports for c in r.claim_checks]
    for claim in ("so-max", "so-second-max", "coindex-min", "coindex-second-min"):
        assert claims.count(claim) == 6
    # uniqueness: the top two tie sets of each ranking are singletons
    for report in reports:
        assert len(report.groups[0][1]) == 1
        assert len(report.groups[1][1]) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("3 theorem verification",
            f"24 claims over orders 5..10, all exact and unique, {elapsed:.1f}s")


def test_criterion_4_inequality_sweeps_and_anchors():
    for sweep_id in formulas.SWEEP_IDS:
        assert formulas.lemma_sweep(sweep_id) == []
    assert formulas.double_gap_anchor() == pytest.approx(1.8725, abs=1e-4)
    assert formulas.diag_weight_drop(5, 4) == pytest.approx(1.40312, abs=1e-5)
    assert formulas.diag_weight_drop(5, 4) == pytest.approx(math.sqrt(41) - 5, abs=1e-12)
    _report("4 inequality sweeps",
            "grids to 200 clean; anchors 1.8725 +/- 1e-4 and 1.40312 +/- 1e-5")


def _pair_walk(g, pairs) -> RadicalSum:
    degs = g.degrees()
    return sum((edge_weight(degs[u], degs[v]) for u, v in pairs), RadicalSum.zero())


def _check_partition(g) -> None:
    # the coindex is computed as total - index; walk the pairs to check both
    assert sombor_coindex(g).exact == _pair_walk(g, g.non_edges())
    assert total_pair_sum(g).exact == _pair_walk(g, itertools.combinations(range(g.order), 2))


def test_criterion_5_partition_identity():
    checked = 0
    for level in enumerate_levels(10):
        for g in level.graphs:
            _check_partition(g)
            checked += 1
    rng = random.Random(1729)
    for _ in range(200):
        _check_partition(from_recipe(random_recipe(rng.randrange(12, 21), rng)))
        checked += 1
    _report("5 partition identity", f"exact on {checked} graphs")


def test_criterion_6_conjecture_evidence(tmp_path, capsys):
    jpath = tmp_path / "conjecture.json"
    assert run(["conjecture", "--n", "5..11", "--json", str(jpath)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(jpath.read_text())
    assert [r["order"] for r in payload] == list(range(5, 12))
    n5 = payload[0]
    # the conjectured lower bound exceeds the exhaustive minimum at order 5
    assert n5["min_so"]["conjectured"] == pytest.approx(31.913, abs=1e-3)
    assert n5["min_so"]["observed"]["approx"] == pytest.approx(30.398, abs=1e-3)
    assert n5["min_so"]["gap"] < 0
    assert not n5["min_so"]["bound_holds"]
    assert "bound-holds=NO" in out
    for r in payload:
        assert "conjectured_corrected" in r["max_coindex"]
        assert "conjectured_literal" in r["max_coindex"]
        assert r["min_so"]["degree_sequence"]
    _report("6 conjecture evidence",
            "orders 5..11 reported, both readings, order-5 conflict flagged")


def test_criterion_7_determinism_and_round_trip(tmp_path, capsys):
    for args, names in (
        (["enumerate", "--n", "7"], ("e1", "e2")),
        (["verify-theorems", "--n", "5..6"], ("v1", "v2")),
    ):
        paths = [tmp_path / name for name in names]
        assert run(args + ["--output", str(paths[0])]) == 0
        assert run(args + ["--output", str(paths[1]), "--workers", "2"]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
    rng = random.Random(8)
    for _ in range(100):
        g = from_recipe(random_recipe(rng.randrange(2, 20), rng))
        back = from_graph6(to_graph6(g))
        assert are_isomorphic(back, g)
        assert canonical_key(back) == canonical_key(g)
    _report("7 determinism and round-trip",
            "byte-identical reruns (any worker count); 100 graph6 round-trips")
