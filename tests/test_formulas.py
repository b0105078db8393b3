import math

import pytest

from somborlab import formulas
from somborlab.families import l_graph, x_graph
from somborlab.indices import sombor_coindex, sombor_index
from somborlab.radicals import RadicalSum, sqrt_int


def test_book_closed_forms_small_orders():
    assert formulas.so_x_closed(4) == 3 * sqrt_int(2) + 4 * sqrt_int(13)
    assert formulas.so_x_closed(5) == 4 * sqrt_int(2) + 12 * sqrt_int(5)
    assert formulas.so_x_closed(3) == 6 * sqrt_int(2)  # the triangle
    assert formulas.so_bar_x_closed(3).is_zero()
    assert formulas.so_bar_x_closed(4) == 2 * sqrt_int(2)
    assert formulas.so_bar_x_closed(6) == 12 * sqrt_int(2)


def test_second_family_closed_forms_small_orders():
    assert formulas.so_l_closed(5) == RadicalSum({13: 2, 5: 4, 1: 10, 2: 3})
    assert formulas.so_bar_l_closed(5) == 2 * sqrt_int(2) + 2 * sqrt_int(13)
    assert formulas.so_bar_l_closed(6) == 6 * sqrt_int(2) + 2 * sqrt_int(5) + 2 * sqrt_int(13)


def test_closed_forms_match_graph_computation():
    # up to the capacity, where the hub has degree 63
    for n in range(3, 65):
        assert sombor_index(x_graph(n)).exact == formulas.so_x_closed(n)
        assert sombor_coindex(x_graph(n)).exact == formulas.so_bar_x_closed(n)
    for n in range(5, 65):
        assert sombor_index(l_graph(n)).exact == formulas.so_l_closed(n)
        assert sombor_coindex(l_graph(n)).exact == formulas.so_bar_l_closed(n)


def test_domain_checks():
    with pytest.raises(ValueError):
        formulas.so_x_closed(1)
    with pytest.raises(ValueError):
        formulas.so_l_closed(4)
    with pytest.raises(ValueError):
        formulas.so_bar_l_closed(4)
    with pytest.raises(ValueError):
        formulas.diag_weight_drop(1, 5)
    with pytest.raises(ValueError):
        formulas.shifted_sqrt_gap(2, 0)
    with pytest.raises(ValueError):
        formulas.shifted_sqrt_gap_diff(2, 1)
    with pytest.raises(ValueError):
        formulas.coindex_step_gain(0, 5)
    with pytest.raises(ValueError):
        formulas.coindex_step_gain(1, 2)


def test_diag_weight_drop_values():
    assert formulas.diag_weight_drop(3, 3) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert formulas.diag_weight_drop(2, 2) == pytest.approx(math.sqrt(2), abs=1e-12)
    expected = math.sqrt(29) - math.sqrt(17)
    got = formulas.diag_weight_drop(2, 5)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(1.26206, abs=1e-5)
    assert got < math.sqrt(2)


def test_shifted_gap_values():
    # frozen anchor used by the second-maximum argument
    assert formulas.double_gap_anchor() == pytest.approx(1.8725, abs=1e-4)
    assert formulas.shifted_sqrt_gap_diff(5, 9) > 0
    assert formulas.shifted_sqrt_gap(3, 4) > formulas.shifted_sqrt_gap(3, 9)


def test_coindex_gain_values():
    assert formulas.coindex_step_gain(3, 3) > formulas.coindex_step_gain(2, 3)
    # at x=2, y=3 the middle terms cancel: sqrt(13) - sqrt(8) + sqrt(8)
    assert formulas.coindex_step_gain(2, 3) == pytest.approx(math.sqrt(13), abs=1e-12)
    # fractional steps are fine too
    xs = [0.5 + 0.5 * i for i in range(20)]
    for y in range(3, 11):
        values = [formulas.coindex_step_gain(x, y) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_diag_step_anchor():
    value = formulas.diag_weight_drop(5, 4)
    assert value == pytest.approx(math.sqrt(41) - 5, abs=1e-12)
    assert value == pytest.approx(1.40312, abs=1e-5)


def test_sweeps_clean_on_small_grids():
    assert formulas.lemma_sweep("diag-drop-bound", limit=50) == []
    assert formulas.lemma_sweep("gap-monotone", limit=50) == []
    assert formulas.lemma_sweep("coindex-gain-monotone", limit=50) == []


def test_diag_sweep_equality_exactly_on_diagonal():
    violations = formulas.lemma_sweep("diag-drop-bound", limit=100)
    assert violations == []
    # strictness margin stays clearly positive even near the far corner
    assert math.sqrt(2) - formulas.diag_weight_drop(199, 200) > 1e-6


def test_gap_second_difference_decreasing():
    for y in (1, 4, 9, 50):
        diffs = [formulas.shifted_sqrt_gap_diff(x, y) for x in range(3, 60)]
        assert all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))
        assert all(d > 0 for d in diffs)


def test_inverted_sweep_flags_every_grid_point():
    violations = formulas.lemma_sweep("diag-drop-bound", invert=True)
    assert len(violations) == 199 * 199
    assert all(v.check.startswith("inverted-") for v in violations)


def test_unknown_sweep_rejected():
    with pytest.raises(ValueError):
        formulas.lemma_sweep("no-such-sweep")


def test_conjectured_min_so_values():
    assert formulas.conjectured_min_so(6) == pytest.approx(40.398015148, abs=1e-6)
    assert formulas.conjectured_min_so(5) == pytest.approx(31.9127, abs=1e-4)
    constant = 2 * math.sqrt(13) + 4 * math.sqrt(5) + 20 - 33 * math.sqrt(2)
    assert constant == pytest.approx(-10.5137, abs=1e-4)
    with pytest.raises(ValueError):
        formulas.conjectured_min_so(4)


def test_conjectured_max_coindex_readings_differ():
    corrected = formulas.conjectured_max_coindex(6, "corrected")
    literal = formulas.conjectured_max_coindex(6, "literal")
    assert corrected != literal
    assert literal < 0  # the uncorrected reading collapses to a cubic with huge negative slope
    with pytest.raises(ValueError):
        formulas.conjectured_max_coindex(6, "hybrid")


def test_exact_conjectured_bounds_match_the_floats():
    for n in range(5, 65):
        pairs = [(formulas.conjectured_min_so_exact(n), formulas.conjectured_min_so(n))]
        pairs += [(formulas.conjectured_max_coindex_exact(n, r), formulas.conjectured_max_coindex(n, r))
                  for r in ("corrected", "literal")]
        for exact, approx in pairs:
            assert float(exact) == pytest.approx(approx, rel=1e-12, abs=1e-9)
    with pytest.raises(ValueError):
        formulas.conjectured_min_so_exact(4)
    with pytest.raises(ValueError):
        formulas.conjectured_max_coindex_exact(4)
    with pytest.raises(ValueError):
        formulas.conjectured_max_coindex_exact(6, "hybrid")
