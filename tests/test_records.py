"""The package's record types: immutable where they were frozen, with their
fields, defaults, equality and reprs, and none of them costs an import of
``dataclasses`` at start-up."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import somborlab
from somborlab import formulas
from somborlab.enumeration import EnumLevel, enumerate_two_trees
from somborlab.extremal import (
    BoundCheck, ClaimCheck, ConjectureReport, ExtremalReport, Witness, attach_claims,
    conjecture_report, rank_by, verify_theorems,
)
from somborlab.families import TwoTreeRecipe, x_graph
from somborlab.graphs import CapacityError
from somborlab.indices import IndexValue, sombor_index
from somborlab.radicals import sqrt_int


def _records():
    (so, co) = verify_theorems([5])
    (conjecture,) = conjecture_report([5])
    return [
        so.claim_checks[0], co.claim_checks[0], conjecture, conjecture.min_so, conjecture.so_bound,
        formulas.SweepViolation("diag", "strict-upper-bound", 1.0, 2.0, 1.5, 1.4),
        sombor_index(x_graph(5)), enumerate_two_trees(5), TwoTreeRecipe((0, 2, 4)),
    ]


def test_every_frozen_record_refuses_assignment_to_each_field():
    records = _records()
    assert [type(r) for r in records] == [
        ClaimCheck, ClaimCheck, ConjectureReport, Witness, BoundCheck, formulas.SweepViolation,
        IndexValue, EnumLevel, TwoTreeRecipe,
    ]
    for record in records:
        for name in record._fields:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before
        with pytest.raises(AttributeError):  # no instance dict takes a new attribute either
            record.extra = 1


def test_record_fields_defaults_and_reprs():
    assert ClaimCheck._fields == (
        "claim", "order", "expected_family", "expected_value", "observed_graph6",
        "observed_value", "passed", "note")
    check = ClaimCheck("so-max", 5, "X_n", sqrt_int(2), "DF{", sqrt_int(2), True)
    assert check.note == ""
    assert repr(check) == (
        "ClaimCheck(claim='so-max', order=5, expected_family='X_n', "
        "expected_value=RadicalSum({2: 1}), observed_graph6='DF{', "
        "observed_value=RadicalSum({2: 1}), passed=True, note='')")
    assert Witness._fields == ("value", "key", "degrees", "is_linear")
    assert BoundCheck._fields == ("conjectured", "gap", "holds")
    assert ConjectureReport._fields == (
        "order", "min_so", "max_coindex", "so_bound", "coindex_bounds")
    assert formulas.SweepViolation._fields == ("sweep", "check", "x", "y", "lhs", "rhs")
    value = IndexValue(sqrt_int(8))
    assert IndexValue._fields == ("exact",)
    assert repr(value) == "IndexValue(exact=RadicalSum({2: 2}))"
    assert str(value) == "2*sqrt(2) ≈ 2.828427125"
    assert value.approx == float(sqrt_int(8))
    assert value == IndexValue(2 * sqrt_int(2)) and hash(value) == hash(IndexValue(2 * sqrt_int(2)))


def test_recipe_equality_hash_repr_and_validation():
    recipe = TwoTreeRecipe([0, 2, 4])  # any iterable of steps, kept as a tuple
    assert type(recipe.steps) is tuple and recipe.steps == (0, 2, 4)
    assert TwoTreeRecipe(iter((0, 2, 4))) == recipe == TwoTreeRecipe.parse(" 0,2,4 ")
    assert hash(recipe) == hash(TwoTreeRecipe((0, 2, 4)))
    assert recipe != TwoTreeRecipe((0, 2, 3))
    assert len({recipe, TwoTreeRecipe((0, 2, 4)), TwoTreeRecipe(())}) == 2
    assert repr(recipe) == "TwoTreeRecipe(steps=(0, 2, 4))"
    assert repr(TwoTreeRecipe(())) == "TwoTreeRecipe(steps=())"
    assert str(recipe) == "0,2,4" and recipe.order == 5
    with pytest.raises(ValueError, match=r"^step 1 picks edge 1, but only 1 edges exist$"):
        TwoTreeRecipe((1,))
    with pytest.raises(ValueError, match=r"^step 2 picks edge 3, but only 3 edges exist$"):
        TwoTreeRecipe([0, 3])
    with pytest.raises(ValueError, match=r"^step 3 picks edge -1, but only 5 edges exist$"):
        TwoTreeRecipe.parse("0,1,-1")
    with pytest.raises(CapacityError, match=r"^recipe order must be in 2\.\.64, got 65$"):
        TwoTreeRecipe((0,) * 63)
    # the helpers a named tuple brings build through the same validation
    assert recipe._replace(steps=[0, 1]) == TwoTreeRecipe((0, 1))
    assert type(recipe._replace(steps=[0, 1]).steps) is tuple
    with pytest.raises(ValueError, match=r"^step 1 picks edge 5, but only 1 edges exist$"):
        recipe._replace(steps=(5,))
    with pytest.raises(ValueError, match=r"^step 1 picks edge 5, but only 1 edges exist$"):
        TwoTreeRecipe._make([(5,)])


def test_extremal_reports_are_mutable_and_never_share_a_claim_list():
    first = ExtremalReport(5, "so", "max", [])
    second = ExtremalReport(5, "so", "max", [])
    assert first.claim_checks == [] and first.claim_checks is not second.claim_checks
    assert first == second and first != ExtremalReport(6, "so", "max", [])
    assert repr(first) == (
        "ExtremalReport(order=5, kind='so', direction='max', groups=[], claim_checks=[])")
    so, co = rank_by(5, "so", "max"), rank_by(5, "so-bar", "min")
    attach_claims(so, co)
    assert [c.claim for c in so.claim_checks] == ["so-max", "so-second-max"]
    assert [c.claim for c in co.claim_checks] == ["coindex-min", "coindex-second-min"]
    assert so.passed and co.passed
    assert first.claim_checks == [] and second.claim_checks == []
    given = [so.claim_checks[0]]
    assert ExtremalReport(5, "so", "max", [], given).claim_checks is given
    first.kind = "so-bar"  # mutable, unlike the frozen records
    assert first.kind == "so-bar" and not hasattr(first, "__dict__")


def test_importing_the_package_and_its_cli_loads_no_introspection_or_hashing():
    # a fresh interpreter: in this process the tests have imported hashlib already
    src = str(Path(somborlab.__file__).resolve().parent.parent)
    code = (
        "import sys, somborlab, somborlab.cli\n"
        "heavy = ('dataclasses', 'inspect', 'hashlib')\n"
        "print(*[m for m in heavy if m in sys.modules])\n"
        "somborlab.enumerate_two_trees(5).checksum()\n"
        "print(*[m for m in heavy if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    # the checksum imports hashlib where it is taken, and only then
    assert proc.stdout == "\nhashlib\n"
