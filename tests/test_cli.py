import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import somborlab
from somborlab import cli
from somborlab.cli import run
from somborlab.extremal import ExtremalReport, verify_theorems
from somborlab.graph6 import from_graph6
from somborlab.indices import sombor_coindex, sombor_index

# Expected stdout for the commands shown in the README; the integration tests
# below compare byte-for-byte.
INDEX_L5 = (
    "SO(L_5) = 10 + 3*sqrt(2) + 4*sqrt(5) + 2*sqrt(13) ≈ 30.39801515\n"
    "SO_bar(L_5) = 2*sqrt(2) + 2*sqrt(13) ≈ 10.03952968\n"
)

ENUMERATE_5 = "DF{\nDL{\n"

EXPORT_K2 = "A_\n"

EXPORT_DF_DOT = """\
graph "DF{" {
  0 [label="0 (deg 2)"];
  1 [label="1 (deg 2)"];
  2 [label="2 (deg 2)"];
  3 [label="3 (deg 4)"];
  4 [label="4 (deg 4)"];
  0 -- 3;
  0 -- 4;
  1 -- 3;
  1 -- 4;
  2 -- 3;
  2 -- 4;
  3 -- 4;
}
"""

VERIFY_5_6 = """\
n=5 so-max: PASS witness=DF{ value=4*sqrt(2) + 12*sqrt(5) ≈ 32.48966998
n=5 so-second-max: PASS witness=DL{ value=10 + 3*sqrt(2) + 4*sqrt(5) + 2*sqrt(13) ≈ 30.39801515
n=5 coindex-min: PASS witness=DF{ value=6*sqrt(2) ≈ 8.485281374
n=5 coindex-second-min: PASS witness=DL{ value=2*sqrt(2) + 2*sqrt(13) ≈ 10.03952968
n=5 cross-direction: SO maximizer and coindex minimizer coincide (DF{)
n=6 so-max: PASS witness=E?~w value=5*sqrt(2) + 8*sqrt(29) ≈ 50.15238627
n=6 so-second-max: PASS witness=EC^w value=5 + 4*sqrt(5) + sqrt(13) + 3*sqrt(29) + sqrt(34) + sqrt(41) ≈ 45.93939374
n=6 coindex-min: PASS witness=E?~w value=12*sqrt(2) ≈ 16.97056275
n=6 coindex-second-min: PASS witness=EC^w value=6*sqrt(2) + 2*sqrt(5) + 2*sqrt(13) ≈ 20.16851988
n=6 cross-direction: SO maximizer and coindex minimizer coincide (E?~w)
claims: 8, failed: 0
"""

CONJECTURE_5_6 = """\
n=5 min-SO observed=30.39801515 witness=DL{ degrees=4,3,3,2,2 linear=yes
n=5 min-SO conjectured=31.91273377 gap=-1.514718626 bound-holds=NO (observed minimum is below the conjectured bound)
n=5 max-coindex observed=10.03952968 witness=DL{ degrees=4,3,3,2,2 linear=yes
n=5 max-coindex corrected=9.939024612 gap=0.1005050634 bound-holds=NO
n=5 max-coindex literal=-725.4520278 gap=735.4915575 bound-holds=NO
n=5 witnesses-coincide=yes equality-family-parity=2
n=6 min-SO observed=41.81222871 witness=EK]w degrees=4,4,3,3,2,2 linear=yes
n=6 min-SO conjectured=40.39801515 gap=1.414213562 bound-holds=yes
n=6 max-coindex observed=23.22644227 witness=EK]w degrees=4,4,3,3,2,2 linear=yes
n=6 max-coindex corrected=23.22644227 gap=1.776356839e-14 bound-holds=yes
n=6 max-coindex literal=-1079.860136 gap=1103.086579 bound-holds=NO
n=6 witnesses-coincide=yes equality-family-parity=1
"""

CHECK_LEMMAS = """\
diag-drop-bound: 0 violations (x 2..200, y 2..200)
gap-monotone: 0 violations (x 2..200, y 1..200)
coindex-gain-monotone: 0 violations (x 1..200, y 3..200)
anchor double-gap(5,4) = 1.872501877 expected 1.8725 ± 0.0001 PASS
anchor diag-step(5,4) = 1.403124237 expected 1.40312 ± 1e-05 PASS
"""


def test_index_family_l5(capsys):
    assert run(["index", "--family", "L", "--n", "5"]) == 0
    assert capsys.readouterr().out == INDEX_L5


def test_enumerate_order_5(capsys):
    assert run(["enumerate", "--n", "5"]) == 0
    assert capsys.readouterr().out == ENUMERATE_5


def test_export_k2_graph6(capsys):
    assert run(["export", "--family", "K", "--n", "2"]) == 0
    assert capsys.readouterr().out == EXPORT_K2


def test_verify_theorems_5_to_6(capsys):
    assert run(["verify-theorems", "--n", "5..6"]) == 0
    assert capsys.readouterr().out == VERIFY_5_6


def test_index_recipe_matches_family(capsys):
    assert run(["index", "--recipe", "0,0,1"]) == 0
    out = capsys.readouterr().out
    assert "= 10 + 3*sqrt(2) + 4*sqrt(5) + 2*sqrt(13)" in out


def test_index_g6_source(capsys):
    assert run(["index", "--g6", "DL{"]) == 0
    out = capsys.readouterr().out
    assert "30.39801515" in out


def test_index_random_recipe_deterministic(capsys):
    assert run(["index", "--random-recipe", "9", "--seed", "4"]) == 0
    first = capsys.readouterr().out
    assert run(["index", "--random-recipe", "9", "--seed", "4"]) == 0
    assert capsys.readouterr().out == first
    assert run(["index", "--random-recipe", "9", "--seed", "5"]) == 0
    assert capsys.readouterr().out != first


def test_index_requires_exactly_one_source(capsys):
    for argv in (
        ["index", "--family", "L", "--n", "5", "--recipe", "0"],
        ["index"],
        ["export", "--format", "dot"],
        ["index", "--g6", "DF{", "--random-recipe", "5"],
        ["index", "--family", "L"],  # no order
        ["index", "--family", "L", "--n", "5..6"],  # one order, not a range
        ["index", "--random-recipe", "65"],  # past the capacity
    ):
        assert run(argv) == 2, argv
        assert "error:" in capsys.readouterr().err, argv


def test_index_json_report(tmp_path, capsys):
    path = tmp_path / "l5.json"
    assert run(["index", "--family", "L", "--n", "5", "--json", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["so"]["exact"] == "10 + 3*sqrt(2) + 4*sqrt(5) + 2*sqrt(13)"
    assert payload["so"]["approx"] == pytest.approx(30.39801515, abs=1e-7)
    assert payload["degree_sequence"] == [4, 3, 3, 2, 2]


def test_enumerate_manifest_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.g6"
    out2 = tmp_path / "b.g6"
    man1 = tmp_path / "a.json"
    man2 = tmp_path / "b.json"
    assert run(["enumerate", "--n", "7", "--output", str(out1), "--manifest", str(man1)]) == 0
    assert run(["enumerate", "--n", "7", "--workers", "2",
                "--output", str(out2), "--manifest", str(man2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert man1.read_bytes() == man2.read_bytes()
    manifest = json.loads(man1.read_text())
    assert manifest["count"] == 12 and manifest["order"] == 7
    assert len(manifest["sha256"]) == 64


def test_enumerate_json_format(capsys):
    assert run(["enumerate", "--n", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"order": 4, "count": 1, "sha256": payload["sha256"]}


def test_verify_json_and_csv(tmp_path, capsys):
    jpath = tmp_path / "verify.json"
    cpath = tmp_path / "verify.csv"
    assert run(["verify-theorems", "--n", "5..7",
                "--json", str(jpath), "--csv", str(cpath)]) == 0
    capsys.readouterr()
    payload = json.loads(jpath.read_text())
    assert [entry["order"] for entry in payload] == [5, 6, 7]
    for entry in payload:
        assert len(entry["claims"]) == 4
        assert all(claim["passed"] for claim in entry["claims"])
        assert entry["extremes_coincide"]
        for side in ("so", "so_bar"):
            assert entry[side]["count"] == len(entry[side]["ranking"])
            assert sum(len(t) for t in entry[side]["tie_sets"]) == entry[side]["count"]
    header = cpath.read_text().splitlines()[0]
    assert header.split(",")[:4] == ["order", "claim", "expected_family", "passed"]
    assert len(cpath.read_text().splitlines()) == 1 + 12  # header + 4 claims x 3 orders


def _ranking_json_reference(report) -> dict:
    """The ranking dict that json.dump wrote before rankings were streamed."""
    tie_sets = [[key.decode("ascii") for key in keys] for _, keys in report.groups]
    ranking = []
    for (value, _), tie_set in zip(report.groups, tie_sets):
        rendered = cli._value_json(value)  # once per tie set
        ranking.extend({"graph6": graph6, **rendered} for graph6 in tie_set)
    return {
        "direction": report.direction,
        "count": len(ranking),
        "ranking": ranking,
        "tie_sets": tie_sets,
    }


def test_streamed_ranking_matches_json_dump():
    reports = verify_theorems(range(2, 11))
    assert len(reports) == 2 * 9 and {r.direction for r in reports} == {"max", "min"}
    for report in [*reports, ExtremalReport(4, "so-bar", "min", [])]:
        fh = io.StringIO()
        cli._write_ranking(fh, report)
        # nested as the value of an order's entry in the payload list
        expected = json.dumps(_ranking_json_reference(report), indent=2, ensure_ascii=False)
        assert fh.getvalue() == expected.replace("\n", "\n    "), report.order


def test_check_lemmas_default_grid(capsys):
    assert run(["check-lemmas"]) == 0
    assert capsys.readouterr().out == CHECK_LEMMAS
    assert run(["check-lemmas", "--limit", "3"]) == 0  # the smallest valid limit
    assert "coindex-gain-monotone: 0 violations (x 1..3, y 3..3)" in capsys.readouterr().out


def test_check_lemmas_refuses_a_limit_past_the_float_range(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(cli.formulas, "lemma_sweep", no_sweep)
    assert run(["check-lemmas", "--limit", "1001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sweep limit must be in 3..1000, got 1001\n"


@pytest.mark.slow
def test_check_lemmas_passes_at_the_largest_limit(capsys):
    assert run(["check-lemmas", "--limit", "1000"]) == 0
    assert capsys.readouterr().out.count(" 0 violations ") == 3


def test_conjecture_flags_order_5(tmp_path, capsys):
    jpath = tmp_path / "conjecture.json"
    assert run(["conjecture", "--n", "5..6", "--json", str(jpath)]) == 0
    assert capsys.readouterr().out == CONJECTURE_5_6
    payload = json.loads(jpath.read_text())
    n5 = payload[0]
    assert n5["order"] == 5
    assert not n5["min_so"]["bound_holds"]
    assert n5["min_so"]["conjectured"] == pytest.approx(31.913, abs=1e-3)
    assert n5["min_so"]["observed"]["approx"] == pytest.approx(30.398, abs=1e-3)
    n6 = payload[1]
    assert n6["min_so"]["bound_holds"]
    assert n6["max_coindex"]["matches_linear_two_tree"]


def test_export_dot(capsys):
    assert run(["export", "--family", "X", "--n", "5", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.count(" -- ") == 7


def test_export_from_g6(capsys):
    assert run(["export", "--g6", "DF{", "--format", "dot"]) == 0
    assert capsys.readouterr().out == EXPORT_DF_DOT
    assert run(["export", "--g6", "DF{"]) == 0
    assert capsys.readouterr().out == "DF{\n"
    assert run(["export", "--g6", "C\\", "--format", "dot"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == 'graph "C\\\\" {'


def test_failed_claim_exits_one(capsys, monkeypatch):
    # misreport the closed form so one claim must fail
    from somborlab import extremal
    from somborlab.radicals import sqrt_int

    monkeypatch.setattr(extremal.formulas, "so_x_closed", lambda n: sqrt_int(2))
    assert run(["verify-theorems", "--n", "5"]) == 1
    out = capsys.readouterr().out
    assert "so-max: FAIL" in out
    assert "!= closed form" in out
    assert "claims: 4, failed: 1" in out


def test_usage_and_capacity_exit_codes(capsys):
    for argv in (
        ["no-such-command"],
        ["enumerate"],  # missing --n
        ["enumerate", "--n", "20"],  # beyond the default cap
        ["enumerate", "--n", "5..6"],  # range not allowed here
        ["enumerate", "--n", "5", "--workers", "0"],
        ["verify-theorems", "--n", "5", "--workers", "-3"],
        ["verify-theorems", "--n", "0..3"],  # orders below 2
        ["check-lemmas", "--limit", "2"],  # the coindex sweep starts at y = 3
        ["check-lemmas", "--limit", "1"],
        ["check-lemmas", "--limit", "0"],
        ["index", "--g6", "?"],  # order 0
        ["index", "--recipe", "0,,1"],  # an empty step
        ["index", "--g6", "B~"],  # nonzero padding bits
        ["index", "--g6", "~?A_"],  # an 18-bit order field past capacity
    ):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err, argv
    assert err == "error: graph6 order must be in 1..64, got 160\n"  # the last case's message


def test_enumerate_refuses_a_low_order_by_the_graph_floor_not_the_cap(capsys):
    assert run(["enumerate", "--n", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "error: order must be in 2..64, got 1"
    assert run(["enumerate", "--n", "13"]) == 2  # past the default cap keeps its text
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: order must be in 2..12 (configured cap), got 13")


def test_order_ranges_are_bounded_before_they_are_built(capsys):
    # an order past the graph capacity, below 0, or an empty range is refused while parsing
    for text in ("2..65", "-1..5", "65", "-1", "5..3"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_orders(text)
        assert run(["verify-theorems", f"--n={text}"]) == 2, text
        assert "error:" in capsys.readouterr().err, text
    assert cli._parse_orders("0..64") == tuple(range(65))
    assert cli._parse_orders("7") == (7,)


def test_cap_is_configurable(capsys, monkeypatch):
    assert run(["enumerate", "--n", "6", "--cap", "6"]) == 0
    capsys.readouterr()
    assert run(["enumerate", "--n", "6", "--cap", "5"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("SOMBORLAB_CAP", "5")
    assert run(["enumerate", "--n", "6"]) == 2
    capsys.readouterr()
    # a cap that is not an integer, or below the smallest two-tree order, is
    # refused while parsing, from the command line or the environment
    for argv, env, message in (
        ([], "abc", "cap must be an integer, got 'abc'"),
        ([], "1", "cap must be at least 2, got 1"),
        (["--cap", "1"], None, "cap must be at least 2, got 1"),
        (["--cap", "-3"], None, "cap must be at least 2, got -3"),
    ):
        if env is None:
            monkeypatch.delenv("SOMBORLAB_CAP", raising=False)
        else:
            monkeypatch.setenv("SOMBORLAB_CAP", env)
        assert run(["enumerate", "--n", "5", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"somborlab enumerate: error: argument --cap: {message}"


def test_orders_that_are_not_integers_are_refused_while_parsing(capsys):
    for text in ("abc", "5..x", "5..", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_orders(text)
        for command in ("enumerate", "verify-theorems"):
            assert run([command, "--n", text]) == 2, (command, text)
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines()[-1] == (
                f"somborlab {command}: error: argument --n: "
                f"orders must be an integer N or a range A..B, got {text!r}")


def test_unseparated_comparison_exits_two(capsys, monkeypatch):
    # no precision is allowed, so every comparison of distinct values fails
    monkeypatch.setattr("somborlab.radicals._MAX_BITS", 0)
    assert run(["verify-theorems", "--n", "5"]) == 2
    assert "error: interval refinement failed" in capsys.readouterr().err


def test_internal_error_exits_two(capsys, monkeypatch):
    # a defect (here a handler that raises) must not read as a failed claim
    def broken(args):
        raise RuntimeError("worker died")

    monkeypatch.setattr("somborlab.cli._cmd_enumerate", broken)
    assert run(["enumerate", "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert err.endswith("error: internal error: RuntimeError: worker died\n")


def _module_env():
    # a subprocess must import the same package this test imported
    src = str(Path(somborlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    env = _module_env()
    for argv, code, stdout in (
        (["export", "--family", "K", "--n", "2"], 0, EXPORT_K2),
        (["enumerate", "--n", "5"], 0, ENUMERATE_5),  # two graph6 lines
        (["index", "--g6", "B~"], 2, ""),  # nonzero padding bits
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "somborlab", *argv], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stdout) == (code, stdout), argv


@pytest.mark.slow
def test_verify_theorems_to_order_13_peaks_under_65_mb(tmp_path):
    argv = [sys.executable, "-m", "somborlab", "verify-theorems", "--n", "5..13", "--cap", "13",
            "--workers", "1", "--json", str(tmp_path / "v.json")]
    with subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=_module_env()) as proc:
        # wait4 gives this child's own peak; RUSAGE_CHILDREN would give the
        # largest child ever waited for, pool workers of earlier tests included
        _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert usage.ru_maxrss < 65 * 1024, usage.ru_maxrss  # in KiB on Linux


# Output branches that no real order reaches (through order 12 both witnesses
# are the linear two-tree, and the index maximizer is the coindex minimizer),
# reached through a patched search and pinned byte for byte: stdout, the exit
# code and the sha256 of every file.


def _run_pinned(argv, tmp_path, capsys):
    paths = {flag: tmp_path / f"out.{flag[2:]}" for flag in ("--json", "--csv")}
    code = run(argv + [arg for flag, path in paths.items() for arg in (flag, str(path))])
    files = {flag: path.read_bytes() for flag, path in paths.items()}
    digests = {flag: hashlib.sha256(data).hexdigest() for flag, data in files.items()}
    return code, capsys.readouterr().out, files, digests


CONJECTURE_7_NON_LINEAR = """\
n=7 min-SO observed=57.08634337 witness=FCX\\w degrees=5,4,4,3,2,2,2 linear=no
n=7 min-SO conjectured=48.88329652 gap=8.203046852 bound-holds=yes
n=7 max-coindex observed=40.59321436 witness=FKIZw degrees=5,4,3,3,3,2,2 linear=no
n=7 max-coindex corrected=42.17071418 gap=-1.57749982 bound-holds=yes
n=7 max-coindex literal=-1502.150496 gap=1542.74371 bound-holds=NO
n=7 witnesses-coincide=no equality-family-parity=2
"""


def test_conjecture_non_linear_distinct_witnesses(tmp_path, capsys, monkeypatch):
    from somborlab import extremal

    min_key, max_key = b"FCX\\w", b"FKIZw"  # two non-linear order-7 two-trees
    extremes = ((sombor_index(from_graph6(min_key)).exact, min_key),
                (sombor_coindex(from_graph6(max_key)).exact, max_key))
    monkeypatch.setattr(extremal, "_extremes", lambda level: extremes)
    code, out, files, digests = _run_pinned(["conjecture", "--n", "7"], tmp_path, capsys)
    assert (code, out) == (0, CONJECTURE_7_NON_LINEAR)
    (entry,) = json.loads(files["--json"])
    assert not entry["min_so"]["matches_linear_two_tree"]
    assert not entry["max_coindex"]["matches_linear_two_tree"]
    assert not entry["witnesses_coincide"]
    assert files["--csv"].splitlines()[1].count(b",False,") == 2
    assert digests == {
        "--json": "efef2d29f9fa8cd4e60aab04b9ae67b2ed391beb24dd643865d3991d9ecea46c",
        "--csv": "3f517764ca2e3e57338a007e869cfc04f5006d56c8f1978cb1d1236cacea0fcd",
    }


VERIFY_5_6_SPLIT = """\
n=5 so-max: PASS witness=DF{ value=4*sqrt(2) + 12*sqrt(5) ≈ 32.48966998
n=5 so-second-max: PASS witness=DL{ value=10 + 3*sqrt(2) + 4*sqrt(5) + 2*sqrt(13) ≈ 30.39801515
n=5 coindex-min: FAIL witness=DL{ value=2*sqrt(2) + 2*sqrt(13) ≈ 10.03952968 [witness is DL{, expected DF{; value 2*sqrt(2) + 2*sqrt(13) != closed form 6*sqrt(2)]
n=5 coindex-second-min: FAIL witness= value=0 ≈ 0 [ranking has only 1 tie sets]
n=5 cross-direction: SO maximizer and coindex minimizer differ (DF{ vs DL{)
n=6 so-max: PASS witness=E?~w value=5*sqrt(2) + 8*sqrt(29) ≈ 50.15238627
n=6 so-second-max: PASS witness=EC^w value=5 + 4*sqrt(5) + sqrt(13) + 3*sqrt(29) + sqrt(34) + sqrt(41) ≈ 45.93939374
n=6 coindex-min: FAIL witness=EC^w value=6*sqrt(2) + 2*sqrt(5) + 2*sqrt(13) ≈ 20.16851988 [witness is EC^w, expected E?~w; value 6*sqrt(2) + 2*sqrt(5) + 2*sqrt(13) != closed form 12*sqrt(2)]
n=6 coindex-second-min: FAIL witness=EKNw value=5*sqrt(2) + 4*sqrt(13) ≈ 21.49327291 [witness is EKNw, expected EC^w; value 5*sqrt(2) + 4*sqrt(13) != closed form 6*sqrt(2) + 2*sqrt(5) + 2*sqrt(13)]
n=6 cross-direction: SO maximizer and coindex minimizer differ (E?~w vs EC^w)
claims: 8, failed: 4
"""


def test_verify_split_extremes(tmp_path, capsys, monkeypatch):
    from somborlab import extremal, radicals

    real = extremal._value_groups

    def split(level):  # drop the coindex minimum, so the two tops differ
        so_groups, co_groups = real(level)
        del co_groups[radicals.sort_values(co_groups)[0]]
        return so_groups, co_groups

    monkeypatch.setattr(extremal, "_value_groups", split)
    code, out, files, digests = _run_pinned(["verify-theorems", "--n", "5..6"], tmp_path, capsys)
    assert (code, out) == (1, VERIFY_5_6_SPLIT)
    assert [entry["extremes_coincide"] for entry in json.loads(files["--json"])] == [False, False]
    assert digests == {
        "--json": "644fcd33cfd7e47ec60c6e88ffeab660a37090e80a664e76e75751ae7135741e",
        "--csv": "d2c34baa27521a13893b6e54e84e5c3e9a87e97dcacef696e0826b0788b88619",
    }
