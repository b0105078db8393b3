"""Command-line surface tying the modules into reproducible runs.

Exit codes: 0 when everything requested passed, 1 when a claim check or
sweep reported a failure, 2 for any usage, input or capacity error and for
an internal error (the traceback goes to stderr).  Given
the same arguments (and seed, where one applies) every run writes
byte-identical output regardless of worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import traceback
from json.encoder import encode_basestring

from . import formulas
from .enumeration import DEFAULT_CAP, enumerate_two_trees
from .extremal import ConjectureReport, ExtremalReport, conjecture_report, verify_theorems
from .families import (
    TwoTreeRecipe,
    complete,
    from_recipe,
    l_graph,
    linear_two_tree,
    random_recipe,
    x_graph,
)
from .graph6 import from_graph6, to_dot, to_graph6
from .graphs import CapacityError, Graph, _check_order
from .indices import sombor_coindex, sombor_index

CAP_ENV = "SOMBORLAB_CAP"

ANCHOR_DOUBLE_GAP = (1.8725, 1e-4)
ANCHOR_DIAG_STEP = (1.40312, 1e-5)


def _parse_orders(text: str) -> tuple[int, ...]:
    """A single order ``N`` or an inclusive range ``A..B``, checked against
    the graph capacity, from order 0, before it is built."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"orders must be an integer N or a range A..B, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty order range {text!r}")
    try:
        for n in (lo, hi):
            _check_order(n, 0, "orders")
    except CapacityError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return tuple(range(lo, hi + 1))


def _parse_cap(text: str) -> int:
    """An enumeration cap, at least 2: the smallest order of a two-tree."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cap must be an integer, got {text!r}") from None
    if cap < 2:
        raise argparse.ArgumentTypeError(f"cap must be at least 2, got {cap}")
    return cap


def _fmt_float(x: float) -> str:
    return f"{x:.10g}"


def _value_json(exact) -> dict:
    return {"exact": str(exact), "approx": float(exact)}


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(payload, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _resolve_graph(args) -> tuple[str, Graph]:
    if args.family is not None:
        if args.n is None:
            raise ValueError("--family needs an order --n")
        builders = {"X": x_graph, "L": l_graph, "linear": linear_two_tree, "K": complete}
        return f"{args.family}_{args.n}", builders[args.family](args.n)
    if args.recipe is not None:
        recipe = TwoTreeRecipe.parse(args.recipe)
        return f"recipe[{recipe}]", from_recipe(recipe)
    if args.g6 is not None:
        return args.g6, from_graph6(args.g6)
    rng = random.Random(args.seed)
    recipe = random_recipe(args.random_recipe, rng)
    return f"recipe[{recipe}]", from_recipe(recipe)


# -- subcommands ------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    if len(args.n) != 1:
        raise ValueError("enumerate takes a single order, not a range")
    level = enumerate_two_trees(args.n[0], cap=args.cap, workers=args.workers)
    manifest = {"order": level.order, "count": level.count, "sha256": level.checksum()}
    if args.format == "graph6":
        body = "".join(key.decode("ascii") + "\n" for key in level.keys)
    else:
        body = json.dumps(manifest, indent=2) + "\n"
    _emit(body, args.output)
    if args.manifest:
        _write_json(manifest, args.manifest)
    return 0


def _cmd_index(args) -> int:
    label, g = _resolve_graph(args)
    so = sombor_index(g)
    so_bar = sombor_coindex(g)
    lines = [
        f"SO({label}) = {so}",
        f"SO_bar({label}) = {so_bar}",
    ]
    _emit("".join(line + "\n" for line in lines), args.output)
    if args.json:
        _write_json({
            "graph": label,
            "graph6": to_graph6(g),
            "order": g.order,
            "degree_sequence": list(g.degree_sequence()),
            "so": _value_json(so.exact),
            "so_bar": _value_json(so_bar.exact),
        }, args.json)
    return 0


def _claim_line(check) -> str:
    status = "PASS" if check.passed else "FAIL"
    line = (f"n={check.order} {check.claim}: {status} "
            f"witness={check.observed_graph6} "
            f"value={check.observed_value} ≈ {_fmt_float(float(check.observed_value))}")
    if check.note:
        line += f" [{check.note}]"
    return line


def _write_list(fh, blocks, indent: str) -> None:
    """A JSON list laid out as ``json.dump`` with ``indent=2`` lays it out,
    closing at ``indent``; each block is one or more rendered items, already
    indented and joined by ``,\\n``."""
    fh.write("[")
    sep = "\n"
    for block in blocks:
        fh.write(sep + block)
        sep = ",\n"
    fh.write("]" if sep == "\n" else "\n" + indent + "]")


def _write_ranking(fh, report: ExtremalReport) -> None:
    """The ranking of a report as a JSON object two levels deep in the
    verify payload, byte for byte as ``json.dump`` with ``indent=2`` lays out
    ``{"direction", "count", "ranking", "tie_sets"}``: ``ranking`` has one
    ``{"graph6", "exact", "approx"}`` entry per graph, in rank order, and
    ``tie_sets`` the graph6 strings of each tie set.  A tie set's value is
    rendered once, and each tie set is written as soon as it is rendered.
    """
    graph6 = [[encode_basestring(key.decode("ascii")) for key in keys] for _, keys in report.groups]
    fh.write(f'{{\n      "direction": {encode_basestring(report.direction)},\n'
             f'      "count": {sum(map(len, graph6))},\n      "ranking": ')

    def entries(value, names) -> str:
        tail = (f',\n          "exact": {encode_basestring(str(value))},\n'
                f'          "approx": {float.__repr__(float(value))}\n        }}')
        return ",\n".join(f'        {{\n          "graph6": {name}{tail}' for name in names)

    _write_list(fh, (entries(value, names) for (value, _), names in zip(report.groups, graph6)),
                "      ")
    fh.write(',\n      "tie_sets": ')
    _write_list(fh, ("        [\n" + ",\n".join(f"          {name}" for name in names)
                     + "\n        ]" for names in graph6), "      ")
    fh.write("\n    }")


def _write_verify_json(payload: list[dict], path: str) -> None:
    """What ``_write_json`` writes for ``payload`` with each report replaced
    by its ranking object, byte for byte: the reports are written by
    :func:`_write_ranking`, and every other value goes through ``json``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[")
        for i, entry in enumerate(payload):
            fh.write(",\n  {" if i else "\n  {")
            for j, (name, value) in enumerate(entry.items()):
                fh.write(f'{"," if j else ""}\n    "{name}": ')
                if isinstance(value, ExtremalReport):
                    _write_ranking(fh, value)
                else:
                    fh.write(json.dumps(value, indent=2, ensure_ascii=False)
                             .replace("\n", "\n    "))
            fh.write("\n  }")
        fh.write("\n]\n" if payload else "]\n")


def _claim_json(c) -> dict:
    return {
        "claim": c.claim,
        "expected_family": c.expected_family,
        "expected_value": _value_json(c.expected_value),
        "observed_graph6": c.observed_graph6,
        "observed_value": _value_json(c.observed_value),
        "passed": c.passed,
        "note": c.note,
    }


def _cmd_verify(args) -> int:
    reports = verify_theorems(args.n, cap=args.cap, workers=args.workers)
    lines = []
    payload = []
    # reports arrive as one (index ranking, coindex ranking) pair per order
    for so_report, co_report in zip(reports[0::2], reports[1::2]):
        checks = so_report.claim_checks + co_report.claim_checks
        lines.extend(_claim_line(check) for check in checks)
        so_top = so_report.groups[0][1][0].decode("ascii")
        co_top = co_report.groups[0][1][0].decode("ascii")
        coincide = so_top == co_top
        lines.append(
            f"n={so_report.order} cross-direction: SO maximizer and coindex minimizer "
            + (f"coincide ({so_top})" if coincide else f"differ ({so_top} vs {co_top})")
        )
        payload.append({
            "order": so_report.order,
            "so": so_report,
            "so_bar": co_report,
            "claims": [_claim_json(c) for c in checks],
            "extremes_coincide": coincide,
        })
    claims = [c for report in reports for c in report.claim_checks]
    failures = sum(not c.passed for c in claims)
    lines.append(f"claims: {len(claims)}, failed: {failures}")
    _emit("".join(line + "\n" for line in lines), args.output)
    if args.json:
        _write_verify_json(payload, args.json)
    if args.csv:
        _write_csv(args.csv, ["order", "claim", "expected_family", "passed",
                              "observed_graph6", "exact", "approx", "note"],
                   ([c.order, c.claim, c.expected_family, c.passed,
                     c.observed_graph6, str(c.observed_value),
                     _fmt_float(float(c.observed_value)), c.note] for c in claims))
    return 1 if failures else 0


def _cmd_check_lemmas(args) -> int:
    lines = []
    all_violations = []
    for sweep_id in formulas.SWEEP_IDS:
        xs, ys = formulas.sweep_grid(sweep_id, args.limit)
        violations = formulas.lemma_sweep(sweep_id, args.limit)
        all_violations.extend(violations)
        lines.append(f"{sweep_id}: {len(violations)} violations "
                     f"(x {xs[0]}..{xs[-1]}, y {ys[0]}..{ys[-1]})")
    anchors = [
        ("double-gap(5,4)", formulas.double_gap_anchor(), *ANCHOR_DOUBLE_GAP),
        ("diag-step(5,4)", formulas.diag_weight_drop(5, 4), *ANCHOR_DIAG_STEP),
    ]
    anchor_failures = 0
    for name, value, expected, tol in anchors:
        ok = abs(value - expected) <= tol
        anchor_failures += 0 if ok else 1
        lines.append(f"anchor {name} = {_fmt_float(value)} "
                     f"expected {expected} ± {tol} {'PASS' if ok else 'FAIL'}")
    _emit("".join(line + "\n" for line in lines), args.output)
    if args.csv:
        _write_csv(args.csv, ["sweep", "check", "x", "y", "lhs", "rhs"],
                   ([v.sweep, v.check, v.x, v.y, v.lhs, v.rhs] for v in all_violations))
    return 1 if all_violations or anchor_failures else 0


def _observed_line(n: int, extreme: str, w) -> str:
    return (f"n={n} {extreme} observed={_fmt_float(float(w.value))} "
            f"witness={w.key.decode('ascii')} degrees={','.join(map(str, w.degrees))} "
            f"linear={'yes' if w.is_linear else 'no'}")


def _bound_line(n: int, extreme: str, label: str, b, fails: str = "NO") -> str:
    return (f"n={n} {extreme} {label}={_fmt_float(b.conjectured)} gap={_fmt_float(b.gap)} "
            f"bound-holds={'yes' if b.holds else fails}")


def _conjecture_lines(report: ConjectureReport, reading: str) -> list[str]:
    n = report.order
    lines = [
        _observed_line(n, "min-SO", report.min_so),
        _bound_line(n, "min-SO", "conjectured", report.so_bound,
                    "NO (observed minimum is below the conjectured bound)"),
        _observed_line(n, "max-coindex", report.max_coindex),
    ]
    lines.extend(_bound_line(n, "max-coindex", name, b)
                 for name, b in zip(formulas.READINGS, report.coindex_bounds)
                 if reading in (name, "both"))
    lines.append(f"n={n} witnesses-coincide={'yes' if report.same_witness else 'no'} "
                 f"equality-family-parity={report.parity_label}")
    return lines


def _witness_json(w) -> dict:
    return {
        "observed": _value_json(w.value),
        "graph6": w.key.decode("ascii"),
        "degree_sequence": list(w.degrees),
        "matches_linear_two_tree": w.is_linear,
    }


def _bound_json(b, suffix: str = "") -> dict:
    return {f"conjectured{suffix}": b.conjectured, f"gap{suffix}": b.gap,
            f"bound_holds{suffix}": b.holds}


def _conjecture_json(r: ConjectureReport) -> dict:
    max_coindex = _witness_json(r.max_coindex)
    for name, b in zip(formulas.READINGS, r.coindex_bounds):
        max_coindex.update(_bound_json(b, f"_{name}"))
    return {
        "order": r.order,
        "equality_family_parity": r.parity_label,
        "min_so": {**_witness_json(r.min_so), **_bound_json(r.so_bound)},
        "max_coindex": max_coindex,
        "witnesses_coincide": r.same_witness,
    }


def _witness_cells(w) -> list:
    return [str(w.value), _fmt_float(float(w.value)), w.key.decode("ascii"), w.is_linear]


def _cmd_conjecture(args) -> int:
    reports = conjecture_report(args.n, cap=args.cap, workers=args.workers)
    lines = []
    for report in reports:
        lines.extend(_conjecture_lines(report, args.reading))
    _emit("".join(line + "\n" for line in lines), args.output)
    if args.json:
        _write_json([_conjecture_json(r) for r in reports], args.json)
    if args.csv:
        _write_csv(args.csv, [
            "order", "min_so_exact", "min_so_approx", "min_so_graph6", "min_so_linear",
            "conjectured_so", "so_gap", "so_bound_holds",
            "max_coindex_exact", "max_coindex_approx", "max_coindex_graph6",
            "max_coindex_linear", "conjectured_coindex_corrected", "coindex_gap_corrected",
            "conjectured_coindex_literal", "coindex_gap_literal",
        ], ([
            r.order, *_witness_cells(r.min_so),
            _fmt_float(r.so_bound.conjectured), _fmt_float(r.so_bound.gap), r.so_bound.holds,
            *_witness_cells(r.max_coindex),
            *(_fmt_float(x) for b in r.coindex_bounds for x in (b.conjectured, b.gap)),
        ] for r in reports))
    return 0


def _cmd_export(args) -> int:
    label, g = _resolve_graph(args)
    if args.format == "graph6":
        _emit(to_graph6(g) + "\n", args.output)
    else:
        _emit(to_dot(g, name=label), args.output)
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="somborlab",
        description="Exact Sombor index/coindex laboratory for two-trees.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--n", type=_parse_orders, required=True,
                       help="order N or inclusive range A..B")
        # a string default goes through type=, so a bad env value is a usage error
        p.add_argument("--cap", type=_parse_cap, default=os.environ.get(CAP_ENV, DEFAULT_CAP),
                       help=f"enumeration order cap (default {DEFAULT_CAP}, env {CAP_ENV})")
        p.add_argument("--workers", type=int, default=1,
                       help="process count for level expansion (at most the CPU count)")
        p.add_argument("--output", help="write stdout payload to this file instead")

    p = sub.add_parser("enumerate", help="emit all two-trees of one order as graph6 lines")
    common(p)
    p.add_argument("--format", choices=("graph6", "json"), default="graph6")
    p.add_argument("--manifest", help="also write a JSON manifest (order, count, checksum)")
    p.set_defaults(func=_cmd_enumerate)

    def graph_source(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--family", choices=("X", "L", "linear", "K"))
        source.add_argument("--recipe", help="comma-separated edge choices, e.g. 0,0,1")
        source.add_argument("--g6", help="graph6 string of the graph")
        source.add_argument("--random-recipe", type=int, metavar="ORDER",
                            help="seeded random construction trace of this order")
        p.add_argument("--n", type=int, help="order for --family")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output")

    p = sub.add_parser("index", help="exact Sombor index and coindex of one graph")
    graph_source(p)
    p.add_argument("--json", help="write a JSON report here")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("verify-theorems",
                       help="check the four extremal claims by exhaustive exact ranking")
    common(p)
    p.add_argument("--json", help="write full rankings and claims as JSON")
    p.add_argument("--csv", help="write claim checks as CSV")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-lemmas", help="grid-sweep the scalar inequality claims")
    p.add_argument("--limit", type=int, default=formulas.SWEEP_LIMIT,
                   help=f"grid upper bound (default {formulas.SWEEP_LIMIT})")
    p.add_argument("--csv", help="write violations as CSV")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_check_lemmas)

    p = sub.add_parser("conjecture",
                       help="evidence report for the open min-index/max-coindex bounds")
    common(p)
    p.add_argument("--reading", choices=(*formulas.READINGS, "both"), default="both",
                   help="which reading of the conjectured coindex bound to print")
    p.add_argument("--json", help="write the reports as JSON")
    p.add_argument("--csv", help="write the reports as CSV")
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("export", help="serialize one graph as graph6 or DOT")
    graph_source(p)
    p.add_argument("--format", choices=("graph6", "dot"), default="graph6")
    p.set_defaults(func=_cmd_export)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:  # CapacityError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not a failed claim: keep exit 1 for claims
        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
