"""Command-line front end.

Subcommands: construct (layer file -> rep file), verify (rep file -> report),
decompose (rep file -> layer file), roundtrip (seeded random construct +
decompose), bch (print the series components and their Dynkin status), and
audit-splittings (occurrence and uniqueness checks).

Findings are emitted one JSON object per line with fields
{check, location, expected, actual}.  Exit codes: 0 pass, 1 verification
findings, 2 usage or hypothesis error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .arith import check_field
from .bch import bch_components, dynkin_projection
from .errors import UnirepError
from .hopf import ExponentMatrix
from .io import parse_layer_file, parse_rep_file, write_layer_file, write_rep_file
from .reps import (
    audit_structure_lemmas,
    construct_from_layers,
    decompose_to_layers,
    verify_chi_relations,
    verify_comodule,
    verify_group_law_pointwise,
)
from .samples import random_layer_data
from .splittings import brute_solve_yz, occurrence_report, solve_yz

__all__ = ["main"]


def _emit(findings, stream=None):
    stream = stream or sys.stdout
    for f in findings:
        stream.write(json.dumps(f, sort_keys=True) + "\n")


def _write_output(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path):
    with open(path) as fh:
        return fh.read()


def cmd_construct(args):
    data = parse_layer_file(_read(args.layerfile))
    rep = construct_from_layers(data)
    _write_output(write_rep_file(rep, body=args.format), args.output)
    return 0


def cmd_verify(args):
    rep = parse_rep_file(_read(args.repfile))
    findings = []
    ran_any = False
    if args.comodule or not (args.pointwise or args.chi_relations or args.lemmas):
        findings.extend(verify_comodule(rep).findings)
        ran_any = True
    if args.pointwise:
        if args.pointwise == "exhaustive":
            report = verify_group_law_pointwise(rep, mode="exhaustive")
        else:
            kind, _, count = args.pointwise.partition(":")
            if kind != "sampled" or not count.isdigit():
                raise UnirepError(
                    f"--pointwise must be 'exhaustive' or 'sampled:N', got {args.pointwise!r}"
                )
            if int(count) < 1:
                raise UnirepError(f"--pointwise sampled:N needs N >= 1, got {args.pointwise!r}")
            report = verify_group_law_pointwise(rep, mode="sampled",
                                                count=int(count), seed=args.seed)
        findings.extend(report.findings)
        ran_any = True
    if args.chi_relations:
        findings.extend(verify_chi_relations(rep).findings)
        ran_any = True
    if args.lemmas:
        findings.extend(audit_structure_lemmas(rep).findings)
        ran_any = True
    assert ran_any
    _emit(findings)
    return 1 if findings else 0


def cmd_decompose(args):
    rep = parse_rep_file(_read(args.repfile))
    data = decompose_to_layers(rep)
    _write_output(write_layer_file(data), args.output)
    bound = max(rep.n, 2 * rep.d)
    sys.stderr.write(json.dumps(
        {"check": "decompose", "location": f"n={rep.n}, p={rep.p}, d={rep.d}",
         "expected": f"p >= max(n, 2d) = {bound}", "actual": f"satisfied; {len(data.layers)} layers"},
        sort_keys=True,
    ) + "\n")
    return 0


def cmd_roundtrip(args):
    check_field(args.n, args.p, args.d)
    data = random_layer_data(args.n, args.d, args.p, args.layers, args.seed).trimmed()
    rep = construct_from_layers(data)
    recovered = decompose_to_layers(rep)
    exact = recovered == data
    line = {
        "check": "roundtrip",
        "location": f"n={args.n}, d={args.d}, p={args.p}, layers={args.layers}, seed={args.seed}",
        "expected": "exact layer recovery",
        "actual": "exact layer recovery" if exact else "layer mismatch",
    }
    _emit([line])
    return 0 if exact else 1


def cmd_bch(args):
    components = bch_components(args.max_degree)
    all_fixed = True
    for m, comp in enumerate(components, start=1):
        fixed = dynkin_projection(comp) == comp
        all_fixed = all_fixed and fixed
        _emit([{"check": "bch", "location": f"P_{m}", "expected": "dynkin(P_m) = P_m",
                "actual": f"{comp}" + ("" if fixed else " (projection differs)")}])
    return 0 if all_fixed else 1


def _yz_pairs(n, bound):
    y_pos = [(i, j) for i in range(2, n + 1) for j in range(i + 1, n + 1)]
    z_pos = [(1, j) for j in range(2, n + 1)]
    for y_vals in itertools.product(range(bound + 1), repeat=len(y_pos)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(y_pos, y_vals):
            rows[i - 1][j - 1] = v
        y = ExponentMatrix(n, rows)
        for z_vals in itertools.product(range(bound + 1), repeat=len(z_pos)):
            rows = [[0] * n for _ in range(n)]
            for (i, j), v in zip(z_pos, z_vals):
                rows[i - 1][j - 1] = v
            yield y, ExponentMatrix(n, rows)


def cmd_audit_splittings(args):
    findings = list(occurrence_report(args.n))
    for y, z in _yz_pairs(args.n, args.bound):
        solutions = brute_solve_yz(y, z, bound=args.bound + 1)
        closed = solve_yz(y, z)
        if len(solutions) != 1 or solutions[0] != closed:
            findings.append({
                "check": "yz-uniqueness",
                "location": f"Y={y}, Z={z}",
                "expected": f"exactly one solution, equal to {closed}",
                "actual": f"{len(solutions)} solutions",
            })
    _emit(findings)
    return 1 if findings else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="unirep",
        description="Construct, verify, and decompose representations of U_n "
                    "through their Frobenius layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="layer file -> representation file")
    c.add_argument("layerfile")
    c.add_argument("-o", "--output", default=None)
    c.add_argument("--format", choices=("chi", "poly"), default="chi")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="check a representation file")
    v.add_argument("repfile")
    v.add_argument("--comodule", action="store_true")
    v.add_argument("--pointwise", metavar="exhaustive|sampled:N", default=None)
    v.add_argument("--chi-relations", action="store_true")
    v.add_argument("--lemmas", action="store_true")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("decompose", help="representation file -> layer file")
    d.add_argument("repfile")
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=cmd_decompose)

    r = sub.add_parser("roundtrip", help="random construct + decompose + compare")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--d", type=int, required=True)
    r.add_argument("--p", type=int, required=True)
    r.add_argument("--layers", type=int, default=1)
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(func=cmd_roundtrip)

    b = sub.add_parser("bch", help="print series components and Dynkin status")
    b.add_argument("--max-degree", type=int, default=4)
    b.set_defaults(func=cmd_bch)

    a = sub.add_parser("audit-splittings", help="occurrence and uniqueness checks")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--bound", type=int, default=1)
    a.set_defaults(func=cmd_audit_splittings)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnirepError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
