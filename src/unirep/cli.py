"""Command-line front end.

Subcommands: construct (layer file -> rep file), verify (rep file -> report),
decompose (rep file -> layer file), roundtrip (seeded random construct +
decompose), bch (print the series components and their Dynkin status), and
audit-splittings (occurrence and uniqueness checks).

Findings and the summary lines are emitted one JSON object per line, each the
four string fields of errors.finding.  Exit codes: 0 pass, 1 verification
findings, 2 usage or hypothesis error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import stat
import sys

from .arith import check_field
from .bch import _dynkin_fixed, bch_components
from .errors import CostBoundError, UnirepError, finding
from .hopf import _key
from .io import MAX_LAYERS, parse_layer_file, parse_rep_file, write_layer_file, write_rep_file
from .reps import _certificate, _comodule_findings, _pointwise_pairs
from .reps import (
    audit_structure_lemmas,
    construct_from_layers,
    decompose_to_layers,
    verify_chi_relations,
    verify_comodule,
    verify_group_law_pointwise,
)
from .samples import random_layer_data
from .splittings import MAX_AUDIT_N, MAX_AUDIT_PAIRS, brute_solve_yz, occurrence_report, solve_yz

__all__ = ["main"]


def _emit(findings, stream=None):
    stream = stream or sys.stdout
    for f in findings:
        stream.write(json.dumps(f, sort_keys=True) + "\n")


def _write_output(text, path):
    """Write text to stdout if path is None (so -o "" is refused), else over
    the file at path in place, then cut it to length if it is a regular file
    (never /dev/null, a FIFO or a terminal).  Truncating first cost most of a
    2.5-3 KB write over an existing file on ext4 mounted with discard: 88-110
    us against 10-18 us in place (tmpfs: 12-14 against 9-10 us)."""
    if path is not None:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
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


def _pointwise_request(args):
    if args.pointwise == "exhaustive":
        return {"mode": "exhaustive"}
    kind, _, count = args.pointwise.partition(":")
    if kind != "sampled" or not count.isdigit():
        raise UnirepError(f"--pointwise must be 'exhaustive' or 'sampled:N', "
                          f"got {args.pointwise!r}")
    if int(count) < 1:
        raise UnirepError(f"--pointwise sampled:N needs N >= 1, got {args.pointwise!r}")
    return {"mode": "sampled", "count": int(count), "seed": args.seed}


def cmd_verify(args):
    """A refused --pointwise request exits first.  For p > 0, p >= max(n, 2d),
    one certificate answers every check: a comodule (reps._certificate) obeys the
    group law at every F_p point, its chi relations are the layer relations
    validate checked, the factorization and Gamma audits are the walk's closed
    form, and the carrying lemma is the paper's.  Else every check runs."""
    rep = parse_rep_file(_read(args.repfile))
    pointwise = args.pointwise and _pointwise_request(args)
    if pointwise:
        _pointwise_pairs(rep.chi, **pointwise)
    if rep.p and _certificate(rep) is not None:  # else the comodule check below is the relation check
        return 0
    findings = []
    if args.comodule or not (args.pointwise or args.chi_relations or args.lemmas):
        findings.extend((_comodule_findings if rep.p else verify_comodule)(rep).findings)
    if pointwise:
        findings.extend(verify_group_law_pointwise(rep, **pointwise).findings)
    if args.chi_relations:
        findings.extend(verify_chi_relations(rep).findings)
    if args.lemmas:
        findings.extend(audit_structure_lemmas(rep).findings)
    _emit(findings)
    return 1 if findings else 0


def cmd_decompose(args):
    rep = parse_rep_file(_read(args.repfile))
    data = decompose_to_layers(rep)
    _write_output(write_layer_file(data), args.output)
    _emit([finding("decompose", f"n={rep.n}, p={rep.p}, d={rep.d}",
                   f"p >= max(n, 2d) = {max(rep.n, 2 * rep.d)}",
                   f"satisfied; {len(data.layers)} layers")], sys.stderr)
    return 0


def cmd_roundtrip(args):
    check_field(args.n, args.p, args.d)
    if args.layers > MAX_LAYERS:
        raise CostBoundError(f"{args.layers} layers is over the bound of {MAX_LAYERS}")
    data = random_layer_data(args.n, args.d, args.p, args.layers, args.seed).trimmed()
    rep = construct_from_layers(data)
    # rep is built from valid layers, so recovering them certifies it; else check as before
    exact = decompose_to_layers(rep, check=False) == data or decompose_to_layers(rep) == data
    _emit([finding("roundtrip",
                   f"n={args.n}, d={args.d}, p={args.p}, layers={args.layers}, seed={args.seed}",
                   "exact layer recovery", "exact layer recovery" if exact else "layer mismatch")])
    return 0 if exact else 1


def cmd_bch(args):
    components = bch_components(args.max_degree)
    all_fixed = True
    for m, comp in enumerate(components, start=1):
        fixed = _dynkin_fixed(comp)
        all_fixed = all_fixed and fixed
        _emit([finding("bch", f"P_{m}", "dynkin(P_m) = P_m",
                       f"{comp}" + ("" if fixed else " (projection differs)"))])
    return 0 if all_fixed else 1


def _yz_pairs(n, bound):
    """Every (Y, Z) with entries <= bound, Y off the top row and Z on it; the
    top row's n - 1 pairs come first in the flat order."""
    top, rest = n - 1, (n - 1) * (n - 2) // 2
    values = range(bound + 1)
    for ys in itertools.product(values, repeat=rest):
        y = _key(n, (0,) * top + ys)
        for zs in itertools.product(values, repeat=top):
            yield y, _key(n, zs + (0,) * rest)


def cmd_audit_splittings(args):
    if args.n < 1 or args.bound < 0:
        raise UnirepError(f"audit-splittings needs --n >= 1 and --bound >= 0, "
                          f"got --n {args.n} --bound {args.bound}")
    if args.n > MAX_AUDIT_N:
        raise CostBoundError(f"audit-splittings --n {args.n} is over the bound of {MAX_AUDIT_N}")
    size = args.n * (args.n - 1) // 2
    if (args.bound + 1) ** size > MAX_AUDIT_PAIRS:
        raise CostBoundError(f"audit-splittings needs {args.bound + 1}^{size} (Y, Z) pairs, "
                             f"over the bound of {MAX_AUDIT_PAIRS}")
    findings = list(occurrence_report(args.n))
    for y, z in _yz_pairs(args.n, args.bound):
        solutions = brute_solve_yz(y, z, bound=args.bound + 1)
        closed = solve_yz(y, z)
        if len(solutions) != 1 or solutions[0] != closed:
            findings.append(finding("yz-uniqueness", f"Y={y}, Z={z}",
                                    f"exactly one solution, equal to {closed}",
                                    f"{len(solutions)} solutions"))
    _emit(findings)
    return 1 if findings else 0


@functools.cache
def build_parser():
    """The one parser of the process: prog is fixed and parse_args does not
    change the parser, so calls share it."""
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)  # no option prefixes
    parser = strict(
        prog="unirep",
        description="Construct, verify, and decompose representations of U_n "
                    "through their Frobenius layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)

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
