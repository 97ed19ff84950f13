"""Line-oriented JSON serialization for representations and layer families.

A file is one header object followed by one body object per line.  Scalars are
decimal strings ("a/b" for rationals, "r" with 0 <= r < p for residues), so the
files are diff-able and exactly representable.  Writing is canonical: exponent
matrices in lexicographic order, layers and index pairs in increasing order.
"""

from __future__ import annotations

import itertools
import json

from .arith import check_field, coerce_scalar, scalar_from_str, scalar_to_str
from .errors import CostBoundError, ParseError, ShapeError
from .hopf import ExponentMatrix, variable_pairs
from .linalg import SquareMatrix
from .reps import ChiTable, LieLayerData, Representation

__all__ = [
    "write_rep_file",
    "parse_rep_file",
    "write_layer_file",
    "parse_layer_file",
]

FORMAT_VERSION = 1
# A poly file's error lists at most this many of its missing entries.
MISSING_SHOWN = 5
# Layer l of a family sits at the exponents p^l with p >= 2, so 64 layers
# already reach exponents of 2^63.  A header's count above this is refused
# before any per-layer storage is made, so one line cannot ask for unbounded
# memory.
MAX_LAYERS = 64


def _exponent_rows(M: ExponentMatrix):
    return [list(r) for r in M.rows]


def _matrix_to_strings(mat: SquareMatrix):
    return [[scalar_to_str(v) for v in row] for row in mat.entries]


def _is_square(rows, size):
    """rows is a JSON list of size lists of size items each."""
    return (isinstance(rows, list) and len(rows) == size
            and all(isinstance(r, list) and len(r) == size for r in rows))


def _scalar(s, p, lineno, parsed):
    """scalar_from_str once per distinct value; the immutable scalars in ``parsed`` are shared."""
    try:
        return parsed[s]
    except (KeyError, TypeError):  # new, or an unhashable JSON list or object
        try:
            parsed[s] = scalar_from_str(s, p)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"line {lineno}: bad scalar {s!r}: {exc}") from None
    return parsed[s]


def _matrix_from_strings(rows, d, p, lineno, parsed):
    if not _is_square(rows, d):
        raise ParseError(f"line {lineno}: matrix is not {d} x {d}")
    return SquareMatrix([[_scalar(s, p, lineno, parsed) for s in row] for row in rows])


def _exponent_from_rows(rows, n, lineno):
    if not _is_square(rows, n):
        raise ParseError(f"line {lineno}: exponent matrix is not {n} x {n}")
    try:
        return ExponentMatrix(n, rows)
    except ShapeError as exc:
        raise ParseError(f"line {lineno}: bad exponent matrix: {exc}") from None


def _load_line(line, lineno):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {lineno}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"line {lineno}: expected a JSON object")
    return obj


def _header_ints(header, extra=()):
    """The header's n, p, d and then its ``extra`` fields; the version must be
    FORMAT_VERSION and (n, p, d) must pass check_field."""
    version = header.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"line 1: unsupported version {version!r}, expected {FORMAT_VERSION}")
    out = []
    for key in ("n", "p", "d") + extra:
        v = header.get(key)
        if type(v) is not int or v < 0:  # JSON true/false would pass isinstance(v, int)
            raise ParseError(f"line 1: header field {key!r} must be a non-negative integer")
        out.append(v)
    try:
        check_field(*out[:3])
    except ValueError as exc:
        raise ParseError(f"line 1: {exc}") from None
    except CostBoundError as exc:
        raise CostBoundError(f"line 1: {exc}") from None
    return out


def write_rep_file(rep: Representation, body="chi") -> str:
    """Canonical text for a representation, with a chi-table or
    polynomial-matrix body."""
    if body not in ("chi", "poly"):
        raise ValueError(f"unknown body format {body!r}")
    lines = [json.dumps(
        {"format": body, "version": FORMAT_VERSION, "n": rep.n, "p": rep.p, "d": rep.d},
        sort_keys=True,
    )]
    if body == "chi":
        for M, mat in rep.chi.items():
            lines.append(json.dumps(
                {"M": _exponent_rows(M), "matrix": _matrix_to_strings(mat)}, sort_keys=True
            ))
    else:
        items = rep.chi.items()
        for a in range(rep.d):
            for b in range(rep.d):
                terms = [
                    {"M": _exponent_rows(M), "c": scalar_to_str(mat.entries[a][b])}
                    for M, mat in items if mat.entries[a][b]
                ]
                lines.append(json.dumps(
                    {"row": a + 1, "col": b + 1, "terms": terms}, sort_keys=True
                ))
    return "\n".join(lines) + "\n"


def parse_rep_file(text: str) -> Representation:
    """Inverse of write_rep_file; structural validation only."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ParseError("line 1: empty file")
    header = _load_line(lines[0], 1)
    body = header.get("format")
    if body not in ("chi", "poly"):
        raise ParseError(f"line 1: unknown format {header.get('format')!r}")
    n, p, d = _header_ints(header)
    parsed = {}
    if body == "chi":
        support = {}
        for lineno, line in enumerate(lines[1:], start=2):
            obj = _load_line(line, lineno)
            M = _exponent_from_rows(obj.get("M"), n, lineno)
            if M in support:
                raise ParseError(f"line {lineno}: duplicate exponent matrix")
            support[M] = _matrix_from_strings(obj.get("matrix"), d, p, lineno, parsed)
        return Representation(ChiTable(n, p, d, support))
    entries = set()
    support = {}  # rows of chi(M), filled one term at a time; a later term of a cell wins
    zero = coerce_scalar(0, p)
    for lineno, line in enumerate(lines[1:], start=2):
        obj = _load_line(line, lineno)
        a, b = obj.get("row"), obj.get("col")
        if not (type(a) is int and type(b) is int and 1 <= a <= d and 1 <= b <= d):
            raise ParseError(f"line {lineno}: row/col out of range")
        if (a, b) in entries:
            raise ParseError(f"line {lineno}: duplicate entry ({a}, {b})")
        entries.add((a, b))
        listed = obj.get("terms", [])
        if not (isinstance(listed, list) and all(isinstance(t, dict) for t in listed)):
            raise ParseError(f"line {lineno}: terms must be a list of objects")
        for t in listed:
            M = _exponent_from_rows(t.get("M"), n, lineno)
            if M not in support:
                support[M] = [[zero] * d for _ in range(d)]
            support[M][a - 1][b - 1] = _scalar(t.get("c"), p, lineno, parsed)
    if len(entries) != d * d:
        # each body line is one distinct in-range entry, so entries are missing
        pairs = itertools.product(range(1, d + 1), repeat=2)
        missing = list(itertools.islice((ab for ab in pairs if ab not in entries), MISSING_SHOWN))
        more = d * d - len(entries) - len(missing)
        raise ParseError(f"line {len(lines)}: missing matrix entries {missing}"
                         + (f" and {more} more" if more else ""))
    return Representation(ChiTable(n, p, d, {M: SquareMatrix(rows) for M, rows in support.items()}))


def write_layer_file(data: LieLayerData) -> str:
    """Canonical text for a layer family; every pair of every layer is listed."""
    lines = [json.dumps(
        {"format": "layers", "version": FORMAT_VERSION, "n": data.n, "p": data.p,
         "d": data.d, "layers": len(data.layers)},
        sort_keys=True,
    )]
    for l in range(len(data.layers)):
        for i, j in variable_pairs(data.n):
            lines.append(json.dumps(
                {"layer": l, "i": i, "j": j,
                 "matrix": _matrix_to_strings(data.image(l, i, j))},
                sort_keys=True,
            ))
    return "\n".join(lines) + "\n"


def parse_layer_file(text: str) -> LieLayerData:
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ParseError("line 1: empty file")
    header = _load_line(lines[0], 1)
    if header.get("format") != "layers":
        raise ParseError(f"line 1: unknown format {header.get('format')!r}")
    n, p, d, count = _header_ints(header, ("layers",))
    if count > MAX_LAYERS:
        raise CostBoundError(f"line 1: {count} layers is over the bound of {MAX_LAYERS}")
    layers = [dict() for _ in range(count)]
    parsed = {}
    for lineno, line in enumerate(lines[1:], start=2):
        obj = _load_line(line, lineno)
        l, i, j = obj.get("layer"), obj.get("i"), obj.get("j")
        if not (type(l) is int and 0 <= l < count):
            raise ParseError(f"line {lineno}: layer index out of range")
        if not (type(i) is int and type(j) is int and 1 <= i < j <= n):
            raise ParseError(f"line {lineno}: pair ({i}, {j}) out of range")
        if (i, j) in layers[l]:
            raise ParseError(f"line {lineno}: duplicate layer entry")
        layers[l][(i, j)] = _matrix_from_strings(obj.get("matrix"), d, p, lineno, parsed)
    return LieLayerData(n, p, d, layers)
