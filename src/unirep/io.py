"""Line-oriented JSON serialization for representations and layer families.

A file is one header object followed by one body object per line.  Scalars are
JSON strings of decimals ("a/b" for rationals, "r" with 0 <= r < p for
residues), so the files are diff-able and exactly representable; no other JSON
value, and no other text of a value, is read as a scalar.  Writing is
canonical: exponent matrices in lexicographic order, layers and index pairs in
increasing order, each line's keys sorted, its matrices filled into cached
per-size texts of their JSON.  A layer file lists only the images present: the
reader takes a missing (layer, i, j) line, or a line of the zero matrix, as
the zero image.
"""

from __future__ import annotations

import itertools
import json
from functools import cache

from .arith import check_field, scalar_from_str
from .errors import CostBoundError, ParseError, ShapeError
from .hopf import _key, _upper_flat
from .linalg import SquareMatrix, _field_rows, _wrap
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
# memory; the writer refuses such a family, so it writes no file the reader refuses.
MAX_LAYERS = 64


@cache
def _text(n, low, high):
    """The JSON text of an n x n matrix: low on and below the diagonal, high
    above it.  A "%s" is filled with str of an exponent, or of a field entry's
    int or Fraction: its scalar_to_str, which JSON writes as it is."""
    return "[%s]" % ", ".join("[%s]" % ", ".join([low] * (i + 1) + [high] * (n - i - 1)) for i in range(n))


def _entries(mat, p):
    """A matrix's field entries, row-major: ints mod p, or Fractions at p = 0."""
    return tuple(itertools.chain.from_iterable(_field_rows(mat, p)))


def _is_square(rows, size):
    """rows is a JSON list of size lists of size items each."""
    return (isinstance(rows, list) and len(rows) == size
            and all(isinstance(r, list) and len(r) == size for r in rows))


class _Scalars(dict):
    """A file's scalars by their string, each read once by scalar_from_str
    (which raises on a bad one) and shared; any other JSON value is a TypeError."""

    def __init__(self, p):
        self.p = p

    def __missing__(self, s):
        if type(s) is not str:
            raise TypeError("not a JSON string")  # so no number is truncated by int()
        value = self[s] = scalar_from_str(s, self.p)
        return value


def _scalar(s, lineno, parsed):
    """parsed[s]; a value it refuses is a ParseError that names it."""
    try:
        return parsed[s]
    except (TypeError, ValueError, ZeroDivisionError) as exc:  # a TypeError if s is unhashable
        raise ParseError(f"line {lineno}: bad scalar {s!r}: "
                         f"{exc if type(s) is str else 'not a JSON string'}") from None


def _matrix_from_strings(rows, d, lineno, parsed):
    if not _is_square(rows, d):
        raise ParseError(f"line {lineno}: matrix is not {d} x {d}")
    try:  # _wrap at p = 0 keeps the rows of scalars as they are
        return _wrap([list(map(parsed.__getitem__, row)) for row in rows], 0)
    except (TypeError, ValueError, ZeroDivisionError):  # _scalar raises at the first bad scalar
        return SquareMatrix([[_scalar(s, lineno, parsed) for s in row] for row in rows])


def _exponent_from_rows(rows, n, lineno):
    if not _is_square(rows, n):
        raise ParseError(f"line {lineno}: exponent matrix is not {n} x {n}")
    try:
        return _key(n, _upper_flat(rows))
    except ShapeError as exc:
        raise ParseError(f"line {lineno}: bad exponent matrix: {exc}") from None


def _load_line(line, lineno):
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
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
    n, p, d = rep.n, rep.p, rep.d
    lines = [json.dumps({"d": d, "format": body, "n": n, "p": p, "version": FORMAT_VERSION})]
    key, matrix = _text(n, "0", "%s"), _text(d, '"%s"', '"%s"')
    if body == "chi":
        for M, mat in rep.chi.items():
            lines.append('{"M": %s, "matrix": %s}' % (key % M.flat, matrix % _entries(mat, p)))
    else:
        cells = [(key % M.flat, [*map(str, _entries(mat, p))]) for M, mat in rep.chi.items()]
        for k in range(d * d):
            terms = ", ".join('{"M": %s, "c": "%s"}' % (m, c[k]) for m, c in cells if c[k] != "0")
            lines.append('{"col": %d, "row": %d, "terms": [%s]}' % (k % d + 1, k // d + 1, terms))
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
    parsed = _Scalars(p)
    if body == "chi":
        support = {}
        for lineno, line in enumerate(lines[1:], start=2):
            obj = _load_line(line, lineno)
            M = _exponent_from_rows(obj.get("M"), n, lineno)
            if M in support:
                raise ParseError(f"line {lineno}: duplicate exponent matrix")
            support[M] = _matrix_from_strings(obj.get("matrix"), d, lineno, parsed)
        return Representation(ChiTable(n, p, d, support))
    entries = set()
    support = {}  # rows of chi(M), filled one term at a time
    zero = parsed["0"]
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
        cell = set()
        for t in listed:
            M = _exponent_from_rows(t.get("M"), n, lineno)
            if M in cell:
                raise ParseError(f"line {lineno}: duplicate exponent matrix in entry ({a}, {b})")
            cell.add(M)
            if M not in support:
                support[M] = [[zero] * d for _ in range(d)]
            support[M][a - 1][b - 1] = _scalar(t.get("c"), lineno, parsed)
    if len(entries) != d * d:
        # each body line is one distinct in-range entry, so entries are missing
        pairs = itertools.product(range(1, d + 1), repeat=2)
        missing = list(itertools.islice((ab for ab in pairs if ab not in entries), MISSING_SHOWN))
        more = d * d - len(entries) - len(missing)
        raise ParseError(f"line {len(lines)}: missing matrix entries {missing}"
                         + (f" and {more} more" if more else ""))
    return Representation(ChiTable(n, p, d, {M: SquareMatrix(rows) for M, rows in support.items()}))


def write_layer_file(data: LieLayerData) -> str:
    """Canonical text for a layer family: one line for each image present, in
    (layer, i, j) order, and none for an absent (zero) image.  The header counts
    every layer, empty ones included.  Like parse_layer_file, it refuses over
    MAX_LAYERS layers."""
    p, d = data.p, data.d
    if len(data.layers) > MAX_LAYERS:
        raise CostBoundError(f"{len(data.layers)} layers is over the bound of {MAX_LAYERS}")
    lines = [json.dumps({"d": d, "format": "layers", "layers": len(data.layers), "n": data.n,
                         "p": p, "version": FORMAT_VERSION})]
    matrix = _text(d, '"%s"', '"%s"')
    for l, images in enumerate(data.layers):
        for (i, j), mat in sorted(images.items()):
            lines.append('{"i": %d, "j": %d, "layer": %d, "matrix": %s}' % (i, j, l, matrix % _entries(mat, p)))
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
    parsed = _Scalars(p)
    for lineno, line in enumerate(lines[1:], start=2):
        obj = _load_line(line, lineno)
        l, i, j = obj.get("layer"), obj.get("i"), obj.get("j")
        if not (type(l) is int and 0 <= l < count):
            raise ParseError(f"line {lineno}: layer index out of range")
        if not (type(i) is int and type(j) is int and 1 <= i < j <= n):
            raise ParseError(f"line {lineno}: pair ({i}, {j}) out of range")
        if (i, j) in layers[l]:
            raise ParseError(f"line {lineno}: duplicate layer entry")
        layers[l][(i, j)] = _matrix_from_strings(obj.get("matrix"), d, lineno, parsed)
    return LieLayerData(n, p, d, layers)
